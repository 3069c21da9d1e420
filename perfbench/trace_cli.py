"""Run the polydissect command line with its entry points traced.

    python3 perfbench/trace_cli.py TRACE_OUT [polydissect arguments ...]

Behaves like `python3 -m polydissect.cli [arguments ...]` and also writes
TRACE_OUT: the CLOCK_MONOTONIC time at which `polydissect.cli` finished
importing, the per-layer totals, and every span.
"""

import sys
import time

import polydissect.cli

IMPORTED_AT = time.monotonic()

import tracer  # noqa: E402  (after the import that cli.startup_s times)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.Recorder()
    recorder.install()
    try:
        return polydissect.cli.main(argv)
    finally:
        layers, spans = recorder.take()
        tracer.write_spans(out, spans, imported_at=IMPORTED_AT, layers=layers)


if __name__ == "__main__":
    sys.exit(main())

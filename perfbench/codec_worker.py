"""faces-codec workload: one round of in-process polydissect calls.

    python3 perfbench/codec_worker.py --seed N --round R --trace 0|1 [--spans PATH]

run.py starts one worker per round, with the package on PYTHONPATH.  The
first output line gives the CLOCK_MONOTONIC time at which set-up ended; the
last line is one JSON object with the round's figures.  A round is a fixed
list of operations:

* one `enumerate_faces` call per ENUMERATED complex, which open the round in
  this order, so that the peak resident set does not depend on the seed;
* one round trip per face of each ROUND_TRIP complex: `face_to_document`,
  `dump_json`, `load_face`, `encode`, `decode`;
* one call per entry of BAD_DOCUMENTS and BOOLEAN_DOCUMENTS (`load_face`),
  BAD_WORDS (`decode`), and BAD_FACES plus a face of two crossing diameters
  (`encode`), each of which must raise its documented error.

The seed and the round number fix the order of the round trips and
rejections.  The documents in BOOLEAN_DOCUMENTS use JSON booleans where
integers belong and must be rejected with FaceDocumentError; today
`documents.params_from_document` and `documents.diagonal_from_labels` accept
them (`isinstance(True, int)` holds), so these operations count as failed.
"""

from __future__ import annotations

import argparse
import json
import random
import time

import oracle
import tracer
from polydissect import bijection, complexes, documents
from polydissect.polygons import PolygonParams, diameter

ENUMERATED = [("B", 2, 6), ("A", 2, 7)]
ROUND_TRIP = [("B", 2, 4), ("B", 3, 3), ("B", 1, 5)]

BAD_DOCUMENTS = [
    '{"family": "B", "m": 2, "n": 3',
    '[["B", 2, 3]]',
    '{"family": "B", "m": 2, "diagonals": []}',
    '{"family": "C", "m": 2, "n": 3, "diagonals": []}',
    '{"family": "B", "m": 0, "n": 3, "diagonals": []}',
    '{"family": "B", "m": "2", "n": 3, "diagonals": []}',
    '{"family": "B", "m": 2, "n": 3, "diagonals": "1,-1"}',
    '{"family": "B", "m": 2, "n": 3, "diagonals": [[1, -1, 2]]}',
    '{"family": "B", "m": 2, "n": 3, "diagonals": [[1, 99]]}',
    '{"family": "B", "m": 2, "n": 3, "diagonals": [[1, 3]]}',
    '{"family": "B", "m": 2, "n": 3, "diagonals": [[1, -1], [-1, 1]]}',
    '{"family": "B", "m": 2, "n": 3, "diagonals": [[1, -1], [2, -2]]}',
    '{"family": "A", "m": 1, "n": 3, "diagonals": [[1, 2]]}',
]
BOOLEAN_DOCUMENTS = [
    '{"family":"B","m":true,"n":2,"diagonals":[[true,-1]]}',
    '{"family":"B","m":2,"n":true,"diagonals":[]}',
    '{"family":"B","m":1,"n":2,"diagonals":[[true,-1]]}',
]
BAD_WORDS = [  # (m, n, a, eps) for decode
    (2, 3, (), (0, 0)),
    (2, 3, (), (0, 2, 0)),
    (2, 3, (1,), (0, 0, 0)),
    (2, 3, (8,), (1, 0, 0)),
    (2, 3, (3, 1), (1, 1, 0)),
]
BAD_FACES = [  # family-A faces, which encode must refuse
    '{"family": "A", "m": 1, "n": 3, "diagonals": [[1, 3]]}',
]


def build_ops() -> list[tuple]:
    """Every operation of one round as (op id, kind, payload, expected error)."""
    ops = []
    for fam, m, n in ENUMERATED:
        ops.append((f"enumerate {fam}({m},{n})", "enumerate", PolygonParams(fam, m, n), None))
    for fam, m, n in ROUND_TRIP:
        params = PolygonParams(fam, m, n)
        table = complexes.enumerate_faces(params)
        for i in range(params.rank + 1):
            for k, face in enumerate(table.faces(i)):
                ops.append((f"round-trip {fam}({m},{n}) {i}.{k}", "round_trip", face, None))
    for k, text in enumerate(BAD_DOCUMENTS + BOOLEAN_DOCUMENTS):
        ops.append((f"reject document {k}", "load", text, "FaceDocumentError"))
    for k, (m, n, a, eps) in enumerate(BAD_WORDS):
        ops.append((f"reject word {k}", "decode", (PolygonParams("B", m, n), a, eps),
                    "InvalidImageError"))
    b23 = PolygonParams("B", 2, 3)
    two_diameters = complexes.face_from_diagonals(b23, [diameter(b23, 0), diameter(b23, 1)])
    faces = [two_diameters] + [documents.load_face(text) for text in BAD_FACES]
    for k, face in enumerate(faces):
        ops.append((f"reject face {k}", "encode", face, "MalformedFaceError"))
    return ops


def run_round(ops, rng: random.Random) -> dict:
    """Run every operation once, time it and check its output."""
    enumerations = [i for i, op in enumerate(ops) if op[1] == "enumerate"]
    rest = [i for i, op in enumerate(ops) if op[1] != "enumerate"]
    order = enumerations + rng.sample(rest, len(rest))
    tallies = {(m, n): oracle.RoundTripTally(m, n) for _fam, m, n in ROUND_TRIP}
    outputs = oracle.OutputDigest()
    durations = [0.0] * len(ops)  # in op order, so rounds line up
    wall = cpu = 0.0
    failed = 0
    problems: list[str] = []
    clock, cpu_clock = time.perf_counter, time.process_time
    for idx in order:
        op_id, kind, payload, error = ops[idx]
        raised = None
        t0, c0 = clock(), cpu_clock()
        try:
            if kind == "round_trip":
                text = documents.dump_json(documents.face_to_document(payload))
                image = bijection.encode(documents.load_face(text))
                back = bijection.decode(payload.params, image.a, image.eps)
            elif kind == "enumerate":
                table = complexes.enumerate_faces(payload)
            elif kind == "load":
                documents.load_face(payload)
            elif kind == "decode":
                bijection.decode(*payload)
            else:
                bijection.encode(payload)
        except Exception as exc:  # noqa: BLE001  (any exception is the op's outcome)
            raised = exc
        t1, c1 = clock(), cpu_clock()
        durations[idx] = t1 - t0
        wall += t1 - t0
        cpu += c1 - c0
        try:
            if error is not None:
                if raised is None:
                    failed += 1  # accepted an input it must reject
                    outputs.add(op_id, "accepted")
                    continue
                oracle.expect(type(raised).__name__ == error,
                              f"{op_id}: raised {type(raised).__name__}, expected {error}")
                outputs.add(op_id, f"{type(raised).__name__}: {raised}")
                continue
            oracle.expect(raised is None, f"{op_id}: raised {raised!r}")
            if kind == "enumerate":
                f = table.f_vector()
                oracle.expect(f == oracle.f_vector(payload.family, payload.m, payload.n),
                              f"{op_id}: f-vector {f}")
                outputs.add(op_id, str(f))
                del table
            else:
                p = payload.params
                tallies[(p.m, p.n)].add(text, image.a, image.eps, back == payload)
                outputs.add(op_id, f"{text}|{image.a}|{image.eps}")
        except oracle.CheckFailed as exc:
            problems.append(str(exc))
    for tally in tallies.values():
        try:
            tally.finish()
        except oracle.CheckFailed as exc:
            problems.append(str(exc))
    return {"wall": wall, "cpu": cpu, "attempted": len(ops), "failed": failed,
            "digest": outputs.hexdigest(), "problems": problems, "durations": durations}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    recorder = tracer.Recorder() if args.trace else None
    if recorder is not None:
        recorder.install()
    ops = build_ops()
    if recorder is not None:
        recorder.take()  # drop the set-up's calls
    print(json.dumps({"ready_at": time.monotonic()}), flush=True)

    result = run_round(ops, random.Random(f"{args.seed}/{args.round}"))
    if recorder is not None:
        result["layers"], spans = recorder.take()
        if args.spans:
            tracer.write_spans(args.spans, spans, seed=args.seed, round=args.round)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""Span recorder that wraps polydissect's public entry points from outside.

`Recorder.install()` replaces each entry point wherever a loaded polydissect
module binds it, so a call from `cli` and a call from inside the defining
module are both recorded.  `AbstractComplex` is traced through its
constructor.  Hot helpers such as `polygons.compatible` stay unwrapped.

Spans (name, start, end, parent) live in memory until `take()` hands them
over for `write_spans()`.  A layer's
`_s` figure is self time: the span's duration minus that of its directly
nested traced spans.  Counters are exact and do not depend on timing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

ENTRY_POINTS = {
    "cli": ["main"],
    "complexes": ["enumerate_faces", "check_pure", "facet_region_audit"],
    "simplicial": [
        "find_vertex_decomposition",
        "verify_vertex_decomposition",
        "shelling_from_decomposition",
        "verify_shelling",
        "parse_facet_lines",
        "faces_by_dimension",
    ],
    "homology": ["reduced_betti", "boundary_matrix", "matrix_rank"],
    "bijection": ["encode", "decode"],
    "documents": ["load_face", "face_to_document", "dump_json"],
}
CONSTRUCTORS = {"simplicial": ["AbstractComplex"]}


def _certificate_nodes(cert) -> int:
    """Shedding steps in a decomposition certificate (None counts 0)."""
    count, stack = 0, [cert]
    while stack:
        node = stack.pop()
        if node is not None and hasattr(node, "vertex"):
            count += 1
            stack.append(node.link)
            stack.append(node.deletion)
    return count


class Recorder:
    """Records spans and counters for the polydissect modules of one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self.certificates: list = []  # counted after the run, outside every span
        self._stack: list[int] = []

    def _bump(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def _wrap(self, name: str, fn, after=None):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                self._bump(name + "_calls")
            if after is not None:
                after(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in every loaded polydissect module."""
        for short in ENTRY_POINTS:
            importlib.import_module("polydissect." + short)
        modules = {k: v for k, v in sys.modules.items()
                   if k.startswith("polydissect.") and v is not None}
        after = {
            "complexes.enumerate_faces": lambda t: self._bump(
                "complexes.faces_emitted", sum(t.f_vector())),
            "simplicial.find_vertex_decomposition": lambda c: self.certificates.append(c),
            "homology.boundary_matrix": lambda b: self._bump(
                "homology.boundary_nonzeros", len(b.entries)),
            "bijection.decode": lambda _face: self._bump("bijection.round_trips"),
        }
        for short, names in ENTRY_POINTS.items():
            home = modules["polydissect." + short]
            for fname in names:
                original = getattr(home, fname)
                qual = f"{short}.{fname}"
                wrapper = self._wrap(qual, original, after.get(qual))
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        for short, names in CONSTRUCTORS.items():
            home = modules["polydissect." + short]
            for cname in names:
                cls = getattr(home, cname)
                cls.__init__ = self._wrap(f"{short}.{cname}", cls.__init__)

    def take(self) -> tuple[dict[str, float], list[list]]:
        """Self time per layer and every counter, plus the spans, for the
        calls made since the last take; recording then starts afresh."""
        counts, spans = self.counts, self.spans
        counts["simplicial.certificate_nodes"] = sum(map(_certificate_nodes, self.certificates))
        self.counts, self.spans, self.certificates = {}, [], []
        nested = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                nested[parent] += end - start
        layers: dict[str, float] = dict(counts)
        for (name, start, end, _parent), inner in zip(spans, nested):
            key = ("cli.self" if name == "cli.main" else name) + "_s"
            layers[key] = layers.get(key, 0.0) + (end - start - inner)
        return layers, spans


def write_spans(path, spans: list[list], **extra) -> None:
    """Write spans, one [name, start, end, parent] list each, as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(extra, spans=spans), fh)

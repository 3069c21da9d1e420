"""Command line interface.

Each command returns the parts of its report: the params document, the
result, the table lines and the exit code, or None when it wrote its own
output.  `main` times the command, writes the JSON report or the table lines
once, and maps errors to exit codes: 0 success, 1 a verified invariant is
violated (a counterexample is reported), 2 usage or input errors, 3 resource
limits, 4 an internal limit of the interpreter (recursion depth or memory)
was hit.  Reports are deterministic: repeated runs print identical bytes
unless --timing is given.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import cached_property

from . import bijection, complexes, counting, homology, simplicial
from .complexes import enumerate_faces
from .documents import diagonal_to_labels, dump_json, face_to_document, load_face, make_report
from .errors import (FaceDocumentError, InvalidImageError, MalformedFaceError, PolydissectError,
                     ResourceLimitError, ShellingError, count_text, digit_count)
from .polygons import FAMILY_B, PolygonParams
from .render import face_svg

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


class _Violation(Exception):
    """A violated invariant found before any report: `main` prints the
    message alone on stderr and exits 1."""


def _say(text: object) -> None:
    """Print `text` on stderr; a failed write (a closed pipe) keeps the exit code."""
    try:
        print(text, file=sys.stderr, flush=True)
    except OSError:
        pass


def _params(args) -> PolygonParams:
    return PolygonParams(args.family, args.m, args.n)


def _params_dict(params: PolygonParams) -> dict:
    return {"family": params.family, "m": params.m, "n": params.n}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _sign(exponent: int) -> int:
    return 1 if exponent % 2 == 0 else -1


def _expected_betti(params: PolygonParams) -> tuple[int, ...]:
    r = params.rank
    if r == 0:
        return ()
    return (0,) * (r - 1) + (counting.narayana(params, r),)


def _tokens(labels: list[list[int]]) -> str:
    return " ".join(f"{x},{y}" for x, y in labels)


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x != "")


def _spaced(values, empty: str = "(none)") -> str:
    return " ".join(map(str, values)) if values else empty


class _Analysis:
    """The face table and abstract complex of one parameter set, each built
    at most once, when a command or suite first asks for it; `max_states`
    bounds the decomposition search of the shelling suite.  An imported
    facet list comes as its complex, with no params and no table."""

    def __init__(self, params, max_faces=None, max_states=simplicial.DEFAULT_MAX_STATES,
                 imported=None):
        self.params, self.max_faces, self.max_states = params, max_faces, max_states
        if imported is not None:
            self.complex = imported

    @cached_property
    def table(self) -> complexes.FaceTable:
        return enumerate_faces(self.params, max_faces=self.max_faces)

    @cached_property
    def complex(self) -> simplicial.AbstractComplex:
        return simplicial.AbstractComplex(complexes.abstract_facets(self.table))

    def face_closure(self) -> dict[int, list[tuple]]:
        """The faces keyed by dimension, for `homology.reduced_betti`: the
        table's levels, or the bounded closure of an imported complex."""
        if self.params is None:
            return simplicial.faces_by_dimension(self.complex, self.max_faces)
        return dict(enumerate(self.table.by_cardinality, -1))


def _source(args):
    """The params document and the analysis of `shelling` or `homology`."""
    if args.facets_file:
        comp = simplicial.parse_facet_lines(_read_text(args.facets_file))
        if not comp.facets:
            raise ValueError(f"no facets in --facets-file {args.facets_file}: every line is blank")
        return {"facets_file": args.facets_file}, _Analysis(None, args.max_faces, imported=comp)
    analysis = _Analysis(_params(args), args.max_faces)
    return _params_dict(analysis.params), analysis


# The steps of the shelling chain in order, with `shelling`'s message when
# the step fails; `verify` names its checks after them.
_SHELL_STEPS = {
    "decomposition-found": "no vertex decomposition exists",
    "certificate-verified": "decomposition certificate failed verification",
    "order-verified": "derived facet order is not a shelling: {}",
}


def _shell(comp, max_states):
    """Find a vertex decomposition, walk it to a facet order and verify the
    order: (the ShellingOrder, None, None), or (None, the failed step, its
    detail)."""
    cert = simplicial.find_vertex_decomposition(comp, max_states=max_states)
    if cert is None:
        return None, "decomposition-found", None
    order = simplicial.shelling_from_decomposition(comp, cert)
    if order is None:
        return None, "certificate-verified", None
    try:
        return simplicial.verify_shelling(comp, order), None, None
    except ShellingError as exc:
        return None, "order-verified", str(exc)


# -- plain computations ---------------------------------------------------------


def cmd_count(args):
    params = _params(args)
    # h_from_f makes (rank + 1)**2 / 2 subtractions of f-vector-sized ints
    projected = (params.rank + 1) ** 2 // 2 * counting.f_entry_bits(params)
    bound = complexes.COUNT_MAX_BIT_OPERATIONS
    if projected > bound:
        raise ResourceLimitError(f"count projects {count_text(projected)} bit operations for "
                                 f"its h-vector, over bound {bound}",
                                 projected=projected, bound=bound)
    f = counting.f_vector(params)
    # by the closed forms, no number in the report exceeds the largest f entry
    projected, bound = digit_count(max(f)), sys.get_int_max_str_digits()
    if bound and projected > bound:
        raise ResourceLimitError(f"the largest f-vector entry has {projected} digits, over the "
                                 f"interpreter's limit of {bound} for int strings",
                                 projected=projected, bound=bound)
    h = counting.h_from_f(f)
    nar = counting.narayana_vector(params)
    result = {
        "f_vector": list(f),
        "h_vector": list(h),
        "narayana": list(nar),
        "facet_count": f[-1],
        "reduced_euler": counting.reduced_euler(f),
    }
    lines = [
        "f-vector (faces by cardinality): " + " ".join(map(str, f)),
        "h-vector:                        " + " ".join(map(str, h)),
        "narayana:                        " + " ".join(map(str, nar)),
        f"facets: {f[-1]}",
        f"reduced Euler characteristic: {result['reduced_euler']}",
    ]
    return _params_dict(params), result, lines, EXIT_OK


def cmd_enumerate(args):
    params = _params(args)
    f = enumerate_faces(params, up_to=args.up_to, max_faces=args.max_faces).f_vector()
    lines = [f"cardinality {i}: {count}" for i, count in enumerate(f)]
    return _params_dict(params), {"f_vector_enumerated": list(f)}, lines, EXIT_OK


def cmd_facets(args):
    params = _params(args)
    table = enumerate_faces(params, max_faces=args.max_faces)
    # the vertices are in `Diagonal.sort_key` order, so a facet's index tuple
    # lists its diagonals as `Face.sorted_diagonals` does
    labels = [diagonal_to_labels(params, d) for d in table.vertices]
    top = table.by_cardinality[-1]
    del table  # the faces below the top are freed before the rows are built
    rows = [[labels[j] for j in ix] for ix in top]
    lines = [_tokens(row) for row in rows]
    if args.format == "lines":
        for line in lines:
            print(line)
        return None
    result = {"facets": rows, "count": len(rows)}
    return _params_dict(params), result, [f"{len(rows)} facets", *lines], EXIT_OK


def cmd_encode(args):
    face = load_face(_read_text(args.face))
    image = bijection.encode(face)
    lines = ["a:   " + _spaced(image.a, "(empty)"), "eps: " + _spaced(image.eps)]
    return _params_dict(face.params), {"a": list(image.a), "eps": list(image.eps)}, lines, EXIT_OK


def cmd_decode(args):
    params = PolygonParams(FAMILY_B, args.m, args.n)
    doc = face_to_document(bijection.decode(params, _ints(args.a), _ints(args.eps)))
    return _params_dict(params), doc, ["diagonals: " + _tokens(doc["diagonals"])], EXIT_OK


def cmd_render(args):
    svg = face_svg(load_face(_read_text(args.face)))
    if args.out == "-":
        sys.stdout.write(svg)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return None


# -- certificate pipelines ------------------------------------------------------


def cmd_shelling(args):
    params_doc, analysis = _source(args)
    comp = analysis.complex
    witness = comp.impure_witness()
    if witness is not None:
        raise _Violation(f"impure complex: facet {sorted(witness)} is not of top dimension")
    shelling, failed, detail = _shell(comp, args.max_states)
    if failed:
        raise _Violation(_SHELL_STEPS[failed].format(detail))

    order, hist = shelling.facets, shelling.restriction_histogram()
    result = {
        "facet_count": len(order),
        "order": [sorted(map(str, f)) for f in order],
        "restriction_histogram": {str(k): v for k, v in sorted(hist.items())},
    }
    lines = [
        f"shelling of {len(order)} facets found and verified",
        "restriction sizes: " + " ".join(f"{k}:{v}" for k, v in sorted(hist.items())),
    ]
    code = EXIT_OK
    if analysis.params is not None:
        nar = counting.narayana_vector(analysis.params)
        got = shelling.h_vector(comp.dim)
        result["h_vector_from_restrictions"] = list(got)
        result["narayana"] = list(nar)
        result["matches_narayana"] = got == nar
        lines.append(f"h-vector from restrictions: {' '.join(map(str, got))}")
        lines.append(f"narayana:                   {' '.join(map(str, nar))}")
        if got != nar:
            lines.append("MISMATCH: restriction histogram differs from the narayana vector")
            code = EXIT_VIOLATION
    return params_doc, result, lines, code


def cmd_homology(args):
    params_doc, analysis = _source(args)
    betti = homology.reduced_betti(analysis.face_closure())
    result = {"reduced_betti": list(betti)}
    lines = ["reduced Betti numbers: " + _spaced(betti)]
    code = EXIT_OK
    if analysis.params is not None:
        expected = _expected_betti(analysis.params)
        result["expected"] = list(expected)
        result["matches_expected"] = betti == expected
        lines.append("expected:              " + _spaced(expected))
        if betti != expected:
            lines.append("MISMATCH: Betti numbers differ from the expected wedge of spheres")
            code = EXIT_VIOLATION
    return params_doc, result, lines, code


# -- verification suites --------------------------------------------------------


def _check(name: str, ok: bool, expected=None, got=None, counterexample=None) -> dict:
    """One check's entry; a counterexample face is given as its document."""
    entry = {"name": name, "status": "pass" if ok else "fail"}
    if expected is not None:
        entry["expected"] = expected
    if got is not None:
        entry["got"] = got
    if counterexample is not None:
        entry["counterexample"] = face_to_document(counterexample)
    return entry


def _suite_counts(analysis: _Analysis) -> list[dict]:
    enum_f = analysis.table.f_vector()
    params = analysis.params
    closed = counting.f_vector(params)
    h = counting.h_from_f(closed)
    nar = counting.narayana_vector(params)
    euler = counting.reduced_euler(closed)
    euler_expected = _sign(params.rank - 1) * nar[params.rank]
    m_sequence = counting.is_m_sequence(nar)
    return [
        _check("counts.f-vector", enum_f == closed, list(closed), list(enum_f)),
        _check("counts.h-equals-narayana", h == nar, list(nar), list(h)),
        _check("counts.reduced-euler", euler == euler_expected, euler_expected, euler),
        _check("counts.narayana-is-m-sequence", m_sequence, True, m_sequence),
    ]


def _suite_purity(analysis: _Analysis) -> list[dict]:
    table = analysis.table

    def facets():  # one Face at a time, not the whole top level
        return map(table.face_from_indices, table.by_cardinality[-1])

    found = [
        ("purity.every-face-extends-to-a-facet", complexes.check_pure(table)),
        ("purity.facet-regions-are-(m+2)-gons",
         next((f for f in facets() if not complexes.facet_region_audit(f)), None)),
    ]
    if analysis.params.family == FAMILY_B:
        found.append(("purity.facets-contain-exactly-one-diameter",
                      next((f for f in facets() if complexes.diameter_count(f) != 1), None)))
    return [_check(name, face is None, counterexample=face) for name, face in found]


def _suite_bijection(analysis: _Analysis) -> list[dict]:
    params = analysis.params
    if params.family != FAMILY_B:
        return [{"name": "bijection.round-trip", "status": "skipped",
                 "reason": "the encoding is defined for family B"}]
    cards = range(params.rank + 1)
    diam_by_eps, diam_by_audit = [0] * len(cards), [0] * len(cards)
    table = analysis.table
    for i in cards:
        for face in map(table.face_from_indices, table.by_cardinality[i]):
            image = bijection.encode(face)
            if bijection.decode(params, image.a, image.eps) != face:
                return [_check("bijection.decode-inverts-encode", False, counterexample=face)]
            diam_by_eps[i] += image.eps[-1] == 1
            diam_by_audit[i] += complexes.diameter_count(face) > 0
    expected_counts = list(counting.f_vector(params))
    # every face round-trips, so the distinct faces of a level have distinct images
    got_counts = [len(set(level)) for level in table.by_cardinality]
    expected_diam = [0] + [counting.diameter_face_count(params, i) for i in cards[1:]]
    return [
        _check("bijection.decode-inverts-encode", True),
        _check("bijection.image-counts", got_counts == expected_counts,
               expected_counts, got_counts),
        _check("bijection.diameter-faces-by-audit", diam_by_audit == expected_diam,
               expected_diam, diam_by_audit),
        _check("bijection.diameter-faces-by-final-eps", diam_by_eps == expected_diam,
               expected_diam, diam_by_eps),
    ]


def _suite_shelling(analysis: _Analysis) -> list[dict]:
    comp = analysis.complex
    shelling, failed, detail = _shell(comp, analysis.max_states)
    checks = []
    for step in _SHELL_STEPS:
        checks.append(_check("shelling." + step, step != failed,
                             got=detail if step == failed else None))
        if step == failed:
            return checks
    nar = counting.narayana_vector(analysis.params)
    got = shelling.h_vector(comp.dim)
    return checks + [
        _check("shelling.restrictions-match-narayana", got == nar, list(nar), list(got))]


def _suite_homology(analysis: _Analysis) -> list[dict]:
    params = analysis.params
    betti = homology.reduced_betti(analysis.face_closure())
    expected = _expected_betti(params)
    checks = [_check("homology.betti-wedge-of-spheres", betti == expected,
                     list(expected), list(betti))]
    if params.rank >= 1:
        euler = sum(_sign(k) * b for k, b in enumerate(betti))
        expected_euler = counting.reduced_euler(counting.f_vector(params))
        checks.append(_check("homology.euler-poincare", euler == expected_euler,
                             expected_euler, euler))
    return checks


SUITE_CHECKS = {"counts": _suite_counts, "purity": _suite_purity, "bijection": _suite_bijection,
                "shelling": _suite_shelling, "homology": _suite_homology}
SUITES = (*SUITE_CHECKS, "all")
_TAGS = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}


def cmd_verify(args):
    params = _params(args)
    analysis = _Analysis(params, args.max_faces, args.max_states)
    suites = list(SUITE_CHECKS) if args.suite == "all" else [args.suite]
    checks = [check for suite in suites for check in SUITE_CHECKS[suite](analysis)]
    failures = sum(1 for c in checks if c["status"] == "fail")
    lines = []
    for c in checks:
        line = f"{_TAGS[c['status']]} {c['name']}"
        if c["status"] == "fail" and "expected" in c:
            line += f": expected {c['expected']}, got {c.get('got')}"
        elif c["status"] == "skipped":
            line += f": {c['reason']}"
        lines.append(line)
    lines.append(f"{len(checks) - failures}/{len(checks)} checks passed")
    result = {"suite": args.suite, "checks": checks, "failures": failures}
    return _params_dict(params), result, lines, EXIT_VIOLATION if failures else EXIT_OK


# -- argument parsing -----------------------------------------------------------


def _non_negative_int(text: str) -> int:
    """argparse type of the counts and bounds: an int >= 0."""
    try:
        return complexes.non_negative_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_PARAMS = (
    ("--family", {"choices": ["A", "B"], "help": "complex family (A or B)"}),
    ("--m", {"type": int, "help": "divisibility parameter, >= 1"}),
    ("--n", {"type": int, "help": "rank parameter, >= 1"}),
)
_REQUIRED_PARAMS = tuple((flag, {**kw, "required": True}) for flag, kw in _PARAMS)
_SOURCE = (*_PARAMS, ("--facets-file", {
    "default": None, "help": "run on an imported facet list instead (one facet per line)"}))
_MAX_STATES = ("--max-states", {"type": _non_negative_int,
                                "default": simplicial.DEFAULT_MAX_STATES})
_FACE = ("face", {"help": "face document path, or - for stdin"})
_REPORT = ("table", "json")

# (name, help, handler, arguments, formats); a command with formats also
# takes --format, --max-faces and --timing
COMMANDS = (
    ("count", "closed-form f/h/narayana vectors", cmd_count, _REQUIRED_PARAMS, _REPORT),
    ("enumerate", "enumerate faces and report counts", cmd_enumerate, (
        *_REQUIRED_PARAMS,
        ("--up-to", {"type": _non_negative_int, "default": None,
                     "help": "largest cardinality to enumerate"}),
    ), _REPORT),
    ("facets", "list all facets", cmd_facets, _REQUIRED_PARAMS, (*_REPORT, "lines")),
    ("encode", "encode a type-B face document", cmd_encode, (_FACE,), _REPORT),
    ("decode", "decode an (a, eps) code word to a face", cmd_decode, (
        ("--m", {"type": int, "required": True}),
        ("--n", {"type": int, "required": True}),
        ("--a", {"default": "", "help": "comma-separated initial-point labels"}),
        ("--eps", {"required": True, "help": "comma-separated 0/1 entries, n of them"}),
    ), _REPORT),
    ("shelling", "find and verify a shelling", cmd_shelling, (*_SOURCE, _MAX_STATES), _REPORT),
    ("homology", "reduced Betti numbers over the rationals", cmd_homology, _SOURCE, _REPORT),
    ("verify", "run verification suites", cmd_verify, (
        *_REQUIRED_PARAMS, ("--suite", {"choices": SUITES, "default": "all"}), _MAX_STATES,
    ), _REPORT),
    ("render", "draw a face document as SVG", cmd_render, (
        _FACE, ("--out", {"default": "-", "help": "output path, or - for stdout"})), ()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydissect",
        description="m-divisible polygon dissection complexes: counts, codes, "
                    "shellings, homology",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments, formats in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        if formats:
            p.add_argument("--format", choices=formats, default="table", help="output format")
            p.add_argument("--max-faces", type=_non_negative_int, default=None,
                           help="resource bound on enumerated faces (default "
                                f"{complexes.DEFAULT_MAX_FACES}, env {complexes.MAX_FACES_ENV})")
            p.add_argument("--timing", action="store_true",
                           help="include wall-clock timing in output")
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "facets_file" in args:
        source = (args.family, args.m, args.n)
        if args.facets_file is None and None in source:
            parser.error("either --family/--m/--n or --facets-file is required")
        given = [flag for flag, v in zip(("--family", "--m", "--n"), source) if v is not None]
        if args.facets_file is not None and given:
            parser.error(f"--facets-file and {given[0]} are mutually exclusive")
    started = time.perf_counter()
    try:
        report = args.func(args)
        if report is None:
            return EXIT_OK
        params, result, lines, code = report
        if args.format == "json":
            timing = time.perf_counter() - started if args.timing else None
            sys.stdout.write(dump_json(make_report(args.command, params, result, timing)))
        else:
            for line in lines:
                print(line)
            if args.timing:
                print(f"time: {time.perf_counter() - started:.3f}s")
        return code
    except _Violation as exc:
        _say(exc)
        return EXIT_VIOLATION
    except ResourceLimitError as exc:
        _say(f"resource limit: {exc}")
        return EXIT_RESOURCE
    except (FaceDocumentError, MalformedFaceError, InvalidImageError, ValueError,
            OSError) as exc:
        _say(f"error: {exc}")
        return EXIT_USAGE
    except PolydissectError as exc:
        _say(f"error: {exc}")
        return EXIT_VIOLATION
    except (RecursionError, MemoryError) as exc:
        _say(f"internal limit: {str(exc) or type(exc).__name__}")
        return EXIT_INTERNAL


def run() -> None:
    """Console entry point: `main()` on the process arguments, then exit
    without tearing down the interpreter's heap.

    The report is flushed first; a failed final write is reported like any
    other OSError, on one `error:` line with exit code 2.  A failed write to
    stderr changes no exit code.  argparse's own exits (`--help`, usage
    errors) leave `main()` as SystemExit and end the same way, with their
    status.
    """
    try:
        code = main()
    except SystemExit as exc:  # raised by argparse, with an int status
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:
        _say(f"error: {exc}")
        code = EXIT_USAGE
    os._exit(code)


if __name__ == "__main__":
    run()

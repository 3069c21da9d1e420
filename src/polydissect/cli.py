"""Command line interface.

Exit codes: 0 success, 1 a verified invariant is violated (a counterexample
is reported), 2 usage or input errors, 3 resource limits, 4 an internal limit
of the interpreter (recursion depth or memory) was hit.  Reports are
deterministic: repeated runs print identical bytes unless --timing is given.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import cached_property

from . import bijection, complexes, counting, homology, simplicial
from .complexes import enumerate_faces
from .documents import (
    diagonal_to_labels,
    dump_json,
    face_to_document,
    load_face,
    make_report,
)
from .errors import (
    FaceDocumentError,
    InvalidImageError,
    MalformedFaceError,
    NotAFaceError,
    PolydissectError,
    ResourceLimitError,
    ShellingError,
)
from .polygons import FAMILY_B, PolygonParams
from .render import face_svg

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _params(args) -> PolygonParams:
    return PolygonParams(args.family, args.m, args.n)


def _params_dict(params: PolygonParams) -> dict:
    return {"family": params.family, "m": params.m, "n": params.n}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(args, command: str, params: dict, result, lines: list[str], started: float) -> None:
    if args.format == "json":
        timing = time.perf_counter() - started if args.timing else None
        sys.stdout.write(dump_json(make_report(command, params, result, timing)))
    else:
        for line in lines:
            print(line)
        if args.timing:
            print(f"time: {time.perf_counter() - started:.3f}s")


def _sign(exponent: int) -> int:
    return 1 if exponent % 2 == 0 else -1


def _expected_betti(params: PolygonParams) -> tuple[int, ...]:
    r = params.rank
    if r == 0:
        return ()
    return (0,) * (r - 1) + (counting.narayana(params, r),)


def _face_tokens(face: complexes.Face) -> list[str]:
    params = face.params
    return [
        "{},{}".format(*diagonal_to_labels(params, d)) for d in face.sorted_diagonals()
    ]


class _Analysis:
    """The face table and abstract complex of one parameter set, each built
    at most once, when a command or suite first asks for it; `max_states`
    bounds the decomposition search of the shelling suite."""

    def __init__(self, params, max_faces=None, max_states=simplicial.DEFAULT_MAX_STATES):
        self.params, self.max_faces, self.max_states = params, max_faces, max_states

    @cached_property
    def table(self) -> complexes.FaceTable:
        return enumerate_faces(self.params, max_faces=self.max_faces)

    @cached_property
    def complex(self) -> simplicial.AbstractComplex:
        return simplicial.AbstractComplex(complexes.abstract_facets(self.table))

    def priority(self) -> dict[int, int]:
        return complexes.decomposition_priority(self.params, self.table.vertices)


# -- plain computations ---------------------------------------------------------


def cmd_count(args) -> int:
    started = time.perf_counter()
    params = _params(args)
    f = counting.f_vector(params)
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
    _emit(args, "count", _params_dict(params), result, lines, started)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    started = time.perf_counter()
    params = _params(args)
    table = enumerate_faces(params, up_to=args.up_to, max_faces=args.max_faces)
    f = table.f_vector()
    lines = [f"cardinality {i}: {count}" for i, count in enumerate(f)]
    _emit(args, "enumerate", _params_dict(params), {"f_vector_enumerated": list(f)}, lines, started)
    return EXIT_OK


def cmd_facets(args) -> int:
    started = time.perf_counter()
    params = _params(args)
    facet_faces = complexes.facets(params, max_faces=args.max_faces)
    token_rows = [_face_tokens(face) for face in facet_faces]
    if args.format == "lines":
        for row in token_rows:
            print(" ".join(row))
        return EXIT_OK
    result = {
        "facets": [[list(map(int, tok.split(","))) for tok in row] for row in token_rows],
        "count": len(token_rows),
    }
    lines = [f"{len(token_rows)} facets"] + [" ".join(row) for row in token_rows]
    _emit(args, "facets", _params_dict(params), result, lines, started)
    return EXIT_OK


def cmd_encode(args) -> int:
    started = time.perf_counter()
    face = load_face(_read_text(args.face))
    image = bijection.encode(face)
    result = {"a": list(image.a), "eps": list(image.eps)}
    lines = [
        "a:   " + (" ".join(map(str, image.a)) if image.a else "(empty)"),
        "eps: " + " ".join(map(str, image.eps)),
    ]
    _emit(args, "encode", _params_dict(face.params), result, lines, started)
    return EXIT_OK


def cmd_decode(args) -> int:
    started = time.perf_counter()
    params = PolygonParams(FAMILY_B, args.m, args.n)
    a = tuple(int(x) for x in args.a.split(",") if x != "") if args.a else ()
    eps = tuple(int(x) for x in args.eps.split(",") if x != "") if args.eps else ()
    face = bijection.decode(params, a, eps)
    doc = face_to_document(face)
    lines = ["diagonals: " + " ".join(_face_tokens(face))]
    _emit(args, "decode", _params_dict(params), doc, lines, started)
    return EXIT_OK


def cmd_render(args) -> int:
    face = load_face(_read_text(args.face))
    svg = face_svg(face)
    if args.out == "-":
        sys.stdout.write(svg)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return EXIT_OK


# -- certificate pipelines ------------------------------------------------------


def cmd_shelling(args) -> int:
    started = time.perf_counter()
    if args.facets_file:
        comp = simplicial.parse_facet_lines(_read_text(args.facets_file))
        priority = None
        params_doc = {"facets_file": args.facets_file}
        narayana_vec = None
    else:
        params = _params(args)
        analysis = _Analysis(params, args.max_faces)
        comp, priority = analysis.complex, analysis.priority()
        params_doc = _params_dict(params)
        narayana_vec = counting.narayana_vector(params)

    witness = comp.impure_witness()
    if witness is not None:
        print(f"impure complex: facet {sorted(witness)} is not of top dimension", file=sys.stderr)
        return EXIT_VIOLATION
    cert = simplicial.find_vertex_decomposition(comp, priority, max_states=args.max_states)
    if cert is None:
        print("no vertex decomposition exists", file=sys.stderr)
        return EXIT_VIOLATION
    order = simplicial.shelling_from_decomposition(comp, cert)
    if order is None:
        print("decomposition certificate failed verification", file=sys.stderr)
        return EXIT_VIOLATION
    try:
        shelling = simplicial.verify_shelling(comp, order)
    except ShellingError as exc:
        print(f"derived facet order is not a shelling: {exc}", file=sys.stderr)
        return EXIT_VIOLATION

    hist = shelling.restriction_histogram()
    result = {
        "facet_count": len(order),
        "order": [sorted(map(str, f)) for f in order],
        "restriction_histogram": {str(k): v for k, v in sorted(hist.items())},
    }
    lines = [
        f"shelling of {len(order)} facets found and verified",
        "restriction sizes: "
        + " ".join(f"{k}:{v}" for k, v in sorted(hist.items())),
    ]
    code = EXIT_OK
    if narayana_vec is not None:
        got = shelling.h_vector(comp.dim)
        result["h_vector_from_restrictions"] = list(got)
        result["narayana"] = list(narayana_vec)
        result["matches_narayana"] = got == narayana_vec
        lines.append(f"h-vector from restrictions: {' '.join(map(str, got))}")
        lines.append(f"narayana:                   {' '.join(map(str, narayana_vec))}")
        if got != narayana_vec:
            lines.append("MISMATCH: restriction histogram differs from the narayana vector")
            code = EXIT_VIOLATION
    _emit(args, "shelling", params_doc, result, lines, started)
    return code


def cmd_homology(args) -> int:
    started = time.perf_counter()
    if args.facets_file:
        comp = simplicial.parse_facet_lines(_read_text(args.facets_file))
        params_doc = {"facets_file": args.facets_file}
        expected = None
    else:
        params = _params(args)
        comp = _Analysis(params, args.max_faces).complex
        params_doc = _params_dict(params)
        expected = _expected_betti(params)

    betti = homology.reduced_betti(comp, args.max_faces)
    result = {"reduced_betti": list(betti)}
    lines = ["reduced Betti numbers: " + (" ".join(map(str, betti)) if betti else "(none)")]
    code = EXIT_OK
    if expected is not None:
        result["expected"] = list(expected)
        result["matches_expected"] = betti == expected
        lines.append("expected:              " + (" ".join(map(str, expected)) if expected else "(none)"))
        if betti != expected:
            lines.append("MISMATCH: Betti numbers differ from the expected wedge of spheres")
            code = EXIT_VIOLATION
    _emit(args, "homology", params_doc, result, lines, started)
    return code


# -- verification suites --------------------------------------------------------


def _check(name: str, ok: bool, expected=None, got=None, counterexample=None) -> dict:
    entry = {"name": name, "status": "pass" if ok else "fail"}
    if expected is not None:
        entry["expected"] = expected
    if got is not None:
        entry["got"] = got
    if counterexample is not None:
        entry["counterexample"] = counterexample
    return entry


def _skip(name: str, reason: str) -> dict:
    return {"name": name, "status": "skipped", "reason": reason}


def _suite_counts(analysis: _Analysis) -> list[dict]:
    enum_f = analysis.table.f_vector()
    params = analysis.params
    closed = counting.f_vector(params)
    h = counting.h_from_f(closed)
    nar = counting.narayana_vector(params)
    r = params.rank
    euler_expected = _sign(r - 1) * nar[r]
    return [
        _check("counts.f-vector", enum_f == closed, list(closed), list(enum_f)),
        _check("counts.h-equals-narayana", h == nar, list(nar), list(h)),
        _check(
            "counts.reduced-euler",
            counting.reduced_euler(closed) == euler_expected,
            euler_expected,
            counting.reduced_euler(closed),
        ),
        _check("counts.narayana-is-m-sequence", counting.is_m_sequence(nar), True,
               counting.is_m_sequence(nar)),
    ]


def _suite_purity(analysis: _Analysis) -> list[dict]:
    params, table = analysis.params, analysis.table
    checks = []
    witness = complexes.check_pure(table)
    checks.append(
        _check(
            "purity.every-face-extends-to-a-facet",
            witness is None,
            counterexample=None if witness is None else face_to_document(witness),
        )
    )
    bad_region = next((f for f in table.facets() if not complexes.facet_region_audit(f)), None)
    checks.append(
        _check(
            "purity.facet-regions-are-(m+2)-gons",
            bad_region is None,
            counterexample=None if bad_region is None else face_to_document(bad_region),
        )
    )
    if params.family == FAMILY_B:
        bad_diam = next((f for f in table.facets() if complexes.diameter_count(f) != 1), None)
        checks.append(
            _check(
                "purity.facets-contain-exactly-one-diameter",
                bad_diam is None,
                counterexample=None if bad_diam is None else face_to_document(bad_diam),
            )
        )
    return checks


def _suite_bijection(analysis: _Analysis) -> list[dict]:
    params = analysis.params
    if params.family != FAMILY_B:
        return [_skip("bijection.round-trip", "the encoding is defined for family B")]
    table = analysis.table
    checks = []
    bad = None
    images_per_card: list[set] = [set() for _ in range(params.rank + 1)]
    diam_by_eps = [0] * (params.rank + 1)
    for i in range(params.rank + 1):
        for face in table.faces(i):
            image = bijection.encode(face)
            if bijection.decode(params, image.a, image.eps) != face:
                bad = face
                break
            images_per_card[i].add((image.a, image.eps))
            if image.eps and image.eps[-1] == 1:
                diam_by_eps[i] += 1
        if bad is not None:
            break
    checks.append(
        _check(
            "bijection.decode-inverts-encode",
            bad is None,
            counterexample=None if bad is None else face_to_document(bad),
        )
    )
    if bad is None:
        expected_counts = [counting.count_faces(params, i) for i in range(params.rank + 1)]
        got_counts = [len(s) for s in images_per_card]
        checks.append(
            _check("bijection.image-counts", got_counts == expected_counts,
                   expected_counts, got_counts)
        )
        expected_diam = [0] + [
            counting.diameter_face_count(params, i) for i in range(1, params.rank + 1)
        ]
        audit_diam = [
            sum(1 for face in table.faces(i) if complexes.diameter_count(face) > 0)
            for i in range(params.rank + 1)
        ]
        checks.append(
            _check("bijection.diameter-faces-by-audit", audit_diam == expected_diam,
                   expected_diam, audit_diam)
        )
        checks.append(
            _check("bijection.diameter-faces-by-final-eps", diam_by_eps == expected_diam,
                   expected_diam, diam_by_eps)
        )
    return checks


def _suite_shelling(analysis: _Analysis) -> list[dict]:
    comp = analysis.complex
    cert = simplicial.find_vertex_decomposition(
        comp, analysis.priority(), max_states=analysis.max_states
    )
    checks = [_check("shelling.decomposition-found", cert is not None)]
    if cert is None:
        return checks
    order = simplicial.shelling_from_decomposition(comp, cert)
    checks.append(_check("shelling.certificate-verified", order is not None))
    if order is None:
        return checks
    try:
        shelling = simplicial.verify_shelling(comp, order)
    except ShellingError as exc:
        checks.append(_check("shelling.order-verified", False, got=str(exc)))
        return checks
    checks.append(_check("shelling.order-verified", True))
    nar = counting.narayana_vector(analysis.params)
    got = shelling.h_vector(comp.dim)
    checks.append(
        _check("shelling.restrictions-match-narayana", got == nar, list(nar), list(got))
    )
    return checks


def _suite_homology(analysis: _Analysis) -> list[dict]:
    params = analysis.params
    betti = homology.reduced_betti(analysis.complex, analysis.max_faces)
    expected = _expected_betti(params)
    checks = [
        _check("homology.betti-wedge-of-spheres", betti == expected, list(expected), list(betti))
    ]
    if params.rank >= 1:
        euler = sum(_sign(k) * b for k, b in enumerate(betti))
        expected_euler = counting.reduced_euler(counting.f_vector(params))
        checks.append(
            _check("homology.euler-poincare", euler == expected_euler, expected_euler, euler)
        )
    return checks


SUITE_CHECKS = {"counts": _suite_counts, "purity": _suite_purity, "bijection": _suite_bijection,
                "shelling": _suite_shelling, "homology": _suite_homology}
SUITES = (*SUITE_CHECKS, "all")


def cmd_verify(args) -> int:
    started = time.perf_counter()
    params = _params(args)
    analysis = _Analysis(params, args.max_faces, args.max_states)
    suites = list(SUITE_CHECKS) if args.suite == "all" else [args.suite]
    checks = [check for suite in suites for check in SUITE_CHECKS[suite](analysis)]
    failures = sum(1 for c in checks if c["status"] == "fail")
    result = {"suite": args.suite, "checks": checks, "failures": failures}
    lines = []
    for c in checks:
        tag = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[c["status"]]
        line = f"{tag} {c['name']}"
        if c["status"] == "fail" and "expected" in c:
            line += f": expected {c['expected']}, got {c.get('got')}"
        elif c["status"] == "skipped":
            line += f": {c['reason']}"
        lines.append(line)
    lines.append(f"{len(checks) - failures}/{len(checks)} checks passed")
    _emit(args, "verify", _params_dict(params), result, lines, started)
    return EXIT_VIOLATION if failures else EXIT_OK


# -- argument parsing -----------------------------------------------------------


def _add_param_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--family", choices=["A", "B"], required=required,
                   help="complex family (A or B)")
    p.add_argument("--m", type=int, required=required, help="divisibility parameter, >= 1")
    p.add_argument("--n", type=int, required=required, help="rank parameter, >= 1")


def _non_negative_int(text: str) -> int:
    """argparse type of the counts and bounds: an int >= 0."""
    try:
        return complexes.non_negative_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common_args(p: argparse.ArgumentParser, formats=("table", "json")) -> None:
    p.add_argument("--format", choices=formats, default="table", help="output format")
    p.add_argument("--max-faces", type=_non_negative_int, default=None,
                   help="resource bound on enumerated faces "
                        f"(default {complexes.DEFAULT_MAX_FACES}, env {complexes.MAX_FACES_ENV})")
    p.add_argument("--timing", action="store_true", help="include wall-clock timing in output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydissect",
        description="m-divisible polygon dissection complexes: counts, codes, "
                    "shellings, homology",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="closed-form f/h/narayana vectors")
    _add_param_args(p)
    _add_common_args(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="enumerate faces and report counts")
    _add_param_args(p)
    p.add_argument("--up-to", type=_non_negative_int, default=None,
                   help="largest cardinality to enumerate")
    _add_common_args(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("facets", help="list all facets")
    _add_param_args(p)
    _add_common_args(p, formats=("table", "json", "lines"))
    p.set_defaults(func=cmd_facets)

    p = sub.add_parser("encode", help="encode a type-B face document")
    p.add_argument("face", help="face document path, or - for stdin")
    _add_common_args(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode an (a, eps) code word to a face")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", default="", help="comma-separated initial-point labels")
    p.add_argument("--eps", required=True, help="comma-separated 0/1 entries, n of them")
    _add_common_args(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("shelling", help="find and verify a shelling")
    _add_param_args(p, required=False)
    p.add_argument("--facets-file", default=None,
                   help="run on an imported facet list instead (one facet per line)")
    p.add_argument("--max-states", type=_non_negative_int, default=simplicial.DEFAULT_MAX_STATES)
    _add_common_args(p)
    p.set_defaults(func=cmd_shelling)

    p = sub.add_parser("homology", help="reduced Betti numbers over the rationals")
    _add_param_args(p, required=False)
    p.add_argument("--facets-file", default=None,
                   help="run on an imported facet list instead (one facet per line)")
    _add_common_args(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("verify", help="run verification suites")
    _add_param_args(p)
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--max-states", type=_non_negative_int, default=simplicial.DEFAULT_MAX_STATES)
    _add_common_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw a face document as SVG")
    p.add_argument("face", help="face document path, or - for stdin")
    p.add_argument("--out", default="-", help="output path, or - for stdout")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func in (cmd_shelling, cmd_homology):
        if args.facets_file is None and None in (args.family, args.m, args.n):
            parser.error("either --family/--m/--n or --facets-file is required")
        if args.facets_file is not None and args.family is not None:
            parser.error("--facets-file and --family are mutually exclusive")
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (FaceDocumentError, MalformedFaceError, InvalidImageError, NotAFaceError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PolydissectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (RecursionError, MemoryError) as exc:
        print(f"internal limit: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

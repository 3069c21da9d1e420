"""Violation paths of the command line: each step of the shelling chain, the
homology and narayana comparisons, the purity audits and the bijection round
trip is forced to fail, and `shelling`, `homology` and `verify` must report
it in table and JSON format with exit code 1."""

import json

import pytest

from polydissect import bijection, complexes, counting, homology, simplicial
from polydissect.cli import main
from polydissect.complexes import enumerate_faces
from polydissect.documents import face_to_document
from polydissect.errors import ShellingError
from polydissect.polygons import FAMILY_B, PolygonParams

OK, VIOLATION = 0, 1
B12 = ["--family", "B", "--m", "1", "--n", "2"]
FORMATS = ["table", "json"]
NOT_A_SHELLING = "facet 3 meets the earlier ones badly"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def failures(out):
    checks = json.loads(out)["result"]["checks"]
    return [c for c in checks if c["status"] == "fail"]


def not_a_shelling(*args, **kwargs):
    raise ShellingError(NOT_A_SHELLING)


# (patched function, replacement, stderr of `shelling`, verify lines, failed check)
CHAIN_FAILURES = {
    "no-decomposition": (
        "find_vertex_decomposition", lambda *a, **k: None,
        "no vertex decomposition exists\n",
        ["FAIL shelling.decomposition-found", "0/1 checks passed"],
        {"name": "shelling.decomposition-found", "status": "fail"},
    ),
    "certificate-fails": (
        "shelling_from_decomposition", lambda *a, **k: None,
        "decomposition certificate failed verification\n",
        ["PASS shelling.decomposition-found", "FAIL shelling.certificate-verified",
         "1/2 checks passed"],
        {"name": "shelling.certificate-verified", "status": "fail"},
    ),
    "order-fails": (
        "verify_shelling", not_a_shelling,
        f"derived facet order is not a shelling: {NOT_A_SHELLING}\n",
        ["PASS shelling.decomposition-found", "PASS shelling.certificate-verified",
         "FAIL shelling.order-verified", "2/3 checks passed"],
        {"name": "shelling.order-verified", "status": "fail", "got": NOT_A_SHELLING},
    ),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("step", CHAIN_FAILURES)
def test_a_failed_shelling_step_is_reported(step, fmt, monkeypatch, capsys):
    name, replacement, message, lines, check = CHAIN_FAILURES[step]
    monkeypatch.setattr(simplicial, name, replacement)

    assert run(capsys, "shelling", *B12, "--format", fmt) == (VIOLATION, "", message)

    code, out, err = run(capsys, "verify", *B12, "--suite", "shelling", "--format", fmt)
    assert (code, err) == (VIOLATION, "")
    if fmt == "table":
        assert out.splitlines() == lines
    else:
        assert failures(out) == [check]
        assert json.loads(out)["result"]["failures"] == 1

    assert run(capsys, "homology", *B12, "--format", fmt)[0] == OK


@pytest.mark.parametrize("fmt", FORMATS)
def test_an_impure_import_is_reported(fmt, tmp_path, capsys):
    (tmp_path / "impure.txt").write_text("0 1\n2\n")
    code, out, err = run(capsys, "shelling", "--facets-file", str(tmp_path / "impure.txt"),
                         "--format", fmt)
    assert (code, out) == (VIOLATION, "")
    assert err == "impure complex: facet ['2'] is not of top dimension\n"


def test_wrong_betti_numbers_are_reported(monkeypatch, capsys):
    monkeypatch.setattr(homology, "reduced_betti", lambda *a, **k: (0, 7))

    assert run(capsys, "homology", *B12) == (VIOLATION, (
        "reduced Betti numbers: 0 7\n"
        "expected:              0 1\n"
        "MISMATCH: Betti numbers differ from the expected wedge of spheres\n"), "")
    code, out, _ = run(capsys, "homology", *B12, "--format", "json")
    assert code == VIOLATION
    assert json.loads(out)["result"] == {
        "expected": [0, 1], "matches_expected": False, "reduced_betti": [0, 7]}

    code, out, _ = run(capsys, "verify", *B12, "--suite", "homology")
    assert code == VIOLATION
    assert out.splitlines() == [
        "FAIL homology.betti-wedge-of-spheres: expected [0, 1], got [0, 7]",
        "FAIL homology.euler-poincare: expected -1, got -7",
        "0/2 checks passed",
    ]
    code, out, _ = run(capsys, "verify", *B12, "--suite", "homology", "--format", "json")
    assert code == VIOLATION
    assert failures(out) == [
        {"name": "homology.betti-wedge-of-spheres", "status": "fail",
         "expected": [0, 1], "got": [0, 7]},
        {"name": "homology.euler-poincare", "status": "fail", "expected": -1, "got": -7},
    ]

    assert run(capsys, "shelling", *B12)[0] == OK


def test_a_wrong_narayana_vector_is_reported(monkeypatch, capsys):
    monkeypatch.setattr(counting, "narayana_vector", lambda params: (1, 2, 3))

    code, out, err = run(capsys, "shelling", *B12)
    assert (code, err) == (VIOLATION, "")
    assert out.splitlines()[-3:] == [
        "h-vector from restrictions: 1 4 1",
        "narayana:                   1 2 3",
        "MISMATCH: restriction histogram differs from the narayana vector",
    ]
    code, out, _ = run(capsys, "shelling", *B12, "--format", "json")
    assert code == VIOLATION
    result = json.loads(out)["result"]
    assert (result["h_vector_from_restrictions"], result["narayana"],
            result["matches_narayana"]) == ([1, 4, 1], [1, 2, 3], False)

    code, out, _ = run(capsys, "verify", *B12)
    assert code == VIOLATION
    assert [line for line in out.splitlines() if not line.startswith("PASS")] == [
        "FAIL counts.h-equals-narayana: expected [1, 2, 3], got [1, 4, 1]",
        "FAIL counts.reduced-euler: expected -3, got -1",
        "FAIL shelling.restrictions-match-narayana: expected [1, 2, 3], got [1, 4, 1]",
        "14/17 checks passed",
    ]
    code, out, _ = run(capsys, "verify", *B12, "--format", "json")
    assert code == VIOLATION
    assert failures(out) == [
        {"name": "counts.h-equals-narayana", "status": "fail",
         "expected": [1, 2, 3], "got": [1, 4, 1]},
        {"name": "counts.reduced-euler", "status": "fail", "expected": -3, "got": -1},
        {"name": "shelling.restrictions-match-narayana", "status": "fail",
         "expected": [1, 2, 3], "got": [1, 4, 1]},
    ]
    assert json.loads(out)["result"]["failures"] == 3

    assert run(capsys, "homology", *B12)[0] == OK


bijection_decode = bijection.decode
ONE_DIAGONAL = {"family": "B", "m": 1, "n": 2, "diagonals": [[1, 3]]}
FIRST_FACET = face_to_document(next(iter(enumerate_faces(PolygonParams(FAMILY_B, 1, 2)).facets())))

# (patched function, replacement, suite, failed check names, table lines with
# details, counterexample)
AUDIT_FAILURES = {
    "impure-face": (
        complexes, "check_pure", lambda table: table.faces(1)[0], "purity",
        ["purity.every-face-extends-to-a-facet"], [], ONE_DIAGONAL),
    "bad-region": (
        complexes, "facet_region_audit", lambda face: False, "purity",
        ["purity.facet-regions-are-(m+2)-gons"], [], FIRST_FACET),
    "two-diameters": (
        complexes, "diameter_count", lambda face: 2, "all",
        ["purity.facets-contain-exactly-one-diameter", "bijection.diameter-faces-by-audit"],
        ["FAIL bijection.diameter-faces-by-audit: expected [0, 3, 6], got [1, 6, 6]"],
        FIRST_FACET),
    "wrong-decode": (
        bijection, "decode", lambda params, a, eps: bijection_decode(params, (), (0, 0)),
        "bijection", ["bijection.decode-inverts-encode"], [], ONE_DIAGONAL),
}


@pytest.mark.parametrize("audit", AUDIT_FAILURES)
def test_a_failed_audit_is_reported_with_its_counterexample(audit, monkeypatch, capsys):
    module, name, replacement, suite, names, detailed, counterexample = AUDIT_FAILURES[audit]
    monkeypatch.setattr(module, name, replacement)

    code, out, err = run(capsys, "verify", *B12, "--suite", suite)
    assert (code, err) == (VIOLATION, "")
    fail_lines = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert [line.split(":")[0] for line in fail_lines] == [f"FAIL {n}" for n in names]
    assert [line for line in fail_lines if ":" in line] == detailed

    code, out, err = run(capsys, "verify", *B12, "--suite", suite, "--format", "json")
    assert (code, err) == (VIOLATION, "")
    failed = failures(out)
    assert [c["name"] for c in failed] == names
    assert [c["counterexample"] for c in failed if "counterexample" in c] == [counterexample]
    if audit == "two-diameters":
        assert failed[1] == {"name": "bijection.diameter-faces-by-audit", "status": "fail",
                             "expected": [0, 3, 6], "got": [1, 6, 6]}

    assert run(capsys, "shelling", *B12)[0] == OK
    assert run(capsys, "homology", *B12)[0] == OK

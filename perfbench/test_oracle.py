"""Tests of the benchmark's own checkers and tracer arithmetic.

    python3 -m pytest perfbench

Each checker must accept a correct output and reject a corrupted one.  The
report tests run the program from src/ to get genuine outputs to corrupt.
"""

import copy
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
GRID = [(fam, m, n) for fam in "AB" for m in (1, 2, 3) for n in (1, 2, 3, 4, 5)]


def cli_report(*args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, "-m", "polydissect.cli", *args, "--format", "json"],
                          cwd=ROOT, env=env, capture_output=True, check=True, timeout=120)
    return json.loads(done.stdout)


@pytest.mark.parametrize("fam,m,n", GRID)
def test_h_from_f_of_closed_form_is_narayana(fam, m, n):
    assert oracle.h_from_f(oracle.f_vector(fam, m, n)) == oracle.narayana(fam, m, n)


@pytest.mark.parametrize("fam,m,n", GRID)
def test_facets_are_fuss_catalan_and_euler_is_top_narayana(fam, m, n):
    f = oracle.f_vector(fam, m, n)
    catalan = comb((m + 1) * n, n) // (m * n + 1) if fam == "A" else comb((m + 1) * n, n)
    assert f[-1] == catalan
    assert abs(oracle.reduced_euler(f)) == oracle.narayana(fam, m, n)[-1]


def test_small_cases():
    assert oracle.f_vector("A", 1, 3) == (1, 5, 5)  # pentagon
    assert oracle.narayana("A", 1, 3) == (1, 3, 1)
    assert oracle.f_vector("B", 2, 2) == (1, 10, 15)
    assert oracle.diameter_faces(2, 2) == (0, 5, 15)
    assert oracle.path_h(4) == oracle.h_from_f((1, 5, 4))


def test_betti_checker_rejects_wrong_vectors():
    f = oracle.f_vector("B", 2, 2)
    oracle.check_betti([0, 6], f)
    for wrong in ([0, 5], [1, 6], [6], [0, 0, 6]):
        with pytest.raises(oracle.CheckFailed):
            oracle.check_betti(wrong, f)


PATH = [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"]]


def test_restriction_sizes_of_a_path():
    assert oracle.restriction_sizes(PATH) == [0, 1, 1, 1]


def test_restriction_sizes_reject_swapped_and_repeated_facets():
    with pytest.raises(oracle.CheckFailed):
        oracle.restriction_sizes([PATH[0], PATH[2], PATH[1], PATH[3]])
    with pytest.raises(oracle.CheckFailed):
        oracle.restriction_sizes([PATH[0], PATH[1], PATH[1]])


def test_restriction_sizes_reject_a_meeting_outside_the_ridges():
    # the last triangle shares the edge 45 with the third and meets the
    # first in the vertex 1 alone
    assert oracle.restriction_sizes([[1, 2, 3], [2, 3, 4], [3, 4, 5]]) == [0, 1, 1]
    with pytest.raises(oracle.CheckFailed):
        oracle.restriction_sizes([[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 4, 5]])
    with pytest.raises(oracle.CheckFailed):
        oracle.restriction_sizes([[1, 2, 3], [3, 4, 5]])


def test_shelling_report_checker_on_genuine_reports():
    edges = 6
    facets = [[f"v{i}", f"v{i + 1}"] for i in range(edges)]
    path = ROOT / "perfbench" / "out" / "test-path.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(" ".join(f) for f in facets) + "\n")
    report = cli_report("shelling", "--facets-file", str(path))
    oracle.check_shelling_report(report, oracle.path_h(edges), facets=facets)

    swapped = copy.deepcopy(report)
    order = swapped["result"]["order"]
    order[1], order[-1] = order[-1], order[1]
    dropped = copy.deepcopy(report)
    del dropped["result"]["order"][-1]
    wrong_hist = copy.deepcopy(report)
    wrong_hist["result"]["restriction_histogram"]["1"] += 1
    for bad in (swapped, dropped, wrong_hist):
        with pytest.raises(oracle.CheckFailed):
            oracle.check_shelling_report(bad, oracle.path_h(edges), facets=facets)

    generated = cli_report("shelling", "--family", "B", "--m", "2", "--n", "2")
    h = oracle.narayana("B", 2, 2)
    oracle.check_shelling_report(generated, h, vertex_count=oracle.f_vector("B", 2, 2)[1])
    del generated["result"]["order"][-1]
    with pytest.raises(oracle.CheckFailed):
        oracle.check_shelling_report(generated, h)


def test_verify_report_checker_on_a_genuine_report():
    report = cli_report("verify", "--family", "B", "--m", "2", "--n", "2")
    oracle.check_verify_report(report, "B", 2, 2)

    def corrupt(name, field, value):
        bad = copy.deepcopy(report)
        for check in bad["result"]["checks"]:
            if check["name"] == name:
                check[field] = value
        return bad

    for bad in (
        corrupt("homology.betti-wedge-of-spheres", "got", [0, 5]),
        corrupt("counts.f-vector", "got", [1, 10, 14]),
        corrupt("bijection.image-counts", "got", [1, 9, 15]),
        corrupt("bijection.diameter-faces-by-final-eps", "got", [0, 5, 14]),
        corrupt("shelling.restrictions-match-narayana", "got", [1, 8, 5]),
        corrupt("shelling.order-verified", "status", "fail"),
    ):
        with pytest.raises(oracle.CheckFailed):
            oracle.check_verify_report(bad, "B", 2, 2)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_verify_report(report, "B", 2, 3)


def b11_round_trips():
    """Every face of B(1,1) as (document, a, eps): two diameters and the empty face."""
    doc = '{{"diagonals": {}, "family": "B", "m": 1, "n": 1}}'
    return [(doc.format("[]"), (), (0,)), (doc.format("[[1, -1]]"), (1,), (1,)),
            (doc.format("[[2, -2]]"), (2,), (1,))]


def test_round_trip_tally_accepts_the_whole_complex():
    tally = oracle.RoundTripTally(1, 1)
    for text, a, eps in b11_round_trips():
        tally.add(text, a, eps, True)
    tally.finish()


def test_round_trip_tally_rejects_a_dropped_face():
    tally = oracle.RoundTripTally(1, 1)
    for text, a, eps in b11_round_trips()[:-1]:
        tally.add(text, a, eps, True)
    with pytest.raises(oracle.CheckFailed):
        tally.finish()


def test_round_trip_tally_rejects_bad_round_trips():
    text, a, eps = b11_round_trips()[1]
    for args in ((text, a, eps, False), (text, a, (0,), True), (text, (), eps, True)):
        with pytest.raises(oracle.CheckFailed):
            oracle.RoundTripTally(1, 1).add(*args)


def test_output_digest_ignores_order_but_not_content():
    one, two, three = oracle.OutputDigest(), oracle.OutputDigest(), oracle.OutputDigest()
    one.add("x", "1")
    one.add("y", b"2")
    two.add("y", "2")
    two.add("x", b"1")
    three.add("x", "1")
    three.add("y", "3")
    assert one.hexdigest() == two.hexdigest() != three.hexdigest()


def test_self_time_subtracts_directly_nested_spans():
    rec = tracer.Recorder()
    rec.spans = [["cli.main", 0.0, 10.0, -1],
                 ["complexes.enumerate_faces", 1.0, 4.0, 0],
                 ["simplicial.AbstractComplex", 2.0, 3.0, 1],
                 ["simplicial.AbstractComplex", 5.0, 6.5, 0]]
    layers, spans = rec.take()
    assert layers["cli.self_s"] == 10.0 - 3.0 - 1.5
    assert layers["complexes.enumerate_faces_s"] == 2.0
    assert layers["simplicial.AbstractComplex_s"] == 2.5
    assert len(spans) == 4 and rec.spans == []

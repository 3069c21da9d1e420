"""Acceptance gate: ten checks, one test (and one printed line) each.

Each test performs an end-to-end computation and compares it with an
independent closed form at exact tolerance, inside a stated time budget.
"""

import json
import time

from oracles import count_faces
from polydissect import counting, homology
from polydissect.bijection import decode, encode
from polydissect.cli import main
from polydissect.complexes import abstract_facets, diameter_count, enumerate_faces
from polydissect.polygons import FAMILY_A, FAMILY_B, PolygonParams
from polydissect.simplicial import (
    AbstractComplex,
    find_vertex_decomposition,
    shelling_from_decomposition,
    verify_shelling,
    verify_vertex_decomposition,
)

A_RANGE = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3, 4, 5)]
B_RANGE = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3, 4)]


def report(number, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_family_a_counts_match_closed_form():
    started = time.perf_counter()
    ok = True
    for m, n in A_RANGE:
        params = PolygonParams(FAMILY_A, m, n)
        if enumerate_faces(params).f_vector() != counting.f_vector(params):
            ok = False
            break
    elapsed = time.perf_counter() - started
    report(1, ok and elapsed < 10,
           f"family-A face counts, m in 1..3, n in 1..5, exact [{elapsed:.1f}s < 10s]")


def test_criterion_02_family_b_counts_match_closed_form():
    started = time.perf_counter()
    ok = True
    for m, n in B_RANGE:
        params = PolygonParams(FAMILY_B, m, n)
        if enumerate_faces(params).f_vector() != counting.f_vector(params):
            ok = False
            break
    elapsed = time.perf_counter() - started
    report(2, ok and elapsed < 30,
           f"family-B face counts, m in 1..3, n in 1..4, exact [{elapsed:.1f}s < 30s]")


def test_criterion_03_h_vectors_equal_narayana():
    ok = True
    for fam, grid in ((FAMILY_A, A_RANGE), (FAMILY_B, B_RANGE)):
        for m, n in grid:
            params = PolygonParams(fam, m, n)
            if counting.h_from_f(counting.f_vector(params)) != counting.narayana_vector(params):
                ok = False
    report(3, ok, "h-vector of the closed-form f equals the narayana vector, entrywise")


def test_criterion_04_bijection_round_trip_and_image_counts():
    started = time.perf_counter()
    ok = True
    for m, n in B_RANGE:
        params = PolygonParams(FAMILY_B, m, n)
        table = enumerate_faces(params)
        for i in range(params.rank + 1):
            images = set()
            for face in table.faces(i):
                image = encode(face)
                if decode(params, image.a, image.eps) != face:
                    ok = False
                images.add((image.a, image.eps))
            if len(images) != count_faces(params, i):
                ok = False
    frozen = PolygonParams(FAMILY_B, 2, 6)
    face = decode(frozen, (6, 11, 11, 12), (1, 1, 0, 1, 0, 1))
    image = encode(face)
    if len(face.diagonals) != 4 or image.a != (6, 11, 11, 12) or image.eps != (1, 1, 0, 1, 0, 1):
        ok = False
    elapsed = time.perf_counter() - started
    report(4, ok and elapsed < 60,
           f"decode inverts encode on every family-B face; image counts match; "
           f"frozen 26-gon example re-encodes [{elapsed:.1f}s < 60s]")


def test_criterion_05_diameter_refinement():
    ok = True
    for m, n in B_RANGE:
        params = PolygonParams(FAMILY_B, m, n)
        table = enumerate_faces(params)
        for i in range(1, params.rank + 1):
            expected = counting.diameter_face_count(params, i)
            audited = 0
            by_eps = 0
            for face in table.faces(i):
                if diameter_count(face) == 1:
                    audited += 1
                if encode(face).eps[-1] == 1:
                    by_eps += 1
            if not (audited == by_eps == expected):
                ok = False
    report(5, ok, "faces holding a diameter: direct audit and final-eps criterion "
                  "both match the closed form")


def test_criterion_06_decomposition_and_shelling_everywhere():
    started = time.perf_counter()
    ok = True
    for fam, grid in ((FAMILY_A, A_RANGE), (FAMILY_B, B_RANGE)):
        for m, n in grid:
            params = PolygonParams(fam, m, n)
            table = enumerate_faces(params)
            comp = AbstractComplex(abstract_facets(table))
            cert = find_vertex_decomposition(comp)
            if cert is None or not verify_vertex_decomposition(comp, cert):
                ok = False
                continue
            shelling = verify_shelling(comp, shelling_from_decomposition(comp, cert))
            if shelling.h_vector(comp.dim) != counting.narayana_vector(params):
                ok = False
    elapsed = time.perf_counter() - started
    report(6, ok and elapsed < 300,
           f"vertex decomposition found and verified; derived shelling verified; "
           f"restriction histogram equals narayana [{elapsed:.1f}s < 300s]")


def test_criterion_07_homology_is_a_wedge_of_top_spheres():
    started = time.perf_counter()
    ok = True
    cases = [(FAMILY_A, m, n) for m in (1, 2) for n in (1, 2, 3, 4, 5)] + [
        (FAMILY_B, m, n) for m in (1, 2) for n in (1, 2, 3, 4)
    ]
    computed = {}
    for fam, m, n in cases:
        params = PolygonParams(fam, m, n)
        table = enumerate_faces(params)
        betti = homology.reduced_betti(dict(enumerate(table.by_cardinality, -1)))
        computed[(fam, m, n)] = betti
        r = params.rank
        expected = () if r == 0 else (0,) * (r - 1) + (counting.narayana(params, r),)
        if betti != expected:
            ok = False
    if computed[(FAMILY_B, 2, 3)] != (0, 0, 20):
        ok = False
    elapsed = time.perf_counter() - started
    report(7, ok and elapsed < 120,
           f"reduced Betti numbers are zero below the top and narayana on top "
           f"[{elapsed:.1f}s < 120s]")


def test_criterion_08_euler_characteristic():
    ok = True
    for fam, grid in ((FAMILY_A, A_RANGE), (FAMILY_B, B_RANGE)):
        for m, n in grid:
            params = PolygonParams(fam, m, n)
            r = params.rank
            sign = 1 if (r - 1) % 2 == 0 else -1
            euler = counting.reduced_euler(counting.f_vector(params))
            if euler != sign * counting.narayana(params, r):
                ok = False
    report(8, ok, "alternating sum of the closed-form f equals the signed top narayana number")


def test_criterion_09_m_sequence_at_formula_scale():
    started = time.perf_counter()
    ok = True
    for fam in (FAMILY_A, FAMILY_B):
        for m in range(1, 6):
            for n in range(1, 13):
                if not counting.is_m_sequence(
                    counting.narayana_vector(PolygonParams(fam, m, n))
                ):
                    ok = False
    if counting.is_m_sequence((1, 2, 4)):
        ok = False
    elapsed = time.perf_counter() - started
    report(9, ok and elapsed < 1,
           f"narayana vectors up to m=5, n=12 satisfy the growth bound; "
           f"(1, 2, 4) is rejected [{elapsed:.2f}s < 1s]")


def test_criterion_10_reports_are_deterministic(capsys):
    battery = [
        ["count", "--family", "A", "--m", "3", "--n", "5", "--format", "json"],
        ["count", "--family", "B", "--m", "3", "--n", "4", "--format", "json"],
        ["enumerate", "--family", "B", "--m", "2", "--n", "3", "--format", "json"],
        ["facets", "--family", "B", "--m", "1", "--n", "3", "--format", "json"],
        ["decode", "--m", "2", "--n", "6", "--a", "6,11,11,12",
         "--eps", "1,1,0,1,0,1", "--format", "json"],
        ["verify", "--family", "B", "--m", "2", "--n", "2", "--format", "json"],
        ["shelling", "--family", "B", "--m", "2", "--n", "3", "--format", "json"],
        ["homology", "--family", "A", "--m", "2", "--n", "3", "--format", "json"],
    ]
    ok = True
    for argv in battery:
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        if code1 != 0 or code2 != 0 or out1 != out2:
            ok = False
        parsed = json.loads(out1)
        if "timing" in parsed:
            ok = False
    report(10, ok, "repeated runs of the reporting commands emit byte-identical JSON")

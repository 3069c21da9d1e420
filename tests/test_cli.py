"""Command line behavior: formats, exit codes, determinism, file flows."""

import errno
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from oracles import facets as oracle_facets
from polydissect import cli, complexes, counting, homology, simplicial
from polydissect.cli import main
from polydissect.documents import diagonal_to_labels
from polydissect.polygons import PolygonParams

OK, VIOLATION, USAGE, RESOURCE, INTERNAL = 0, 1, 2, 3, 4


@pytest.fixture(autouse=True)
def reports_match_the_stdlib_encoder(monkeypatch):
    """Every report written in process here is also written by json.dumps,
    and the two texts must be equal."""
    mismatches = []

    def checked(doc):
        text = write(doc)
        if text != json.dumps(doc, indent=2, sort_keys=True) + "\n":
            mismatches.append(text)
        return text

    write = cli.dump_json
    monkeypatch.setattr(cli, "dump_json", checked)
    yield
    assert mismatches == []


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_table(capsys):
    code, out, _ = run(capsys, "count", "--family", "A", "--m", "2", "--n", "3")
    assert code == OK
    assert "1 8 12" in out
    assert "1 6 5" in out
    assert "facets: 12" in out
    assert "reduced Euler characteristic: -5" in out


def test_count_json_report(capsys):
    code, out, _ = run(capsys, "count", "--family", "B", "--m", "2", "--n", "3",
                       "--format", "json")
    assert code == OK
    report = json.loads(out)
    assert report["schema"] == "polydissect.report/1"
    assert report["command"] == "count"
    import polydissect

    assert report["version"] == polydissect.__version__
    assert report["params"] == {"family": "B", "m": 2, "n": 3}
    assert report["result"]["f_vector"] == [1, 21, 84, 84]
    assert report["result"]["narayana"] == [1, 18, 45, 20]
    assert report["result"]["reduced_euler"] == 20
    assert isinstance(report["result"]["reduced_euler"], int)
    assert "timing" not in report


def test_enumerate_matches_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "A", "--m", "3", "--n", "3",
                       "--format", "json")
    assert code == OK
    assert json.loads(out)["result"]["f_vector_enumerated"] == [1, 11, 22]


def test_enumerate_up_to(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "B", "--m", "2", "--n", "3",
                       "--up-to", "1", "--format", "json")
    assert code == OK
    assert json.loads(out)["result"]["f_vector_enumerated"] == [1, 21]


def test_facets_lines_hexagon(capsys):
    code, out, _ = run(capsys, "facets", "--family", "B", "--m", "1", "--n", "2",
                       "--format", "lines")
    assert code == OK
    assert out.splitlines() == [
        "1,3 1,-1",
        "1,3 3,-3",
        "1,-1 2,-1",
        "2,-1 2,-2",
        "2,-2 3,-2",
        "3,-2 3,-3",
    ]


def test_decode_encode_round_trip_via_files(tmp_path, capsys):
    face_file = tmp_path / "face.json"
    code, out, _ = run(capsys, "decode", "--m", "2", "--n", "6",
                       "--a", "6,11,11,12", "--eps", "1,1,0,1,0,1", "--format", "json")
    assert code == OK
    face_file.write_text(out)
    code, out, _ = run(capsys, "encode", str(face_file))
    assert code == OK
    assert "a:   6 11 11 12" in out
    assert "eps: 1 1 0 1 0 1" in out


def test_decode_table_output(capsys):
    code, out, _ = run(capsys, "decode", "--m", "1", "--n", "2", "--a", "1", "--eps", "1,0")
    assert code == OK
    assert out.startswith("diagonals: ")


def test_render_writes_svg(tmp_path, capsys):
    face_file = tmp_path / "face.json"
    out_file = tmp_path / "face.svg"
    code, out, _ = run(capsys, "decode", "--m", "2", "--n", "6",
                       "--a", "6,11,11,12", "--eps", "1,1,0,1,0,1", "--format", "json")
    face_file.write_text(out)
    code, _, _ = run(capsys, "render", str(face_file), "--out", str(out_file))
    assert code == OK
    text = out_file.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    # stdout rendering matches the file byte for byte
    code, out, _ = run(capsys, "render", str(face_file))
    assert out == text


def test_shelling_command(capsys):
    code, out, _ = run(capsys, "shelling", "--family", "B", "--m", "2", "--n", "2",
                       "--format", "json")
    assert code == OK
    result = json.loads(out)["result"]
    assert result["facet_count"] == 15
    assert result["h_vector_from_restrictions"] == [1, 8, 6]
    assert result["matches_narayana"] is True


def test_homology_command(capsys):
    code, out, _ = run(capsys, "homology", "--family", "B", "--m", "2", "--n", "2",
                       "--format", "json")
    assert code == OK
    result = json.loads(out)["result"]
    assert result["reduced_betti"] == [0, 6]
    assert result["matches_expected"] is True


def test_facets_file_flows(tmp_path, capsys):
    lines = tmp_path / "cycle.txt"
    lines.write_text("a b\nb c\nc d\nd e\ne a\n")
    code, out, _ = run(capsys, "shelling", "--facets-file", str(lines), "--format", "json")
    assert code == OK
    result = json.loads(out)["result"]
    assert result["facet_count"] == 5
    assert result["restriction_histogram"] == {"0": 1, "1": 3, "2": 1}
    assert "narayana" not in result

    code, out, _ = run(capsys, "homology", "--facets-file", str(lines), "--format", "json")
    assert code == OK
    assert json.loads(out)["result"]["reduced_betti"] == [0, 1]


def test_nonshellable_import_exits_with_violation(tmp_path, capsys):
    lines = tmp_path / "disjoint.txt"
    lines.write_text("0 1\n2 3\n")
    code, _, err = run(capsys, "shelling", "--facets-file", str(lines))
    assert code == VIOLATION
    assert "no vertex decomposition" in err


def test_impure_import_exits_with_violation(tmp_path, capsys):
    lines = tmp_path / "impure.txt"
    lines.write_text("0 1\n2\n")
    code, _, err = run(capsys, "shelling", "--facets-file", str(lines))
    assert code == VIOLATION
    assert "impure" in err


@pytest.mark.parametrize("command", ["shelling", "homology"])
def test_import_without_facets_exits_two(tmp_path, capsys, command):
    lines = tmp_path / "blank.txt"
    lines.write_text("\n  \n")
    code, out, err = run(capsys, command, "--facets-file", str(lines), "--format", "json")
    assert (code, out) == (USAGE, "")
    assert err == f"error: no facets in --facets-file {lines}: every line is blank\n"


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--family", "B", "--m", "1", "--n", "2")
    assert code == OK
    assert "FAIL" not in out
    assert "17/17 checks passed" in out


def test_verify_family_a_skips_bijection(capsys):
    code, out, _ = run(capsys, "verify", "--family", "A", "--m", "2", "--n", "3",
                       "--suite", "bijection", "--format", "json")
    assert code == OK
    checks = json.loads(out)["result"]["checks"]
    assert [c["status"] for c in checks] == ["skipped"]


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--family", "A", "--m", "1", "--n", "4",
                       "--suite", "homology", "--format", "json")
    assert code == OK
    result = json.loads(out)["result"]
    assert result["failures"] == 0
    names = [c["name"] for c in result["checks"]]
    assert "homology.betti-wedge-of-spheres" in names


def test_verify_enumerates_at_most_once(monkeypatch, capsys):
    calls = []
    enumerate_faces = cli.enumerate_faces

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_faces(*args, **kwargs)

    monkeypatch.setattr(cli, "enumerate_faces", counted)
    code, _, _ = run(capsys, "verify", "--family", "B", "--m", "1", "--n", "3", "--suite", "all")
    assert code == OK
    assert len(calls) == 1
    calls.clear()
    code, _, _ = run(capsys, "verify", "--family", "A", "--m", "2", "--n", "3",
                     "--suite", "bijection")
    assert code == OK
    assert calls == []


@pytest.mark.parametrize("argv", [
    ("homology", "--family", "B", "--m", "2", "--n", "3"),
    ("verify", "--family", "B", "--m", "2", "--n", "3", "--suite", "all"),
])
def test_generated_homology_ranks_the_enumerated_table(monkeypatch, capsys, argv):
    """A generated complex is enumerated once and ranked from its table: no
    second face closure, and for `homology` no `AbstractComplex` either."""
    calls = {"enumerate_faces": 0, "faces_by_dimension": 0, "AbstractComplex": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "enumerate_faces", counted("enumerate_faces", cli.enumerate_faces))
    closure = counted("faces_by_dimension", simplicial.faces_by_dimension)
    monkeypatch.setattr(simplicial, "faces_by_dimension", closure)
    monkeypatch.setattr(homology, "faces_by_dimension", closure)
    monkeypatch.setattr(simplicial.AbstractComplex, "__init__",
                        counted("AbstractComplex", simplicial.AbstractComplex.__init__))
    code, out, _ = run(capsys, *argv)
    assert code == OK and out.endswith(("expected:              0 0 20\n",
                                        "17/17 checks passed\n"))
    built = 0 if argv[0] == "homology" else 1  # the shelling suite's complex
    assert calls == {"enumerate_faces": 1, "faces_by_dimension": 0, "AbstractComplex": built}


def test_bijection_suite_builds_each_face_once(monkeypatch, capsys):
    built, levels = [], []
    face_from_indices = complexes.FaceTable.face_from_indices

    def counted(self, indices):
        built.append(indices)
        return face_from_indices(self, indices)

    monkeypatch.setattr(complexes.FaceTable, "face_from_indices", counted)
    monkeypatch.setattr(complexes.FaceTable, "faces", lambda self, i: levels.append(i))
    code, _, _ = run(capsys, "verify", "--family", "B", "--m", "1", "--n", "3",
                     "--suite", "bijection")
    assert code == OK
    assert levels == []  # no whole level of Face objects is built
    table = complexes.enumerate_faces(PolygonParams("B", 1, 3))
    assert built == [ix for level in table.by_cardinality for ix in level]


def test_bijection_image_counts_count_a_repeated_face_once(monkeypatch, capsys):
    """Images are counted by the distinct faces of each level, as distinct
    code words were counted, so a table that lists a face twice reports the
    same counts."""
    enumerate_faces = cli.enumerate_faces

    def repeating(*args, **kwargs):
        table = enumerate_faces(*args, **kwargs)
        table.by_cardinality[2].append(table.by_cardinality[2][0])
        return table

    monkeypatch.setattr(cli, "enumerate_faces", repeating)
    code, out, _ = run(capsys, "verify", "--family", "B", "--m", "1", "--n", "3",
                       "--suite", "bijection", "--format", "json")
    f = list(counting.f_vector(PolygonParams("B", 1, 3)))
    checks = {c["name"]: c for c in json.loads(out)["result"]["checks"]}
    assert code == OK
    assert checks["bijection.image-counts"] == {
        "name": "bijection.image-counts", "status": "pass", "expected": f, "got": f}


@pytest.mark.parametrize("family,m,n", [("A", 1, 1), ("A", 1, 5), ("A", 3, 3), ("B", 1, 1),
                                          ("B", 2, 3), ("B", 3, 2)])
def test_facets_lists_the_oracle_facets_without_building_faces(monkeypatch, capsys,
                                                               family, m, n):
    params = PolygonParams(family, m, n)
    rows = [[diagonal_to_labels(params, d) for d in f.sorted_diagonals()]
            for f in oracle_facets(params)]
    monkeypatch.setattr(complexes, "Face", None)  # any Face built fails the command
    code, out, _ = run(capsys, "facets", "--family", family, "--m", str(m), "--n", str(n),
                       "--format", "json")
    assert code == OK
    assert json.loads(out)["result"]["facets"] == rows


def test_shelling_builds_only_the_root_complex(monkeypatch, capsys):
    built = []
    init = simplicial.AbstractComplex.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(simplicial.AbstractComplex, "__init__", counted)
    code, _, _ = run(capsys, "shelling", "--family", "B", "--m", "2", "--n", "3")
    assert code == OK
    assert len(built) == 1


def test_bad_inputs_exit_with_usage_code(tmp_path, capsys):
    assert run(capsys, "decode", "--m", "1", "--n", "2", "--a", "5", "--eps", "1,0")[0] == USAGE
    assert run(capsys, "decode", "--m", "1", "--n", "2", "--a", "1", "--eps", "1,1")[0] == USAGE
    assert run(capsys, "encode", str(tmp_path / "missing.json"))[0] == USAGE
    bad = tmp_path / "bad.json"
    bad.write_text('{"family":"B","m":1,"n":2,"diagonals":[[1,3],[2,-2]]}')
    assert run(capsys, "encode", str(bad))[0] == USAGE
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{{{")
    assert run(capsys, "encode", str(notjson))[0] == USAGE


def test_resource_limit_exits_three(capsys):
    code, _, err = run(capsys, "enumerate", "--family", "B", "--m", "3", "--n", "4",
                       "--max-faces", "100")
    assert code == RESOURCE
    assert "resource limit" in err


def test_counts_too_long_to_print_exit_three(monkeypatch, capsys):
    monkeypatch.setattr(counting, "face_counts", lambda params, top: [10 ** 5000] * (top + 1))
    code, out, err = run(capsys, "enumerate", "--family", "A", "--m", "2", "--n", "3")
    assert (code, out) == (RESOURCE, "")
    assert err == "resource limit: projected face count 300000... (5001 digits) " \
                  "exceeds bound 10000000\n"


def test_count_refuses_a_quadratic_h_vector_before_computing_it(monkeypatch, capsys):
    # (rank + 1)**2 / 2 subtractions of up to n (bitlen(3m + 4) + 1) bits
    def refused(params, top=None):
        raise AssertionError("the f-vector is computed past the bound")

    monkeypatch.setattr(counting, "face_counts", refused)
    code, out, err = run(capsys, "count", "--family", "B", "--m", "1", "--n", "100000")
    projected = 100_001 ** 2 // 2 * 100_000 * 4
    assert (code, out) == (RESOURCE, "")
    assert err == f"resource limit: count projects {projected} bit operations for its " \
                  f"h-vector, over bound {complexes.COUNT_MAX_BIT_OPERATIONS}\n"


def test_count_refuses_entries_too_long_to_print(monkeypatch, capsys):
    code, out, err = run(capsys, "count", "--family", "B", "--m", "1000000", "--n", "700",
                         "--format", "json")
    assert (code, out) == (RESOURCE, "")
    assert err == "resource limit: the largest f-vector entry has 4503 digits, over the " \
                  f"interpreter's limit of {sys.get_int_max_str_digits()} for int strings\n"
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # no limit
    code, _, _ = run(capsys, "count", "--family", "B", "--m", "1000", "--n", "20")
    assert code == OK


def test_count_just_under_its_bounds_reports(capsys):
    code, out, _ = run(capsys, "count", "--family", "B", "--m", "1", "--n", "2000",
                       "--format", "json")
    f = json.loads(out)["result"]["f_vector"]
    assert code == OK and f == list(counting.f_vector(PolygonParams("B", 1, 2000)))
    assert 2001 ** 2 // 2 * 2000 * 4 <= complexes.COUNT_MAX_BIT_OPERATIONS


def test_projected_count_of_a_huge_complex_is_refused(capsys):
    # the projection sums 3000 terms of about 11 700 digits each
    code, out, err = run(capsys, "enumerate", "--family", "A", "--m", "3000", "--n", "3000")
    assert (code, out) == (RESOURCE, "")
    assert err == "resource limit: projected face count 640266... (11726 digits) " \
                  "exceeds bound 10000000\n"


@pytest.mark.parametrize("command", ["enumerate", "facets", "verify", "homology", "shelling"])
def test_face_count_projection_is_refused_past_the_bit_bound(monkeypatch, capsys, command):
    # (rank + 1) terms of up to n (bitlen(3m + 4) + 1) bits
    def refused(params, top=None):
        raise AssertionError("the face counts are summed past the bound")

    monkeypatch.setattr(counting, "face_counts", refused)
    started = time.perf_counter()
    code, out, err = run(capsys, command, "--family", "B", "--m", "1", "--n", "100000")
    assert time.perf_counter() - started < 1
    assert (code, out) == (RESOURCE, "")
    assert err == f"resource limit: projecting the face count takes {100_001 * 100_000 * 4} " \
                  f"bit operations, over bound {complexes.COUNT_MAX_BIT_OPERATIONS}\n"


@pytest.mark.parametrize("value", ["-5", "abc"])
def test_invalid_max_faces_env_exits_two(monkeypatch, capsys, value):
    monkeypatch.setenv("POLYDISSECT_MAX_FACES", value)
    code, out, err = run(capsys, "enumerate", "--family", "A", "--m", "2", "--n", "3")
    assert (code, out) == (USAGE, "")
    assert err == f"error: POLYDISSECT_MAX_FACES: invalid non-negative int value: {value!r}\n"


def test_imported_facet_closure_honours_the_face_bound(tmp_path, monkeypatch, capsys):
    wide = tmp_path / "wide.txt"
    wide.write_text(" ".join(f"x{i}" for i in range(12)) + "\n")  # 4096 faces
    code, out, err = run(capsys, "homology", "--facets-file", str(wide), "--max-faces", "1000")
    assert (code, out) == (RESOURCE, "")
    assert "resource limit" in err and "1000" in err
    assert run(capsys, "homology", "--facets-file", str(wide), "--max-faces", "4096")[0] == OK
    monkeypatch.setenv("POLYDISSECT_MAX_FACES", "1000")
    assert run(capsys, "homology", "--facets-file", str(wide))[0] == RESOURCE


def test_huge_imported_facet_is_refused_before_expansion(tmp_path, capsys):
    huge = tmp_path / "huge.txt"
    huge.write_text(" ".join(f"x{i}" for i in range(40)) + "\n")  # 2**40 faces
    started = time.perf_counter()
    code, _, err = run(capsys, "homology", "--facets-file", str(huge))
    assert code == RESOURCE
    assert "resource limit" in err
    assert time.perf_counter() - started < 5


def test_homology_of_a_long_imported_path(tmp_path, capsys):
    path = tmp_path / "path.txt"
    path.write_text("".join(f"p{i} p{i + 1}\n" for i in range(3000)))
    code, out, _ = run(capsys, "homology", "--facets-file", str(path), "--format", "json")
    assert code == OK
    assert json.loads(out)["result"]["reduced_betti"] == [0, 0]


def test_isolated_points_shell_past_the_recursion_limit(tmp_path):
    # the search sheds one isolated vertex per level, past the recursion limit
    points = tmp_path / "points.txt"
    points.write_text("".join(f"x{i}\n" for i in range(1500)))
    proc = subprocess.run(
        [sys.executable, "-m", "polydissect.cli", "shelling", "--facets-file", str(points),
         "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (OK, "")
    assert json.loads(proc.stdout)["result"]["restriction_histogram"] == {"0": 1, "1": 1499}


@pytest.mark.parametrize("exc", [RecursionError("maximum recursion depth exceeded"), MemoryError()])
def test_internal_limits_exit_four_without_traceback(monkeypatch, capsys, exc):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(simplicial, "find_vertex_decomposition", exhausted)
    code, out, err = run(capsys, "shelling", "--family", "B", "--m", "1", "--n", "2")
    assert (code, out) == (INTERNAL, "")
    assert err.startswith("internal limit: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_negative_counts_and_bounds_exit_two(capsys):
    for argv in [
        ["enumerate", "--family", "A", "--m", "2", "--n", "3", "--up-to", "-1"],
        ["shelling", "--family", "A", "--m", "2", "--n", "3", "--max-states", "-1"],
        ["verify", "--family", "A", "--m", "2", "--n", "3", "--max-states", "-1"],
        ["count", "--family", "A", "--m", "2", "--n", "3", "--max-faces", "-1"],
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == USAGE
        err = capsys.readouterr().err
        assert "invalid non-negative int value: '-1'" in err and "Traceback" not in err
    # zero is a valid count or bound, with its old meaning
    code, out, _ = run(capsys, "enumerate", "--family", "A", "--m", "2", "--n", "3",
                       "--up-to", "0", "--format", "json")
    assert code == OK and json.loads(out)["result"]["f_vector_enumerated"] == [1]
    code, _, err = run(capsys, "shelling", "--family", "A", "--m", "2", "--n", "3",
                       "--max-states", "0")
    assert code == RESOURCE and "exceeded 0 memoized states" in err


def test_conflicting_source_options_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["shelling"])
    assert exc.value.code == USAGE
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--facets-file", "x.txt", "--family", "A", "--m", "1", "--n", "2"])
    assert exc.value.code == USAGE
    capsys.readouterr()


@pytest.mark.parametrize("flags,named", [
    (["--m", "5"], "--m"),
    (["--n", "2"], "--n"),
    (["--n", "2", "--m", "1"], "--m"),
    (["--m", "1", "--n", "2", "--family", "A"], "--family"),
])
@pytest.mark.parametrize("command", ["shelling", "homology"])
def test_facets_file_refuses_every_parameter_flag(tmp_path, capsys, command, flags, named):
    cycle = tmp_path / "cycle.txt"
    cycle.write_text("a b\nb c\nc a\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--facets-file", str(cycle), *flags])
    assert exc.value.code == USAGE
    err = capsys.readouterr().err
    assert err.endswith(f"error: --facets-file and {named} are mutually exclusive\n")


def test_reports_are_byte_identical_across_runs(capsys):
    battery = [
        ["count", "--family", "A", "--m", "2", "--n", "4", "--format", "json"],
        ["enumerate", "--family", "B", "--m", "2", "--n", "2", "--format", "json"],
        ["facets", "--family", "B", "--m", "1", "--n", "2", "--format", "json"],
        ["shelling", "--family", "A", "--m", "1", "--n", "4", "--format", "json"],
        ["homology", "--family", "B", "--m", "1", "--n", "2", "--format", "json"],
        ["verify", "--family", "B", "--m", "1", "--n", "2", "--format", "json"],
    ]
    for argv in battery:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == OK


def test_timing_flag_adds_timing_and_breaks_nothing(capsys):
    code, out, _ = run(capsys, "count", "--family", "A", "--m", "1", "--n", "2",
                       "--format", "json", "--timing")
    assert code == OK
    assert "timing" in json.loads(out)
    code, out, _ = run(capsys, "count", "--family", "A", "--m", "1", "--n", "2", "--timing")
    assert code == OK
    assert "time:" in out


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "polydissect.cli", "count", "--family", "A", "--m", "1",
         "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "facets: 5" in proc.stdout


def cli_process(*argv, **kwargs):
    """`python -m polydissect.cli` with block-buffered output, as when installed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "polydissect.cli", *argv], text=True,
                          env=env, timeout=120, **kwargs)


def test_console_script_is_the_exiting_entry_point():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'polydissect = "polydissect.cli:run"' in pyproject


def test_entry_point_keeps_usage_and_help_exit_codes():
    proc = cli_process("count", "--family", "B", "--m", "2", capture_output=True)
    assert proc.returncode == USAGE and proc.stdout == ""
    assert proc.stderr.endswith("error: the following arguments are required: --n\n")
    proc = cli_process("count", "--help", capture_output=True)
    assert (proc.returncode, proc.stderr) == (OK, "")
    assert proc.stdout.startswith("usage: polydissect count")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_final_write_exits_two_with_one_error_line():
    with open("/dev/full", "w") as full:
        proc = cli_process("count", "--family", "B", "--m", "2", "--n", "3",
                           stdout=full, stderr=subprocess.PIPE)
    assert proc.returncode == USAGE
    assert proc.stderr == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "B", "--m", "1", "--n", "3"),
    # 180 KiB of lines, so the write fails inside `main`, not at the last flush
    ("facets", "--family", "A", "--m", "3", "--n", "6", "--format", "lines"),
    # argparse's own exits: help on stdout, a usage error on stderr
    ("count", "--help"),
    ("count", "--family", "B"),
])
@pytest.mark.parametrize("stderr_closed", [False, True])
def test_closed_output_pipe_exits_two(argv, stderr_closed):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = cli_process(*argv, stdout=write_end,
                           stderr=write_end if stderr_closed else subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == USAGE
    if stderr_closed:
        return
    assert "Exception ignored" not in proc.stderr
    if argv == ("count", "--family", "B"):  # nothing reached stdout
        assert proc.stderr.endswith("error: the following arguments are required: --m, --n\n")
    else:
        assert proc.stderr == f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"


def test_cli_starts_without_dataclasses_inspect_or_typing():
    # -S keeps site-packages .pth files, which may import typing, out of the check
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, polydissect.cli; "
         "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

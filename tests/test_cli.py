"""Command line behavior: formats, exit codes, determinism, file flows."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from polydissect import cli, counting, simplicial
from polydissect.cli import main

OK, VIOLATION, USAGE, RESOURCE, INTERNAL = 0, 1, 2, 3, 4


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
    monkeypatch.setattr(counting, "count_faces", lambda params, i: 10 ** 5000)
    code, out, err = run(capsys, "enumerate", "--family", "A", "--m", "2", "--n", "3")
    assert (code, out) == (RESOURCE, "")
    assert err == "resource limit: projected face count 300000... (5001 digits) " \
                  "exceeds bound 10000000\n"


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

"""Golden bytes of the command line.

    python3 tests/cli_golden.py

runs a fixed battery of commands in process through `polydissect.cli.main`
and rewrites `tests/cli_golden.json` with each command's exit code and the
sha256 of its stdout and of its stderr.  `tests/test_cli_golden.py` runs the
same battery and compares, so a change to any report, message, exit code or
`--help` text shows up as a diff of the fixture.

A case is one line of shell-like text run in a directory that holds the
input files of `write_inputs`: leading `NAME=value` words set environment
variables, and `< FILE` reads stdin from FILE.  `--help` texts are formatted
for 80 columns; their bytes belong to the argparse of the Python version
named in the fixture.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

FIXTURE = Path(__file__).with_name("cli_golden.json")

FACE_B = '{"family": "B", "m": 2, "n": 6, "diagonals": [[6, 9], [11, -5], [11, -11], [12, -2]]}'

INPUTS = {
    "face_b.json": FACE_B + "\n",
    "face_b_empty.json": '{"family": "B", "m": 1, "n": 2, "diagonals": []}',
    "face_a.json": '{"family": "A", "m": 1, "n": 3, "diagonals": [[1, 3], [1, 4]]}',
    "crossing.json": '{"family": "B", "m": 1, "n": 2, "diagonals": [[1, 3], [2, -2]]}',
    "boolean.json": '{"family": "B", "m": 1, "n": 2, "diagonals": [[true, 3]]}',
    "notjson.json": "{{{",
    "cycle.txt": "a b\nb c\nc d\nd e\ne a\n",
    "disjoint.txt": "0 1\n2 3\n",
    "impure.txt": "0 1\n2\n",
    "points.txt": "".join(f"x{i}\n" for i in range(5)),
    "path.txt": "".join(f"p{i} p{i + 1}\n" for i in range(30)),
    "wide.txt": " ".join(f"x{i}" for i in range(12)) + "\n",
    "huge.txt": " ".join(f"x{i}" for i in range(40)) + "\n",
    "b12.txt": "1,3 1,-1\n1,3 3,-3\n1,-1 2,-1\n2,-1 2,-2\n2,-2 3,-2\n3,-2 3,-3\n",
    "empty.txt": "",
}

SUBCOMMANDS = ("count", "enumerate", "facets", "encode", "decode", "shelling", "homology",
               "verify", "render")

CASES = [
    "",
    "--help",
    "frobnicate",
    *(f"{name} --help" for name in SUBCOMMANDS),
    # count
    "count --family A --m 1 --n 3",
    "count --family A --m 2 --n 4 --format json",
    "count --family B --m 2 --n 3",
    "count --family B --m 1 --n 1 --format json",
    "count --family B --m 3 --n 5",
    "count --family B --m 2",
    "count --family C --m 1 --n 2",
    "count --family A --m 0 --n 2",
    "count --family A --m 2 --n x",
    "count --family A --m 2 --n 3 --max-faces -1",
    "count --family A --m 2 --n 3 --format lines",
    "count --family B --m 1 --n 100000",
    "count --family B --m 100 --n 3000 --format json",
    # enumerate
    "enumerate --family A --m 2 --n 3",
    "enumerate --family A --m 3 --n 3 --format json",
    "enumerate --family B --m 2 --n 3 --up-to 1 --format json",
    "enumerate --family B --m 2 --n 2 --up-to 0",
    "enumerate --family A --m 2 --n 3 --up-to -1",
    "enumerate --family B --m 3 --n 4 --max-faces 100",
    "enumerate --family B --m 3 --n 4 --max-faces 100 --format json",
    "enumerate --family A --m 3000 --n 3000",
    "POLYDISSECT_MAX_FACES=-5 enumerate --family A --m 2 --n 3",
    "POLYDISSECT_MAX_FACES=abc enumerate --family A --m 2 --n 3",
    "POLYDISSECT_MAX_FACES=10 enumerate --family A --m 2 --n 3",
    # facets
    "facets --family A --m 1 --n 3",
    "facets --family A --m 1 --n 3 --format lines",
    "facets --family B --m 1 --n 2 --format json",
    "facets --family B --m 2 --n 2 --format lines",
    "facets --family B --m 2 --n 2",
    "facets --family B --m 2 --n 3 --max-faces 10",
    "facets --family B --m 2 --n 3 --max-faces 10 --format lines",
    # encode
    "encode face_b.json",
    "encode face_b.json --format json",
    "encode face_b_empty.json",
    "encode face_b_empty.json --format json",
    "< face_b.json encode -",
    "encode face_a.json",
    "encode crossing.json",
    "encode boolean.json",
    "encode notjson.json",
    "encode missing.json",
    "encode empty.txt",
    "encode face_b.json --format lines",
    # decode
    "decode --m 2 --n 6 --a 6,11,11,12 --eps 1,1,0,1,0,1",
    "decode --m 2 --n 6 --a 6,11,11,12 --eps 1,1,0,1,0,1 --format json",
    "decode --m 1 --n 2 --a 1 --eps 1,0",
    "decode --m 1 --n 2 --a 1 --eps 1,0 --format json",
    "decode --m 1 --n 3 --eps 0,0,0",
    "decode --m 1 --n 3 --eps 0,0,0 --format json",
    "decode --m 1 --n 2 --a 5 --eps 1,0",
    "decode --m 1 --n 2 --a 1 --eps 1,1",
    "decode --m 1 --n 2 --a 2,1 --eps 1,1",
    "decode --m 1 --n 2 --a x --eps 1,0",
    "decode --m 1 --n 2 --a 1 --eps 2,0",
    "decode --m 1 --n 2 --a 1",
    "decode --m 0 --n 2 --eps 0,0",
    # render
    "render face_b.json",
    "render face_a.json",
    "render face_b_empty.json",
    "< face_a.json render -",
    "render face_a.json --out face_a.svg",
    "render crossing.json",
    "render missing.json",
    # shelling
    "shelling --family B --m 2 --n 2",
    "shelling --family B --m 2 --n 2 --format json",
    "shelling --family A --m 1 --n 4",
    "shelling --family A --m 1 --n 4 --format json",
    "shelling --family B --m 1 --n 3 --format json",
    "shelling --family A --m 1 --n 1",
    "shelling --family B --m 1 --n 1 --format json",
    "shelling --facets-file cycle.txt",
    "shelling --facets-file cycle.txt --format json",
    "shelling --facets-file b12.txt --format json",
    "shelling --facets-file points.txt",
    "shelling --facets-file path.txt --format json",
    "< cycle.txt shelling --facets-file - --format json",
    "shelling --facets-file disjoint.txt",
    "shelling --facets-file disjoint.txt --format json",
    "shelling --facets-file impure.txt",
    "shelling --facets-file impure.txt --format json",
    "shelling --facets-file empty.txt",
    "shelling --facets-file missing.txt",
    "shelling --facets-file wide.txt --max-faces 1000",
    "shelling --facets-file huge.txt",
    "shelling --family A --m 2 --n 3 --max-states 0",
    "shelling --family A --m 2 --n 3 --max-states -1",
    "shelling --family B --m 2 --n 3 --max-faces 10",
    "shelling",
    "shelling --family A --m 1",
    "shelling --facets-file cycle.txt --family A --m 1 --n 2",
    # homology
    "homology --family B --m 2 --n 2",
    "homology --family B --m 2 --n 2 --format json",
    "homology --family A --m 2 --n 3",
    "homology --family A --m 1 --n 1 --format json",
    "homology --family A --m 1 --n 1",
    "homology --facets-file cycle.txt",
    "homology --facets-file cycle.txt --format json",
    "homology --facets-file disjoint.txt --format json",
    "homology --facets-file impure.txt",
    "homology --facets-file path.txt --format json",
    "homology --facets-file empty.txt --format json",
    "homology --facets-file wide.txt --max-faces 1000",
    "homology --facets-file wide.txt --max-faces 4096",
    "POLYDISSECT_MAX_FACES=1000 homology --facets-file wide.txt",
    "homology --facets-file huge.txt",
    "homology --facets-file missing.txt",
    "homology --family B --m 2 --n 3 --max-faces 10",
    "homology",
    "homology --facets-file x.txt --family A --m 1 --n 2",
    # verify
    "verify --family B --m 1 --n 2",
    "verify --family B --m 1 --n 2 --format json",
    "verify --family A --m 1 --n 3",
    "verify --family A --m 2 --n 3 --format json",
    "verify --family B --m 1 --n 1",
    "verify --family A --m 1 --n 1 --format json",
    "verify --family B --m 2 --n 2 --suite counts",
    "verify --family B --m 2 --n 2 --suite purity --format json",
    "verify --family B --m 2 --n 2 --suite bijection",
    "verify --family A --m 2 --n 3 --suite bijection --format json",
    "verify --family B --m 2 --n 2 --suite shelling --format json",
    "verify --family A --m 1 --n 4 --suite homology",
    "verify --family B --m 1 --n 3 --suite all --format json",
    "verify --family A --m 2 --n 3 --max-states 0",
    "verify --family A --m 2 --n 3 --suite shelling --max-states 0 --format json",
    "verify --family A --m 2 --n 3 --max-states -1",
    "verify --family B --m 2 --n 3 --max-faces 10",
    "verify --family B --m 2 --n 3 --suite counts --max-faces 10",
    "verify --family B --m 2 --n 2 --suite nonsense",
    "verify --family B --m 2",
]


def write_inputs(directory: Path) -> None:
    for name, text in INPUTS.items():
        (directory / name).write_text(text, encoding="utf-8")


def run_case(case: str) -> dict:
    """Run one case in the current directory; return its exit code and the
    sha256 of its stdout and stderr."""
    from polydissect.cli import main  # here, so the script can put src/ on the path first

    words = case.split()
    env = {"COLUMNS": "80", "POLYDISSECT_MAX_FACES": None}
    while words and "=" in words[0] and not words[0].startswith("-"):
        name, value = words.pop(0).split("=", 1)
        env[name] = value
    stdin = ""
    if words[:1] == ["<"]:
        stdin = Path(words[1]).read_text(encoding="utf-8")
        words = words[2:]
    saved = {name: os.environ.get(name) for name in env}
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    try:
        _set_env(env)
        sys.stdin = io.StringIO(stdin)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(words)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved_stdin
        _set_env(saved)
    return {"exit": code, "stdout": _digest(out.getvalue()), "stderr": _digest(err.getvalue())}


def _set_env(values: dict) -> None:
    for name, value in values.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_battery() -> dict:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            cases = {case: run_case(case) for case in CASES}
        finally:
            os.chdir(cwd)
    return {"python": "{}.{}".format(*sys.version_info[:2]), "cases": cases}


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    FIXTURE.write_text(json.dumps(run_battery(), indent=1) + "\n", encoding="utf-8")

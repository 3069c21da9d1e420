"""The command line's exit codes, stdout and stderr stay byte-identical to
the golden fixture; `python3 tests/cli_golden.py` rewrites the fixture."""

import json

import pytest

from cli_golden import CASES, FIXTURE, run_case, write_inputs

GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-golden")
    write_inputs(directory)
    return directory


def test_the_fixture_covers_the_battery():
    assert list(GOLDEN["cases"]) == CASES


@pytest.mark.parametrize("case", CASES)
def test_cli_bytes_match_the_fixture(case, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    assert run_case(case) == GOLDEN["cases"][case]

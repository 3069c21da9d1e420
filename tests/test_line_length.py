"""No line of the sources or the tests is over 100 characters."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIMIT = 100


def test_no_line_is_over_the_limit():
    long = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)}"
        for folder in ("src", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > LIMIT
    ]
    assert long == []

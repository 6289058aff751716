"""The README's "Testing" section is the commands plus one line per test
module: it names every ``tests/test_*.py`` and ``bench/tests/test_*.py``
and no other, and it and the README stay short, so each fact a test
module or its docstring owns is not narrated again in the README."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Testing\n")[1].split("\n## ")[0]


def test_testing_section_names_every_test_module():
    modules = {
        path.relative_to(ROOT).as_posix()
        for pattern in ("tests/test_*.py", "bench/tests/test_*.py")
        for path in ROOT.glob(pattern)
    }
    assert "tests/test_readme_testing.py" in modules
    named = set(re.findall(r"(?:bench/)?tests/test_\w+\.py", section()))
    assert sorted(modules - named) == [], "test modules the Testing section does not name"
    assert sorted(named - modules) == [], "named in the Testing section but not on disk"


def test_testing_section_is_short():
    assert len(section().splitlines()) <= 60


def test_readme_is_short():
    assert len(README.read_text(encoding="utf-8").splitlines()) < 450

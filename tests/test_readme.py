"""The README's "Library use" snippet runs as printed, and the package
root exports exactly the names that snippet imports from it."""

import ast
import re
from pathlib import Path

import aspectminer

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet() -> str:
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_library_snippet_runs_on_the_sample(sample_dir, capsys):
    code = library_snippet()
    for name in ("reviews.txt", "reviews-pretagged.txt"):
        assert f'"{name}"' in code
        code = code.replace(f'"{name}"', repr(str(sample_dir / name)))
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("pros and cons: mp3 player\n")


def test_package_root_exports_what_the_snippet_imports():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(library_snippet()))
        if isinstance(node, ast.ImportFrom) and node.module == "aspectminer"
        for alias in node.names
    }
    assert all(hasattr(aspectminer, name) for name in aspectminer.__all__)
    assert set(aspectminer.__all__) == imported

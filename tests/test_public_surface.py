"""Every public top-level function or class, and every public method or
property of a public class, under ``src/aspectminer`` is referenced in
``src/``, ``scripts/`` or ``bench/`` outside its own definition, or named
in the README's "Library use" section.  Tests do not count: a name only
tests call is a test-only wrapper."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions():
    for path in sorted((ROOT / "src" / "aspectminer").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, DEFS) and not node.name.startswith("_"):
                yield node.name
                for member in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(member, DEFS) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}"


def referenced_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(r"\w+", readme.split("\n## Library use\n")[1].split("\n## ")[0]))
    for path in (p for d in ("src", "scripts", "bench") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)  # getattr by name, as bench's trace points do
    return names


def test_every_public_name_is_referenced():
    defined = list(public_definitions())
    assert {"load_resources", "extract_sentences", "Resources.tagger"} <= set(defined)
    used = referenced_names()
    assert [name for name in defined if name.rpartition(".")[2] not in used] == []

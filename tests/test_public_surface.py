"""Every public top-level function or class, and every public method or
property of a public class, under ``src/aspectminer`` is referenced in
``src/``, ``scripts/`` or ``bench/`` outside its own definition, or named
in the README's "Library use" section.  Tests, ``bench/tests/`` among
them, do not count: a name only tests call is a test-only wrapper."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# Test-only wrappers still awaiting deletion: only ``bench/tests/`` calls
# ``patterns.extract_with_options``, so its removal changes ``bench/tests/``.
TEST_ONLY = ["extract_with_options"]


def public_definitions():
    """``(name, node)`` of each public definition, methods as ``Class.name``."""
    for path in sorted((ROOT / "src" / "aspectminer").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, DEFS) and not node.name.startswith("_"):
                yield node.name, node
                for member in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(member, DEFS) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def references(tree):
    """How often each name is referred to within ``tree``."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1  # getattr by name, as bench's trace points do
    return names


def readme_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return set(re.findall(r"\w+", readme.split("\n## Library use\n")[1].split("\n## ")[0]))


def code_references():
    names = Counter()
    for path in (p for d in ("src", "scripts", "bench") for p in (ROOT / d).rglob("*.py")):
        if ROOT / "bench" / "tests" not in path.parents:
            names += references(ast.parse(path.read_text(encoding="utf-8")))
    return names


def test_every_public_name_is_referenced():
    defined = list(public_definitions())
    assert {"load_resources", "extract_sentences", "Resources.tagger"} <= {
        name for name, _ in defined
    }
    documented, used = readme_names(), code_references()

    def referenced(name, node):
        short = name.rpartition(".")[2]
        return short in documented or used[short] > references(node)[short]

    assert [name for name, node in defined if not referenced(name, node)] == TEST_ONLY


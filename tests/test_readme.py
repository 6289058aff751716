"""The README's "Library use" snippet runs as printed, the package root
exports exactly the names that snippet imports from it, the output
its Quick start prints is what the commands print, and its CLI
conventions name each config key that is not spelled like its flag."""

import ast
import re
import shlex
from pathlib import Path

import pytest

import aspectminer
from aspectminer import cli

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


def quick_start_runs() -> dict[str, tuple[list[str], list[str]]]:
    """Each Quick start command that shows its output, by command name:
    its argv and the printed lines, with the ``# `` comment prefix taken off."""
    text = README.read_text(encoding="utf-8").split("\n## Quick start\n")[1]
    block = re.search(r"^```sh\n(.*?)^```", text, re.MULTILINE | re.DOTALL).group(1)
    runs: dict[str, tuple[list[str], list[str]]] = {}
    argv: list[str] = []
    for line in block.splitlines():
        if line.startswith("aspectminer "):
            argv = shlex.split(line.partition("|")[0])[1:]
            runs[argv[0]] = (argv, [])
        elif line.startswith("# ") and argv:
            runs[argv[0]][1].append(line[2:])
        else:
            argv = []
    return runs


@pytest.mark.parametrize("command", ["extract", "evaluate"])
def test_quick_start_output_is_what_the_command_prints(sample_dir, capsys, command):
    argv, shown = quick_start_runs()[command]
    assert len(shown) >= 3
    argv = [arg.replace("$SAMPLE", str(sample_dir)) for arg in argv]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()[: len(shown)]
    assert [line.split() for line in printed] == [line.split() for line in shown]


def test_cli_conventions_name_each_config_key_not_spelled_like_its_flag():
    text = README.read_text(encoding="utf-8").split("\n## CLI conventions\n")[1]
    text = text.split("\n## ")[0]
    flags = {a.dest: a.option_strings[:1] for a in cli.build_parser()._actions}
    renamed = {key for key in cli._FIELD_TYPES if flags[key] != ["--" + key]}
    assert {"top_k", "enable_fallback_search", "enable_conjunction_expand"} <= renamed
    for key in renamed:
        assert f"`{key}`" in text

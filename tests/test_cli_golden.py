"""CLI golden test: twenty-two sample runs frozen byte-for-byte.

Each case runs ``python -m aspectminer`` in a directory holding copies
of the bundled sample files, and compares its exit code, stdout and
stderr with ``tests/golden/cli/<case>.txt``.  ``evaluate-baseline``
compares against ``tests/golden/cli/baseline-report.tsv``, the machine
report of the pretagged sample.  ``tests/golden/cli/help.txt`` is the
``--help`` text at an 80-column terminal.

Regenerate (only after an intentional behavior change) with:

    PYTHONPATH=src python tests/test_cli_golden.py
    COLUMNS=80 PYTHONPATH=src python -m aspectminer --help > tests/golden/cli/help.txt
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import aspectminer
from aspectminer.cli import EXIT_OK, main
from aspectminer.pipeline import DATA_ENV_VAR, data_dir

GOLDEN_DIR = Path(__file__).parent / "golden" / "cli"
BASELINE = "baseline-report.tsv"
SAMPLE_FILES = (
    "reviews.txt",
    "reviews-pretagged.txt",
    "minieval.txt",
    "minieval-pretagged.txt",
)

R, RP = "reviews.txt", "reviews-pretagged.txt"
M, MP = "minieval.txt", "minieval-pretagged.txt"

CASES = {
    "extract-pretagged": ["extract", "--pretagged", RP],
    "extract-pretagged-machine": ["extract", "--pretagged", RP, "--format", "machine"],
    "extract-raw": ["extract", "--corpus", R],
    "extract-two-raw-machine": ["extract", "--corpus", R, "--corpus", M, "--format", "machine"],
    "extract-two-pretagged-machine": [
        "extract", "--pretagged", RP, "--pretagged", MP, "--format", "machine",
    ],
    "extract-aligned-no-fallback-no-conjunction": [
        "extract", "--corpus", M, "--pretagged", MP, "--no-fallback", "--no-conjunction",
    ],
    "evaluate-raw": ["evaluate", "--corpus", M],
    "evaluate-aligned-machine": ["evaluate", "--corpus", M, "--pretagged", MP, "--format", "machine"],
    "evaluate-two-aligned": [
        "evaluate", "--corpus", M, "--corpus", R, "--pretagged", MP, "--pretagged", RP,
    ],
    "evaluate-two-aligned-no-fallback-no-conjunction": [
        "evaluate", "--corpus", M, "--corpus", R, "--pretagged", MP, "--pretagged", RP,
        "--no-fallback", "--no-conjunction",
    ],
    "evaluate-baseline": ["evaluate", "--corpus", M, "--corpus", R, "--baseline", BASELINE],
    "summarize-pretagged-text": ["summarize", "--pretagged", RP],
    "summarize-pretagged-machine": ["summarize", "--pretagged", RP, "--format", "machine"],
    "summarize-aligned-no-fallback-no-conjunction": [
        "summarize", "--corpus", R, "--pretagged", RP, "--format", "machine",
        "--no-fallback", "--no-conjunction",
    ],
    "summarize-pretagged-histogram": [
        "summarize", "--pretagged", RP, "--product", "mp3 player", "--format", "histogram",
    ],
    "summarize-raw-text": ["summarize", "--corpus", R],
    "summarize-two-raw-machine": [
        "summarize", "--corpus", R, "--corpus", M, "--format", "machine", "--top-k", "1",
    ],
    "summarize-two-pretagged-histogram": [
        "summarize", "--pretagged", RP, "--pretagged", MP, "--format", "histogram",
    ],
    "mine-pretagged": ["mine", "--pretagged", RP],
    "mine-two-raw-machine": [
        "mine", "--corpus", R, "--corpus", M, "--format", "machine",
        "--min-support", "3", "--max-len", "4",
    ],
    "tag-raw": ["tag", "--corpus", R],
    "tag-two-raw": ["tag", "--corpus", R, "--corpus", M],
}


def stage(workdir: Path) -> None:
    """Copy the sample files and the baseline report into ``workdir``."""
    for name in SAMPLE_FILES:
        shutil.copyfile(data_dir() / "sample" / name, workdir / name)
    shutil.copyfile(GOLDEN_DIR / BASELINE, workdir / BASELINE)


def record(argv: list[str], workdir: Path) -> str:
    """Exit code, stdout and stderr of one run, as one text record."""
    env = dict(os.environ)
    env.pop(DATA_ENV_VAR, None)
    package_root = str(Path(aspectminer.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "aspectminer", *argv],
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    return (
        f"$ aspectminer {shlex.join(argv)}\n"
        f"exit {proc.returncode}\n"
        f"--- stdout\n{proc.stdout}"
        f"--- stderr\n{proc.stderr}"
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-golden")
    stage(path)
    return path


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_run_matches_golden(case, workdir):
    golden = (GOLDEN_DIR / f"{case}.txt").read_text(encoding="utf-8")
    assert record(CASES[case], workdir) == golden


def test_help_matches_golden(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == EXIT_OK
    golden = (GOLDEN_DIR / "help.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_every_golden_file_has_a_case():
    names = {p.stem for p in GOLDEN_DIR.glob("*.txt")}
    assert names == set(CASES) | {"help"}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        stage(Path(tmp))
        for case, argv in CASES.items():
            text = record(argv, Path(tmp))
            (GOLDEN_DIR / f"{case}.txt").write_text(text, encoding="utf-8")

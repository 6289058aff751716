"""Every call point the bench tracer patches exists in the package.

``bench/worker.py``'s ``trace_points`` names ``(module, attribute)``
pairs that ``Tracer.install`` reads with ``getattr`` and replaces; a
name dropped or renamed in the package would otherwise show only as a
crash in a traced bench run.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import aspectminer.cli
import aspectminer.corpus
import aspectminer.evaluation
import aspectminer.pipeline
import aspectminer.summary

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def worker():
    sys.path.insert(0, str(BENCH))  # the worker imports its sibling speed.py
    try:
        spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


@pytest.mark.parametrize("cli", [aspectminer.cli, None], ids=["cli", "no-cli"])
def test_every_trace_point_is_a_callable(worker, cli):
    am = SimpleNamespace(
        corpus=aspectminer.corpus,
        evaluation=aspectminer.evaluation,
        pipeline=aspectminer.pipeline,
        summary=aspectminer.summary,
        cli=cli,
    )
    points = worker.trace_points(am)
    assert any(module is aspectminer.pipeline for module, *_ in points)
    assert any(module is aspectminer.cli for module, *_ in points) == (cli is not None)
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in points
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []

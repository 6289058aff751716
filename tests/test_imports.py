"""The evaluation stage loads on first use.

``import aspectminer.pipeline`` does not import ``aspectminer.evaluation``,
and the summarize path never does: ``pipeline.evaluate_corpus`` imports
it on its first call, and the three evaluation names ``pipeline`` used
to import (``evaluate_extraction_detailed``, ``ExtractionScores``,
``ExtractionBreakdown``) import it on first access.  Each check reads
one fresh interpreter, since the test process has loaded everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aspectminer

EVALUATION = "aspectminer.evaluation"
NAMES = ("evaluate_extraction_detailed", "ExtractionScores", "ExtractionBreakdown")
COLUMNS = ("aspect_p", "aspect_r", "aspect_f", "opinion_p", "opinion_r", "opinion_f")

PROBE = f"""
import json, sys
import aspectminer, aspectminer.pipeline as pipeline
seen = {{"after_import": {EVALUATION!r} in sys.modules}}
from aspectminer.corpus import load_corpus
from aspectminer.summary import render
sample = pipeline.data_dir() / "sample"
res = pipeline.load_resources()
corpus = load_corpus(sample / "minieval.txt", "minieval")
tagged = pipeline.load_pretagged_file(sample / "minieval-pretagged.txt", corpus)
pairs = pipeline.extract_corpus(tagged, res)
summary, _, _ = pipeline.summarize_corpus(tagged, res, product_name="minieval", pairs=pairs)
render(summary, "text")
seen["after_summarize"] = {EVALUATION!r} in sys.modules
scores, _ = pipeline.evaluate_corpus(corpus, pairs)
seen["after_evaluate"] = {EVALUATION!r} in sys.modules
seen["scores"] = ["%.3f" % getattr(scores, c) for c in {COLUMNS!r}]
evaluation = sys.modules[{EVALUATION!r}]
seen["same"] = [getattr(pipeline, n, None) is getattr(evaluation, n) for n in {NAMES!r}]
try:
    pipeline.no_such_name
except AttributeError as exc:
    seen["error"] = str(exc)
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def seen():
    src = str(Path(aspectminer.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        encoding="utf-8",
        check=True,
    )
    return json.loads(run.stdout)


def test_import_and_summarize_leave_evaluation_unloaded(seen):
    assert seen["after_import"] is False
    assert seen["after_summarize"] is False


def test_evaluate_corpus_loads_evaluation_and_gives_the_readme_figures(seen):
    assert seen["after_evaluate"] is True
    # README: "minieval  0.944  0.810  0.872  0.889  0.762  0.821"
    assert seen["scores"] == ["0.944", "0.810", "0.872", "0.889", "0.762", "0.821"]


def test_pipeline_names_are_evaluations_own_objects(seen):
    assert seen["same"] == [True, True, True]


def test_unknown_pipeline_name_raises_attribute_error_naming_the_module(seen):
    assert seen["error"] == "module 'aspectminer.pipeline' has no attribute 'no_such_name'"

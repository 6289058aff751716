"""Each run path extracts every tagged corpus once: the pairs from one
``extract_corpus`` call feed both the summary and the evaluation."""

import importlib.util
from pathlib import Path

import pytest

from aspectminer import pipeline
from aspectminer.cli import EXIT_OK, main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"


@pytest.fixture()
def extractions(monkeypatch):
    """The sentence count of each ``extract_sentences`` call, in order."""
    calls = []
    real = pipeline.extract_sentences

    def counted(tagged, *args, **kwargs):
        calls.append(len(tagged))
        return real(tagged, *args, **kwargs)

    monkeypatch.setattr(pipeline, "extract_sentences", counted)
    return calls


def test_output_digest_extracts_each_tagged_product_once(
    extractions, resources, sample_corpus, sample_tagged
):
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    output_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(output_digest)
    output_digest.run_lines(sample_corpus, sample_tagged, resources)
    assert extractions == [len(sample_tagged)]


def test_summarize_extracts_once(extractions, sample_dir, sample_tagged, capsys):
    argv = ["summarize", "--pretagged", str(sample_dir / "reviews-pretagged.txt")]
    assert main(argv) == EXIT_OK
    assert extractions == [len(sample_tagged)]


def test_evaluate_extracts_each_corpus_once(
    extractions, sample_dir, minieval_tagged, sample_tagged, capsys
):
    argv = ["evaluate"]
    for stem in ("minieval", "reviews"):
        argv += ["--corpus", str(sample_dir / f"{stem}.txt")]
        argv += ["--pretagged", str(sample_dir / f"{stem}-pretagged.txt")]
    assert main(argv) == EXIT_OK
    assert extractions == [len(minieval_tagged), len(sample_tagged)]


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "--pretagged", "reviews-pretagged.txt"],
        ["summarize", "--pretagged", "reviews-pretagged.txt"],
        ["evaluate", "--corpus", "minieval.txt", "--pretagged", "minieval-pretagged.txt"],
    ],
)
def test_cli_extracts_through_the_pipeline_module(monkeypatch, sample_dir, capsys, argv):
    # a wrapper put on pipeline.extract_corpus, as the bench tracer puts
    # one, sees the one extraction the CLI runs
    seen = []
    real = pipeline.extract_corpus

    def counted(tagged, *args, **kwargs):
        pairs = real(tagged, *args, **kwargs)
        seen.append(len(pairs))
        return pairs

    monkeypatch.setattr(pipeline, "extract_corpus", counted)
    argv = [argv[0], *(a if a.startswith("--") else str(sample_dir / a) for a in argv[1:])]
    assert main(argv) == EXIT_OK
    assert len(seen) == 1 and seen[0] > 0

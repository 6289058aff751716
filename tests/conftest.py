import pytest

from aspectminer.corpus import load_corpus
from aspectminer.pipeline import Resources, data_dir, load_pretagged_file, load_resources


@pytest.fixture(scope="session")
def resources() -> Resources:
    return load_resources()


@pytest.fixture(scope="session")
def sample_dir():
    return data_dir() / "sample"


@pytest.fixture(scope="session")
def sample_corpus(sample_dir):
    return load_corpus(sample_dir / "reviews.txt", "mp3 player")


@pytest.fixture(scope="session")
def sample_tagged(sample_dir, sample_corpus):
    return load_pretagged_file(sample_dir / "reviews-pretagged.txt", sample_corpus)


@pytest.fixture(scope="session")
def minieval_corpus(sample_dir):
    return load_corpus(sample_dir / "minieval.txt", "camera x100")


@pytest.fixture(scope="session")
def minieval_tagged(sample_dir, minieval_corpus):
    return load_pretagged_file(sample_dir / "minieval-pretagged.txt", minieval_corpus)

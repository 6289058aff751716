"""scripts/output_digest.py digests the shipped sample as it did before
extraction, scoring and tagging began to resolve each distinct word once."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"

# Pretagged then baseline-tagged: pairs, scores, three renders, evaluation.
RECORDED = {
    "reviews": ("mp3 player", "a82342ca005c29c0445173b61d72bfd8"),
    "minieval": ("camera x100", "9f511129e7db0ef356be8dc1ac46dc5d"),
}


@pytest.fixture(scope="module")
def output_digest():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("stem", sorted(RECORDED))
def test_sample_digest_is_unchanged(output_digest, resources, sample_dir, stem):
    name, digest = RECORDED[stem]
    got, _, _ = output_digest.product_digest(
        sample_dir / f"{stem}.txt", sample_dir / f"{stem}-pretagged.txt", resources, name
    )
    assert got == digest

"""Metamorphic relations over the whole pipeline: how the output must
change when the input changes in a known way, with no second
implementation to compare it with.

Swapping the seed lists (``--pos-lex`` and ``--neg-lex``, which the CLI
hands to ``load_resources``) flips each pair's orientation and changes
nothing else.  So each summary group keeps its label and its place, and
its positive and negative counts swap, as do its pros and cons lists
and the overall totals.  Counts and lists are compared, not
percentages: ``summary._percentages`` rounds the positive share half
up, so 1 of 8 positive gives 13/87 but 7 of 8 gives 88/12.  The
relation runs on both shipped samples, pretagged and baseline-tagged,
under every fallback and conjunction setting.
"""

from dataclasses import replace

import pytest

from aspectminer.lexicons import NEGATIVE, POSITIVE
from aspectminer.pipeline import (
    DEFAULT_FILES,
    data_dir,
    extract_corpus,
    load_resources,
    summarize_corpus,
    tag_corpus,
)

FLIP = {POSITIVE: NEGATIVE, NEGATIVE: POSITIVE}


@pytest.fixture(scope="module")
def swapped():
    """The bundled resources with the positive and negative seed lists swapped."""
    data = data_dir()
    return load_resources(
        pos_lex=data / DEFAULT_FILES["neg_lex"], neg_lex=data / DEFAULT_FILES["pos_lex"]
    )


@pytest.fixture(scope="module")
def samples(resources, sample_corpus, sample_tagged, minieval_corpus, minieval_tagged):
    tagger = resources.tagger()
    return {
        "reviews-pretagged": sample_tagged,
        "reviews-tagged": tag_corpus(sample_corpus, tagger),
        "minieval-pretagged": minieval_tagged,
        "minieval-tagged": tag_corpus(minieval_corpus, tagger),
    }


@pytest.mark.parametrize("conjunction", [True, False], ids=["conjunction", "no-conjunction"])
@pytest.mark.parametrize("fallback", [True, False], ids=["fallback", "no-fallback"])
@pytest.mark.parametrize(
    "sample", ["reviews-pretagged", "reviews-tagged", "minieval-pretagged", "minieval-tagged"]
)
def test_swapping_the_seed_lists_flips_each_orientation_and_nothing_else(
    sample, fallback, conjunction, samples, resources, swapped
):
    tagged = samples[sample]
    pairs = extract_corpus(tagged, resources, fallback=fallback, conjunction=conjunction)
    flipped = extract_corpus(tagged, swapped, fallback=fallback, conjunction=conjunction)
    assert {p.orientation for p in pairs} == {POSITIVE, NEGATIVE}
    assert flipped == [replace(p, orientation=FLIP[p.orientation]) for p in pairs]

    summary = summarize_corpus(tagged, resources, pairs=pairs)[0]
    mirrored = summarize_corpus(tagged, swapped, pairs=flipped)[0]
    assert (mirrored.positive_total, mirrored.negative_total) == (
        summary.negative_total, summary.positive_total
    )
    assert mirrored.groups == tuple(
        replace(
            g, positive_count=g.negative_count, negative_count=g.positive_count,
            pros=g.cons, cons=g.pros,
        )
        for g in summary.groups
    )

"""Guards that the per-product hot path stays linear in its input.

Each time budget is several times the cost of the linear code (a few
tenths of a second at these sizes) and far below that of the
whole-collection rescans it replaced (about 9 s for grouping, 55 s
for evaluation and 60 s for mining's pairwise candidate join on a
2-vCPU VM), so a return to quadratic cost fails
while machine noise does not.  Extraction is held to a ratio instead:
patterns that cannot start anywhere in the input must cost next to
nothing (0.7x with the first-tag index, 8.5x with one scan per pattern).
"""

import random
import time
from dataclasses import replace

from aspectminer.corpus import parse_corpus_file
from aspectminer.evaluation import evaluate_extraction_detailed
from aspectminer.grouping import group_aspects
from aspectminer.lexicons import AspectDictionary
from aspectminer.patterns import (
    AspectOpinionPair,
    PatternSet,
    TagPattern,
    mine_frequent_tag_sets,
)
from aspectminer.pipeline import extract_corpus, load_pretagged_file
from aspectminer.tagger import PENN_TAGS, TaggedSentence


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def test_evaluation_of_10k_sentences(resources, sample_dir, tmp_path):
    copies = 400  # 25 sentences each
    text = (sample_dir / "minieval.txt").read_text(encoding="utf-8")
    corpus = parse_corpus_file(text * copies, "minieval")
    pretagged = tmp_path / "minieval-pretagged.txt"
    pretagged.write_text(
        (sample_dir / "minieval-pretagged.txt").read_text(encoding="utf-8") * copies,
        encoding="utf-8",
    )
    pairs = extract_corpus(load_pretagged_file(pretagged, corpus), resources)
    assert len(corpus.sentences) == 10_000

    breakdown, elapsed = timed(evaluate_extraction_detailed, pairs, corpus)

    assert breakdown.n_gold_aspects == 21 * copies
    assert elapsed < 2.0


def test_grouping_of_8k_distinct_surfaces():
    pairs = [
        AspectOpinionPair(
            aspect_surface=f"part{i} cover",
            opinion_surface="good",
            orientation="positive",
            sentence=TaggedSentence(position=i),
            aspect_index=0,
            opinion_index=2,
            pattern_name="test",
            aspect_end=1,
        )
        for i in range(8_000)
    ]

    groups, elapsed = timed(group_aspects, pairs, AspectDictionary())

    assert len(groups) == 8_000
    assert elapsed < 1.0


class CountingDict(dict):
    """A dict that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_match_at_never_iterates_the_dictionary():
    entries = CountingDict(
        {"battery": "battery", "battery life": "battery life", "sound": "sound"}
    )
    d = AspectDictionary(entries=entries)
    words = "the battery life and the sound are great".split()
    entries.iterations = 0

    hits = [d.match_at(words, i % len(words)) for i in range(1_000)]

    assert entries.iterations == 0
    assert hits[1] == (2, "battery life")
    assert hits[5] == (1, "sound")


def test_extraction_cost_ignores_unmatched_patterns(resources, sample_tagged):
    sentences = (sample_tagged * 67)[:2_000]
    present = {tag for sentence in sentences for tag in sentence.tags}
    absent = sorted(PENN_TAGS - present)
    extra = [
        TagPattern(tags=(first, middle, "JJ"), opinion_offset=2)
        for first in absent
        for middle in sorted(PENN_TAGS)
    ][:200]
    assert len(extra) == 200
    bundled = resources.pattern_set
    widened = replace(
        resources, pattern_set=PatternSet(patterns=bundled.patterns + tuple(extra))
    )

    def best_of_3(res):
        return min(timed(extract_corpus, sentences, res)[1] for _ in range(3))

    assert extract_corpus(sentences, widened) == extract_corpus(sentences, resources)
    assert best_of_3(widened) < 2 * best_of_3(resources)


def test_mining_of_8k_random_sentences():
    rng = random.Random(8000)
    alphabet = sorted(PENN_TAGS)
    tagged = [
        TaggedSentence(
            surfaces=tuple(f"w{i}" for i in range(12)),
            tags=tuple(rng.choice(alphabet) for _ in range(12)),
            position=position,
        )
        for position in range(8_000)
    ]

    mined, elapsed = timed(mine_frequent_tag_sets, tagged, 2)

    assert mined and all(m.support >= 2 for m in mined)
    assert elapsed < 3.0

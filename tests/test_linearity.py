"""Guards that the per-product hot path stays linear in its input.

Each time budget is several times the cost of the linear code (a few
tenths of a second at these sizes) and far below that of the
whole-collection rescans it replaced (about 9 s for grouping, 55 s
for evaluation and 60 s for mining's pairwise candidate join on a
2-vCPU VM, where gathering a 16,000-surface group's members by list
membership takes 3 s), so a return to quadratic cost fails
while machine noise does not.  Extraction is held to a ratio instead:
patterns that cannot start anywhere in the input must cost next to
nothing (0.7x with the first-tag index, 8.5x with one scan per pattern).
Per-word work is held to counts: the dictionary is not probed at a word
that starts no entry, nor is the nearest-aspect search's window probe
called there, the tagger's rules and the verb base forms run
once per distinct word, and evaluation compares each (sentence,
predicted term, gold term) at most once.  Evaluation's memory is held
to bytes per corpus sentence: it keeps the predicted terms of the
sentences that have some and one sentence's gold at a time, about
180 B per minieval sentence on Python 3.11, where a table for every
sentence of the corpus took 485 B.  Per-group work is held to a
count: the summary ranks no pros or cons list of fewer than two
sentences.  Per-process work is held to counts too: repeated
``cli.main`` calls build the parser once, and parse an unchanged
resource file once while reading it on every call.
"""

import argparse
import random
import time
import tracemalloc
from dataclasses import replace

from aspectminer import cli, errors, evaluation, lexicons, patterns, scoring, summary, tagger
from aspectminer.corpus import parse_corpus_file
from aspectminer.evaluation import evaluate_extraction_detailed
from aspectminer.grouping import group_aspects
from aspectminer.lexicons import AspectDictionary, VerbCategoryLexicon
from aspectminer.patterns import (
    AspectOpinionPair,
    PatternSet,
    TagPattern,
    _longest_entry_at,
    _nearest_aspect,
    mine_frequent_tag_sets,
)
from aspectminer.pipeline import (
    DEFAULT_FILES,
    data_dir,
    extract_corpus,
    load_pretagged_file,
    tag_corpus,
)
from aspectminer.scoring import score_sentences
from aspectminer.summary import FORMATS, generate_summary, render
from aspectminer.tagger import (
    PENN_TAGS,
    VERB_TAGS,
    BaselineTagger,
    TaggedSentence,
    base_form_candidates,
)


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def minieval_copies(copies, resources, sample_dir, tmp_path):
    """The evaluation sample repeated, and the pairs extracted from it."""
    text = (sample_dir / "minieval.txt").read_text(encoding="utf-8")
    corpus = parse_corpus_file(text * copies, "minieval")
    pretagged = tmp_path / "minieval-pretagged.txt"
    pretagged.write_text(
        (sample_dir / "minieval-pretagged.txt").read_text(encoding="utf-8") * copies,
        encoding="utf-8",
    )
    return corpus, extract_corpus(load_pretagged_file(pretagged, corpus), resources)


def test_evaluation_of_10k_sentences(resources, sample_dir, tmp_path):
    copies = 400  # 25 sentences each
    corpus, pairs = minieval_copies(copies, resources, sample_dir, tmp_path)
    assert len(corpus.sentences) == 10_000

    breakdown, elapsed = timed(evaluate_extraction_detailed, pairs, corpus)

    assert breakdown.n_gold_aspects == 21 * copies
    assert elapsed < 2.0


def test_evaluation_compares_each_sentence_term_pair_at_most_once(
    resources, sample_dir, tmp_path, monkeypatch
):
    copies = 400
    corpus, pairs = minieval_copies(copies, resources, sample_dir, tmp_path)
    calls = []
    subset = evaluation._terms_match

    def counted(*args):
        calls.append(args)
        return subset(*args)

    monkeypatch.setattr(evaluation, "_terms_match", counted)

    evaluate_extraction_detailed(pairs, corpus)

    predicted_terms = {}
    for pair in pairs:
        key = id(pair.sentence.source)
        predicted_terms.setdefault(key, set()).add(pair.aspect_surface.lower())
    gold_terms = {id(s): {a.aspect_term.lower() for a in s.gold} for s in corpus.sentences}
    distinct = sum(
        len(terms) * len(gold_terms[key]) for key, terms in predicted_terms.items()
    )
    assert distinct >= 18 * copies
    assert 0 < len(calls) <= distinct


def test_evaluation_holds_less_than_300_bytes_per_sentence(resources, sample_dir, tmp_path):
    corpus, pairs = minieval_copies(400, resources, sample_dir, tmp_path)
    tracemalloc.start()
    try:
        evaluate_extraction_detailed(pairs, corpus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert peak / len(corpus.sentences) < 300


def distinct_surface_pairs(n):
    """One positive pair per sentence, each on its own aspect surface."""
    return [
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
        for i in range(n)
    ]


def test_grouping_of_8k_distinct_surfaces():
    pairs = distinct_surface_pairs(8_000)

    groups, elapsed = timed(group_aspects, pairs, AspectDictionary())

    assert len(groups) == 8_000
    assert elapsed < 1.0


def test_grouping_of_a_16k_surface_cluster():
    # Every surface shares the head key "common", half of them are
    # dictionary terms, and each is paired twice: one group whose label
    # costs one pass over the cluster.
    surfaces = [f"common z{i}" for i in range(16_000)]
    entries = {surface: surface for surface in surfaces[1::2]}
    pairs = [
        AspectOpinionPair(surface, "good", "positive", TaggedSentence(position=i), 0, 2, "test", 1)
        for i, surface in enumerate(surfaces + surfaces)
    ]

    groups, elapsed = timed(group_aspects, pairs, AspectDictionary(entries=entries))

    assert len(groups) == 1
    assert len({p.aspect_surface for p in groups[0].pairs}) == 16_000
    assert len(groups[0].pairs) == 32_000
    assert groups[0].canonical_label == "common z1"
    assert elapsed < 1.0


def test_summary_of_8k_one_member_groups_ranks_nothing(monkeypatch):
    pairs = distinct_surface_pairs(8_000)
    groups = group_aspects(pairs, AspectDictionary())
    scores = score_sentences([p.sentence for p in pairs], VerbCategoryLexicon())
    calls = []
    rank = summary.rank_sentences
    monkeypatch.setattr(
        summary, "rank_sentences", lambda *args: calls.append(args) or rank(*args)
    )

    def summarize_and_render():
        result = generate_summary(groups, scores, 3)
        return [render(result, fmt) for fmt in FORMATS]

    outputs, elapsed = timed(summarize_and_render)

    assert len(groups) == 8_000
    assert outputs[1].count("\nsentence\t") == 8_000
    assert calls == []
    assert elapsed < 1.0


class CountingDict(dict):
    """A dict that counts how often it is iterated and probed with get."""

    iterations = 0
    gets = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


def test_longest_entry_at_never_iterates_the_dictionary():
    entries = CountingDict(
        {"battery": "battery", "battery life": "battery life", "sound": "sound"}
    )
    d = AspectDictionary(entries=entries)
    words = "the battery life and the sound are great".split()
    limits = [d.widest.get(word, 0) for word in words]
    entries.iterations = 0

    hits = [
        _longest_entry_at(words, i % len(words), limits[i % len(words)], d.entries.get)
        for i in range(1_000)
    ]

    assert entries.iterations == 0
    assert hits[1] == (2, "battery life")
    assert hits[5] == (1, "sound")


def test_longest_entry_at_skips_positions_whose_word_starts_no_entry():
    entries = CountingDict(
        {"a b c d e f": "a b c d e f", "battery": "battery", "sound": "sound"}
    )
    d = AspectDictionary(entries=entries)
    words = "the price is right and the screen is great".split()
    # no noun, so that the nearest-aspect search walks every word
    tags = ("DT",) * (len(words) - 1) + ("JJ",)

    assert _nearest_aspect(tags, words, len(words) - 1, d.entries.get, d.widest.get) is None
    assert entries.gets == 0


def test_nearest_aspect_probes_only_words_that_start_an_entry(
    resources, sample_tagged, minieval_tagged, monkeypatch
):
    probed = []

    def counted(words_lower, start, limit, entry):
        probed.append((words_lower[start], limit))
        return _longest_entry_at(words_lower, start, limit, entry)

    monkeypatch.setattr(patterns, "_longest_entry_at", counted)
    # a term the samples never tag as a noun, where the probe must still find it
    mistagged = TaggedSentence(
        surfaces=("the", "flash", "is", "great"), tags=("DT", "VB", "VBZ", "JJ"), position=0
    )
    sentences = sample_tagged + minieval_tagged + [mistagged]
    empty = replace(resources, aspect_dictionary=AspectDictionary(entries={}))

    assert extract_corpus(sentences, empty)
    assert probed == []

    pairs = extract_corpus(sentences, resources)
    assert ("flash", "great") in {(p.aspect_surface, p.opinion_surface) for p in pairs}
    widest = resources.aspect_dictionary.widest
    assert ("flash", widest["flash"]) in probed
    assert all(limit == widest.get(word) for word, limit in probed)


class CountingTagger(BaselineTagger):
    calls = 0

    def tag_word(self, word, index):
        self.calls += 1
        return super().tag_word(word, index)


def test_tagging_applies_the_rules_once_per_distinct_word_and_position(
    resources, sample_corpus
):
    corpus = replace(sample_corpus, sentences=sample_corpus.sentences * 400)
    tagger = CountingTagger(resources.tag_lexicon)

    tagged = tag_corpus(corpus, tagger)

    distinct = {(w, i > 0) for s in tagged for i, w in enumerate(s.surfaces)}
    assert sum(len(s.surfaces) for s in tagged) > 100 * len(distinct)
    assert tagger.calls <= len(distinct)


def test_scoring_reduces_each_verb_surface_once(resources, sample_corpus, monkeypatch):
    corpus = replace(sample_corpus, sentences=sample_corpus.sentences * 400)
    tagged = tag_corpus(corpus, resources.tagger())
    calls = []

    def counted(word):
        calls.append(word)
        return base_form_candidates(word)

    # counted in whichever module turns verb surfaces into base forms
    for module in (lexicons, scoring):
        if hasattr(module, "base_form_candidates"):
            monkeypatch.setattr(module, "base_form_candidates", counted)
    verbs = VerbCategoryLexicon(orientations=resources.verb_categories.orientations)

    score_sentences(tagged, verbs)

    verb_surfaces = {
        w for s in tagged for w, tag in zip(s.surfaces, s.tags) if tag in VERB_TAGS
    }
    assert verb_surfaces
    assert len(calls) == len(verb_surfaces)


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


def test_cli_builds_its_parser_once_per_process(sample_dir, monkeypatch, capsys):
    calls = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        calls.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    argv = ["summarize", "--pretagged", str(sample_dir / "reviews-pretagged.txt")]

    codes = [cli.main(argv) for _ in range(3)]

    assert codes == [0, 0, 0]
    assert len(calls) <= 1


def test_cli_parses_an_unchanged_tag_lexicon_once(sample_dir, monkeypatch, capsys):
    parses, reads = [], []
    parse, read = tagger._parse_tag_lexicon, errors.read_text
    monkeypatch.setattr(
        tagger, "_parse_tag_lexicon", lambda *args: parses.append(args) or parse(*args)
    )
    monkeypatch.setattr(errors, "read_text", lambda path: reads.append(path) or read(path))
    lexicon = str(data_dir() / DEFAULT_FILES["tag_lexicon"])
    argv = ["evaluate", "--corpus", str(sample_dir / "minieval.txt"), "--format", "machine"]

    codes = [cli.main(argv) for _ in range(4)]

    assert codes == [0] * 4
    assert capsys.readouterr().out.count("\naverage\t") == 4
    assert len(parses) == 1
    assert [str(path) for path in reads].count(lexicon) == 4

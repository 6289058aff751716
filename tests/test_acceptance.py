"""Acceptance gate: one test per shipped criterion, named so that
``pytest tests/test_acceptance.py -v`` prints one pass/fail line each.
The criteria are fixture phrases, a reference weight, statistical
reference values, oracle equivalences, the property suite's example
budget, determinism, the comparison table and a 2,500-sentence time
budget.

Every stated tolerance is asserted at exactly its stated width.  One
criterion is recorded as a strict xfail because a rounded figure in the
reference comparison table is arithmetically inconsistent with its own
precision/recall at the stated tolerance (see test 3b); the recomputed
value is asserted alongside, and the mismatch detector is required to
flag the inconsistent row.
"""

import ast
import random
import time
from pathlib import Path

import pytest

from aspectminer.cli import EXIT_OK, main
from aspectminer.evaluation import (
    EvalReport,
    ExtractionScores,
    check_f_consistency,
    evaluate_extraction_detailed,
    f_measure,
    paired_t_test,
)
from aspectminer.patterns import extract_with_options, mine_frequent_tag_sets
from aspectminer.pipeline import extract_corpus
from aspectminer.scoring import weight_sentence
from aspectminer.tagger import TaggedSentence, parse_pretagged


def _ok(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion:02d}: PASS — {message}")


# --- 1. pattern fixture suite -------------------------------------------

# Each phrase carries the exact tag sequence its pattern targets; the
# two patterns whose
# aspect lives outside the matched window ("looks nice", "great
# looking") add the minimal neighboring noun that the pattern table's
# nearest-noun rule needs to name an aspect at all.
PATTERN_FIXTURES = [
    ("software/NN is/VBZ absolutely/RB terrible/JJ", "software", "terrible", "negative"),
    ("pictures/NNS are/VBP razor-sharp/JJ", "pictures", "razor-sharp", "positive"),
    ("earpiece/NN is/VBZ very/RB comfortable/JJ", "earpiece", "comfortable", "positive"),
    ("sound/NN is/VBZ wonderful/JJ", "sound", "wonderful", "positive"),
    ("transfers/NNS are/VBP fast/RB", "transfers", "fast", "positive"),
    ("player/NN looks/VBZ nice/JJ", "player", "nice", "positive"),
    ("superior/JJ piece/NN of/IN equipment/NN", "equipment", "superior", "positive"),
    ("decent/JJ size/NN and/CC weight/NN", "size", "decent", "positive"),
    ("very/RB confusing/JJ to/TO start/VB the/DT program/NN", "program", "confusing", "negative"),
    ("improved/VBD interface/NN", "interface", "improved", "positive"),
    ("great/JJ looking/VBG camera/NN", "camera", "great", "positive"),
]


def test_criterion_01_pattern_fixture_suite(resources):
    started = time.perf_counter()
    passed = 0
    for pretagged, aspect, opinion, orientation in PATTERN_FIXTURES:
        sentence = parse_pretagged(pretagged)
        pairs = extract_with_options(
            sentence, resources.aspect_dictionary,
            resources.opinion_lexicon, resources.pattern_set,
            fallback=False, conjunction=False,
        )
        assert len(pairs) == 1, f"{pretagged!r} yielded {len(pairs)} pairs"
        pair = pairs[0]
        assert pair.aspect_surface == aspect, pretagged
        assert pair.opinion_surface == opinion, pretagged
        assert pair.orientation == orientation, pretagged
        passed += 1
    elapsed = time.perf_counter() - started
    assert passed == 11
    assert elapsed < 1.0
    _ok(1, f"11/11 fixture phrases in {elapsed * 1000:.0f} ms")


# --- 2. reference sentence weight ---------------------------------------


def test_criterion_02_reference_sentence_weight(resources):
    sentence = parse_pretagged("earpiece/NN is/VBZ very/RB comfortable/JJ")
    score = weight_sentence(sentence, resources.verb_categories)
    assert score.total == 2
    _ok(2, "adverb+adjective reference sentence weighs exactly 2")


# --- 3. f-measure against the reference comparison table ----------------

REFERENCE_TABLE = [
    # product, aspect p/r/f, opinion p/r/f — as stated in the reference table
    ExtractionScores("baseline", 0.70, 0.79, 0.74, 0.64, 0.69, 0.65),
    ExtractionScores("proposed", 0.99, 0.64, 0.77, 0.56, 0.61, 0.60),
]


def test_criterion_03_f_measure_table_rows_and_mismatch_flag():
    assert f_measure(0.70, 0.79) == pytest.approx(0.74, abs=0.005)
    # The true harmonic mean behind the table's rounded 0.77 (see test 3b):
    assert f_measure(0.99, 0.64) == pytest.approx(0.7774233128834357, abs=1e-12)

    consistent_average = ExtractionScores("average", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    report = EvalReport(per_product=tuple(REFERENCE_TABLE), averages=consistent_average)
    flags = check_f_consistency(report)
    assert any(
        "proposed: opinion f-measure 0.600 differs from recomputed 0.584" in flag
        for flag in flags
    ), flags
    _ok(3, "f(0.70,0.79)=0.74±0.005; stated opinion f 0.60 vs 0.584 flagged")


@pytest.mark.xfail(
    strict=True,
    reason="the reference table's aspect f-measure 0.77 for p=0.99, r=0.64 "
    "is outside ±0.005 of the harmonic mean 0.7774; the stated value "
    "cannot be reproduced at the stated tolerance (recomputed value "
    "asserted above)",
)
def test_criterion_03b_stated_aspect_f_within_tolerance():
    assert f_measure(0.99, 0.64) == pytest.approx(0.77, abs=0.005)


# --- 4. mining equals brute force on random corpora ---------------------


def _brute_force_supports(sentences, min_support, max_len=6):
    counts = {}
    for tags in sentences:
        grams = set()
        for n in range(2, max_len + 1):
            for start in range(len(tags) - n + 1):
                grams.add(tuple(tags[start : start + n]))
        for gram in grams:
            counts[gram] = counts.get(gram, 0) + 1
    return {g: c for g, c in counts.items() if c >= min_support}


def test_criterion_04_mining_oracle_equivalence():
    alphabet = ["NN", "NNS", "JJ", "RB", "VBZ", "VBP", "DT", "IN"]
    rng = random.Random(424242)
    for trial in range(50):
        sentences = [
            [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
            for _ in range(rng.randint(1, 10))
        ]
        min_support = 1 + trial % 3
        corpus = [
            TaggedSentence(
                surfaces=("w",) * len(tags),
                tags=tuple(tags),
                position=pos,
            )
            for pos, tags in enumerate(sentences)
        ]
        mined = {m.tags: m.support for m in mine_frequent_tag_sets(corpus, min_support)}
        assert mined == _brute_force_supports(sentences, min_support), (
            f"trial {trial}, min_support {min_support}"
        )
    _ok(4, "50/50 random corpora: levelwise mining == exhaustive enumeration")


# --- 5. evaluation equals an independent matcher on the mini corpus -----


def _independent_fractions(pairs, corpus):
    def subset_match(a, b):
        wa, wb = set(a.split()), set(b.split())
        return wa <= wb or wb <= wa

    def normal(term):
        return " ".join(term.lower().split())

    predicted, gold = set(), set()
    for pair in pairs:
        predicted.add((id(pair.sentence.source), normal(pair.aspect_surface), pair.orientation))
    for sentence in corpus.sentences:
        for ann in sentence.gold:
            sign = "positive" if ann.strength > 0 else "negative"
            gold.add((id(sentence), normal(ann.aspect_term), sign))

    def hit(item, pool, with_sign):
        key, term, sign = item
        return any(
            key == k and subset_match(term, t) and (not with_sign or sign == s)
            for k, t, s in pool
        )

    aspect_pred = {(k, t) for k, t, _ in predicted}
    aspect_gold = {(k, t) for k, t, _ in gold}

    def aspect_hit(item, pool):
        key, term = item
        return any(key == k and subset_match(term, t) for k, t in pool)

    return (
        sum(aspect_hit(p, aspect_gold) for p in aspect_pred) / len(aspect_pred),
        sum(aspect_hit(g, aspect_pred) for g in aspect_gold) / len(aspect_gold),
        sum(hit(p, gold, True) for p in predicted) / len(predicted),
        sum(hit(g, predicted, True) for g in gold) / len(gold),
    )


def test_criterion_05_evaluation_oracle_equivalence(
    resources, minieval_corpus, minieval_tagged
):
    pairs = extract_corpus(minieval_tagged, resources)
    b = evaluate_extraction_detailed(pairs, minieval_corpus)
    ours = (b.aspect_p, b.aspect_r, b.opinion_p, b.opinion_r)
    oracle = _independent_fractions(pairs, minieval_corpus)
    assert ours == oracle
    _ok(5, "all four fractions equal the independent matcher exactly")


# --- 6. paired t-test reference value ------------------------------------


def test_criterion_06_paired_t_test_reference():
    result = paired_t_test([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
    assert result.degrees_of_freedom == 4
    assert result.t_statistic == pytest.approx(4.2426, abs=1e-3)
    assert result.p_value == pytest.approx(0.0132, abs=1e-3)
    _ok(6, "t=4.2426±1e-3, df=4, two-tailed p=0.0132±1e-3")


# --- 7. summarizer determinism -------------------------------------------


def test_criterion_07_summarize_determinism(tmp_path, sample_dir):
    pretagged = str(sample_dir / "reviews-pretagged.txt")
    for fmt in ("text", "machine", "histogram"):
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"{fmt}-{run}.out"
            code = main(
                ["summarize", "--pretagged", pretagged, "--format", fmt,
                 "--out", str(out)]
            )
            assert code == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{fmt} output differs between runs"
    _ok(7, "byte-identical output across repeated runs, all three formats")


# --- 8. property-test budget ---------------------------------------------


def test_criterion_08_property_suite_budget():
    source = (Path(__file__).parent / "test_properties.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    properties = 0
    budget = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        decorators = node.decorator_list
        if not any(
            isinstance(d, ast.Call) and getattr(d.func, "id", "") == "given"
            for d in decorators
        ):
            continue
        properties += 1
        examples = 100  # generator default when no explicit settings
        for d in decorators:
            if isinstance(d, ast.Call) and getattr(d.func, "id", "") == "settings":
                for kw in d.keywords:
                    if kw.arg == "max_examples":
                        examples = kw.value.value
        budget += examples
    assert properties >= 5
    assert budget >= 1000
    for family in (
        "orientation_always_matches_lexicon",  # pair polarity gate
        "groups_partition_the_pairs",
        "head_key_is_idempotent",
        "appending_weighted_tag_raises_score",  # scoring monotonicity
        "anti_monotonicity",
        "bounds_and_symmetry",  # f-measure
    ):
        assert family in source, family
    _ok(8, f"{properties} properties, {budget} generated cases configured")


# --- 9. computed metrics + table-shaped comparison (no tolerance) --------


def test_criterion_09_comparison_table_printed(tmp_path, sample_dir):
    # Reference numbers to compare against are read from a report file;
    # the comparison is rendered but its values are never asserted
    # against external reference averages.
    baseline = tmp_path / "baseline.tsv"
    baseline.write_text(
        "# product\taspect_p\taspect_r\taspect_f\topinion_p\topinion_r\topinion_f\n"
        "minieval\t0.700000\t0.790000\t0.742282\t0.640000\t0.690000\t0.664060\n"
        "average\t0.700000\t0.790000\t0.742282\t0.640000\t0.690000\t0.664060\n",
        encoding="utf-8",
    )
    out = tmp_path / "comparison.txt"
    code = main(
        [
            "evaluate",
            "--corpus", str(sample_dir / "minieval.txt"),
            "--pretagged", str(sample_dir / "minieval-pretagged.txt"),
            "--baseline", str(baseline),
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    text = out.read_text(encoding="utf-8")
    print(text)
    assert "minieval" in text
    assert "system" in text and "aspect" in text and "opinion" in text
    assert "precision" in text and "recall" in text
    assert "paired t-tests" in text  # skipped here: one product only
    _ok(9, "metrics computed on supplied corpus; comparison printed, no tolerance")


# --- 10. end-to-end performance ------------------------------------------


def test_criterion_10_summarize_2500_sentences_under_5s(tmp_path, sample_dir):
    lines = (sample_dir / "reviews-pretagged.txt").read_text(encoding="utf-8").splitlines()
    big = tmp_path / "big-pretagged.txt"
    big.write_text(
        "\n".join(lines[i % len(lines)] for i in range(2500)) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "big-summary.txt"
    started = time.perf_counter()
    code = main(["summarize", "--pretagged", str(big), "--format", "text",
                 "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert code == EXIT_OK
    assert out.read_text(encoding="utf-8").startswith("pros and cons:")
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _ok(10, f"2,500 pretagged sentences summarized in {elapsed:.2f}s (< 5s)")

"""Property-based invariants over extraction, grouping, scoring, mining,
metrics, and serialization round trips."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from aspectminer.evaluation import (
    ExtractionScores,
    f_measure,
    load_report,
    make_report,
    paired_t_test,
    render_report,
    student_t_sf,
)
from aspectminer.grouping import group_aspects, head_key
from aspectminer.lexicons import (
    AspectDictionary,
    OpinionLexicon,
    VerbCategoryLexicon,
)
from aspectminer.patterns import (
    AspectOpinionPair,
    extract_with_options,
    mine_frequent_tag_sets,
)
from aspectminer.scoring import TAG_WEIGHTS, weight_sentence
from aspectminer.summary import _percentages
from aspectminer.tagger import (
    TaggedSentence,
    parse_pretagged,
    render_pretagged,
)

WORD_POOL = [
    "player", "sound", "battery", "screen", "price", "size", "weight",
    "great", "nice", "poor", "awful", "fast", "slow", "big", "small",
    "works", "looks", "is", "are", "the", "a", "and", "very", "too",
]
TAG_POOL = ["DT", "NN", "NNS", "VBZ", "VBP", "JJ", "JJR", "RB", "CC", "IN", "PRP"]

tokens_strategy = st.lists(
    st.tuples(st.sampled_from(WORD_POOL), st.sampled_from(TAG_POOL)),
    min_size=0,
    max_size=12,
)


def build_sentence(pairs, position=0):
    return TaggedSentence(
        surfaces=tuple(w for w, _ in pairs),
        tags=tuple(t for _, t in pairs),
        position=position,
    )


lexicon_strategy = st.builds(
    lambda pos, neg: OpinionLexicon(
        positive=frozenset(pos) - frozenset(neg), negative=frozenset(neg)
    ),
    st.sets(st.sampled_from(WORD_POOL), max_size=8),
    st.sets(st.sampled_from(WORD_POOL), max_size=8),
)


def oracle_polarity(lexicon, word):
    """The seed-list class of ``word`` in any case, or None."""
    w = word.lower()
    if w in lexicon.positive:
        return "positive"
    if w in lexicon.negative:
        return "negative"
    return None


class TestExtractionProperties:
    @given(tokens_strategy, lexicon_strategy)
    @settings(max_examples=200)
    def test_orientation_always_matches_lexicon(self, resources, token_pairs, lexicon):
        sentence = build_sentence(token_pairs)
        pairs = extract_with_options(
            sentence, resources.aspect_dictionary, lexicon, resources.pattern_set
        )
        for pair in pairs:
            assert pair.orientation in ("positive", "negative")
            assert oracle_polarity(lexicon, pair.opinion_surface) == pair.orientation

    @given(tokens_strategy, lexicon_strategy)
    @settings(max_examples=200)
    def test_indices_are_valid_and_unique(self, resources, token_pairs, lexicon):
        sentence = build_sentence(token_pairs)
        pairs = extract_with_options(
            sentence, resources.aspect_dictionary, lexicon, resources.pattern_set
        )
        seen = set()
        for pair in pairs:
            assert 0 <= pair.aspect_index < len(sentence.surfaces)
            assert pair.aspect_index < pair.aspect_end <= len(sentence.surfaces)
            assert 0 <= pair.opinion_index < len(sentence.surfaces)
            key = (pair.aspect_index, pair.opinion_index)
            assert key not in seen
            seen.add(key)

    @given(tokens_strategy, lexicon_strategy)
    @settings(max_examples=100)
    def test_disabling_options_never_adds_pairs(self, resources, token_pairs, lexicon):
        sentence = build_sentence(token_pairs)

        def run(**kw):
            return extract_with_options(
                sentence, resources.aspect_dictionary, lexicon,
                resources.pattern_set, **kw
            )

        full = {(p.aspect_index, p.opinion_index) for p in run()}
        no_fb = {
            (p.aspect_index, p.opinion_index) for p in run(fallback=False)
        }
        no_cc = {
            (p.aspect_index, p.opinion_index) for p in run(conjunction=False)
        }
        assert no_fb <= full
        assert no_cc <= full


class TestGroupingProperties:
    @given(st.lists(st.sampled_from(WORD_POOL), min_size=0, max_size=20))
    @settings(max_examples=200)
    def test_groups_partition_the_pairs(self, aspects):
        pairs = [
            AspectOpinionPair(
                aspect_surface=a,
                opinion_surface="x",
                orientation="positive",
                sentence=TaggedSentence(position=i),
                aspect_index=0,
                opinion_index=1,
                pattern_name="t",
                aspect_end=1,
            )
            for i, a in enumerate(aspects)
        ]
        groups = group_aspects(pairs, AspectDictionary())
        assert sum(len(g.pairs) for g in groups) == len(pairs)
        members = [m for g in groups for m in {p.aspect_surface for p in g.pairs}]
        assert len(members) == len(set(members))
        assert set(members) == {a.lower() for a in aspects}

    @given(st.lists(st.sampled_from(WORD_POOL), min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_label_is_a_member_or_canonical(self, aspects):
        pairs = [
            AspectOpinionPair(
                aspect_surface=a,
                opinion_surface="x",
                orientation="positive",
                sentence=TaggedSentence(position=i),
                aspect_index=0,
                opinion_index=1,
                pattern_name="t",
                aspect_end=1,
            )
            for i, a in enumerate(aspects)
        ]
        groups = group_aspects(pairs, AspectDictionary())
        for g in groups:
            assert g.canonical_label in {p.aspect_surface for p in g.pairs}

    @given(st.text(alphabet="abcs ", max_size=12))
    @settings(max_examples=200)
    def test_head_key_is_idempotent(self, term):
        once = head_key(term)
        assert head_key(once) == once


class TestScoringProperties:
    @given(tokens_strategy)
    @settings(max_examples=200)
    def test_appending_weighted_tag_raises_score(self, token_pairs):
        verbs = VerbCategoryLexicon()
        base = build_sentence(token_pairs)
        extended = build_sentence(token_pairs + [("great", "JJ")])
        s0 = weight_sentence(base, verbs)
        s1 = weight_sentence(extended, verbs)
        assert s1.adjective_adverb_points == s0.adjective_adverb_points + 1
        assert s1.verb_points == s0.verb_points

    @given(tokens_strategy)
    @settings(max_examples=100)
    def test_score_is_sum_of_token_weights(self, token_pairs):
        sentence = build_sentence(token_pairs)
        score = weight_sentence(sentence, VerbCategoryLexicon())
        assert score.adjective_adverb_points == sum(
            TAG_WEIGHTS.get(t, 0) for _, t in token_pairs
        )
        assert score.total == score.adjective_adverb_points


class TestMiningProperties:
    corpora = st.lists(
        st.lists(st.sampled_from(TAG_POOL[:6]), min_size=0, max_size=10),
        min_size=1,
        max_size=8,
    )

    @given(corpora, st.integers(min_value=1, max_value=3))
    @settings(max_examples=150)
    def test_matches_exhaustive_counting(self, tag_lists, min_support):
        corpus = [build_sentence([("w", t) for t in tags], i)
                  for i, tags in enumerate(tag_lists)]
        expected = {}
        for tags in tag_lists:
            grams = set()
            for n in range(2, 7):
                for start in range(len(tags) - n + 1):
                    grams.add(tuple(tags[start : start + n]))
            for g in grams:
                expected[g] = expected.get(g, 0) + 1
        expected = {g: s for g, s in expected.items() if s >= min_support}
        mined = mine_frequent_tag_sets(corpus, min_support=min_support)
        assert {m.tags: m.support for m in mined} == expected

    @given(corpora, st.integers(min_value=1, max_value=3))
    @settings(max_examples=100)
    def test_anti_monotonicity(self, tag_lists, min_support):
        corpus = [build_sentence([("w", t) for t in tags], i)
                  for i, tags in enumerate(tag_lists)]
        mined = {m.tags: m.support for m in
                 mine_frequent_tag_sets(corpus, min_support=min_support)}
        for tags, support in mined.items():
            if len(tags) > 2:
                assert mined[tags[:-1]] >= support
                assert mined[tags[1:]] >= support


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestMetricProperties:
    @given(unit, unit)
    @settings(max_examples=300)
    def test_f_measure_bounds_and_symmetry(self, p, r):
        f = f_measure(p, r)
        assert 0.0 <= f <= 1.0
        assert f == f_measure(r, p)
        if p > 0 and r > 0:
            assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12

    @given(unit)
    @settings(max_examples=100)
    def test_f_measure_fixed_point(self, x):
        assert math.isclose(f_measure(x, x), x, abs_tol=1e-12)

    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=500))
    @settings(max_examples=300)
    def test_percentages_complement(self, pos, neg):
        a, b = _percentages(pos, neg)
        if pos + neg == 0:
            assert (a, b) == (0, 0)
        else:
            assert a + b == 100
            assert 0 <= a <= 100


_sample_value = st.floats(min_value=-100, max_value=100, allow_nan=False, width=32)
paired_samples = st.integers(min_value=2, max_value=12).flatmap(
    lambda n: st.tuples(
        st.lists(_sample_value, min_size=n, max_size=n),
        st.lists(_sample_value, min_size=n, max_size=n),
    )
)


class TestTTestProperties:
    @given(paired_samples)
    @settings(max_examples=200)
    def test_antisymmetric_in_sample_order(self, ab):
        a, b = ab
        fwd = paired_t_test(a, b)
        rev = paired_t_test(b, a)
        assert 0.0 <= fwd.p_value <= 1.0
        assert math.isclose(fwd.p_value, rev.p_value, abs_tol=1e-9)
        if not fwd.degenerate:
            assert math.isclose(fwd.t_statistic, -rev.t_statistic, abs_tol=1e-9)

    @given(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=300)
    def test_sf_reflection(self, t, df):
        assert math.isclose(
            student_t_sf(t, df) + student_t_sf(-t, df), 1.0, abs_tol=1e-9
        )

    @given(
        st.floats(min_value=0, max_value=50, allow_nan=False),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=200)
    def test_sf_monotone_decreasing(self, t, df):
        assert student_t_sf(t + 0.5, df) <= student_t_sf(t, df) + 1e-12


printable_word = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=127),
    min_size=1,
    max_size=8,
)


class TestRoundTripProperties:
    @given(
        st.lists(
            st.tuples(printable_word, st.sampled_from(TAG_POOL)),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=200)
    def test_pretagged_round_trip(self, token_pairs):
        line = " ".join(f"{w}/{t}" for w, t in token_pairs)
        parsed = parse_pretagged(line)
        assert render_pretagged(parsed) == line

    @given(
        st.lists(
            st.tuples(unit, unit, unit, unit),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=150)
    def test_report_round_trip(self, tmp_path_factory, metric_rows):
        rows = [
            ExtractionScores(
                f"product{i}", ap, ar, f_measure(ap, ar), op, orr, f_measure(op, orr)
            )
            for i, (ap, ar, op, orr) in enumerate(metric_rows)
        ]
        report = make_report(rows)
        path = tmp_path_factory.getbasetemp() / "report-roundtrip.tsv"
        path.write_text(render_report(report, "machine"), encoding="utf-8")
        loaded = load_report(path)
        assert loaded.products == report.products
        for got, want in zip(loaded.per_product, report.per_product):
            assert math.isclose(got.aspect_p, want.aspect_p, abs_tol=1e-6)
            assert math.isclose(got.opinion_f, want.opinion_f, abs_tol=1e-6)

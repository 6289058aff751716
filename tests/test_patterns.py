"""Tests for tag patterns, pair extraction, and frequent tag-set mining."""

import random

import pytest

from aspectminer.errors import ParseError
from aspectminer.lexicons import AspectDictionary, OpinionLexicon
from aspectminer.patterns import (
    FALLBACK_PATTERN_NAME,
    MAX_PATTERN_LEN,
    OPINION_ROLE_TAGS,
    AspectSpan,
    PatternSet,
    TagPattern,
    conjunction_expand,
    extract_pairs,
    extract_with_options,
    load_pattern_set,
    match_pattern,
    mine_frequent_tag_sets,
    nearest_aspect_search,
    parse_pattern_line,
    resolve_aspect,
)
from aspectminer.tagger import TaggedSentence, Token, parse_pretagged


def sent(pretagged: str, position: int = 0) -> TaggedSentence:
    return parse_pretagged(pretagged, position=position)


def sent_from_tags(tags, position=0) -> TaggedSentence:
    tokens = tuple(
        Token(surface=f"w{i}", tag=t, index=i) for i, t in enumerate(tags)
    )
    return TaggedSentence(tokens=tokens, position=position)


class TestTagPattern:
    def test_basic_construction(self):
        p = TagPattern(tags=("NN", "VBZ", "JJ"), opinion_offset=2, aspect_offset=0)
        assert len(p) == 3
        assert p.name == "nn-vbz-jj"

    def test_explicit_name_kept(self):
        p = TagPattern(
            tags=("NN", "VBZ", "JJ"), opinion_offset=2, aspect_offset=0, name="x"
        )
        assert p.name == "x"

    def test_length_bounds(self):
        with pytest.raises(ValueError):
            TagPattern(tags=("JJ",), opinion_offset=0)
        with pytest.raises(ValueError):
            TagPattern(tags=("NN",) * 6 + ("JJ",), opinion_offset=6, aspect_offset=0)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError) as exc:
            TagPattern(tags=("NN", "BOGUS", "JJ"), opinion_offset=2, aspect_offset=0)
        assert "BOGUS" in str(exc.value)

    def test_opinion_offset_range(self):
        with pytest.raises(ValueError):
            TagPattern(tags=("NN", "JJ"), opinion_offset=2, aspect_offset=0)

    def test_opinion_position_must_be_opinion_role(self):
        with pytest.raises(ValueError):
            TagPattern(tags=("NN", "NN"), opinion_offset=1, aspect_offset=0)
        # VB is a verb but not a participle; not an opinion role
        with pytest.raises(ValueError):
            TagPattern(tags=("NN", "VB"), opinion_offset=1, aspect_offset=0)

    def test_every_opinion_role_tag_accepted(self):
        for tag in OPINION_ROLE_TAGS:
            p = TagPattern(tags=("NN", tag), opinion_offset=1, aspect_offset=0)
            assert p.tags[1] == tag

    def test_aspect_offset_range(self):
        with pytest.raises(ValueError):
            TagPattern(tags=("NN", "JJ"), opinion_offset=1, aspect_offset=5)

    def test_aspect_and_opinion_must_differ(self):
        with pytest.raises(ValueError):
            TagPattern(tags=("NN", "JJ"), opinion_offset=1, aspect_offset=1)

    def test_aspect_position_must_be_noun(self):
        with pytest.raises(ValueError):
            TagPattern(tags=("DT", "JJ"), opinion_offset=1, aspect_offset=0)

    def test_aspect_offset_optional(self):
        p = TagPattern(tags=("VBZ", "JJ"), opinion_offset=1)
        assert p.aspect_offset is None


class TestParsePatternLine:
    def test_blank_and_comment_lines(self):
        assert parse_pattern_line("") is None
        assert parse_pattern_line("   ") is None
        assert parse_pattern_line("# comment only") is None

    def test_roles_and_name(self):
        p = parse_pattern_line("NN:A VBZ JJ:O   # name=noun-is-adj")
        assert p.tags == ("NN", "VBZ", "JJ")
        assert p.aspect_offset == 0
        assert p.opinion_offset == 2
        assert p.name == "noun-is-adj"

    def test_default_name_when_no_metadata(self):
        p = parse_pattern_line("NN:A VBZ JJ:O")
        assert p.name == "nn-vbz-jj"

    def test_pattern_without_aspect_role(self):
        p = parse_pattern_line("VBZ JJ:O")
        assert p.aspect_offset is None
        assert p.opinion_offset == 1

    def test_missing_opinion_role(self):
        with pytest.raises(ValueError) as exc:
            parse_pattern_line("NN:A VBZ JJ")
        assert ":O" in str(exc.value)

    def test_duplicate_roles(self):
        with pytest.raises(ValueError):
            parse_pattern_line("NN:A NN:A JJ:O")
        with pytest.raises(ValueError):
            parse_pattern_line("NN:A JJ:O JJ:O")


class TestPatternSet:
    def test_iteration_preserves_order(self):
        a = TagPattern(tags=("NN", "VBZ", "JJ"), opinion_offset=2, aspect_offset=0)
        b = TagPattern(tags=("VBZ", "JJ"), opinion_offset=1)
        ps = PatternSet(patterns=(a, b))
        assert list(ps) == [a, b]
        assert len(ps) == 2

    def test_duplicate_rejected(self):
        a = TagPattern(tags=("NN", "VBZ", "JJ"), opinion_offset=2, aspect_offset=0)
        b = TagPattern(
            tags=("NN", "VBZ", "JJ"), opinion_offset=2, aspect_offset=0, name="again"
        )
        with pytest.raises(ValueError):
            PatternSet(patterns=(a, b))

    def test_load_bundled_file(self, resources):
        ps = resources.pattern_set
        assert len(ps) == 11
        names = [p.name for p in ps]
        assert names[0] == "adv-adj-infinitive"
        assert "noun-is-adj" in names
        assert names[-1] == "adj-gerund"

    def test_load_reports_line_numbers(self, tmp_path):
        f = tmp_path / "patterns.txt"
        f.write_text("NN:A VBZ JJ:O\nNN:A VBZ\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_pattern_set(f)
        assert exc.value.line == 2

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_pattern_set(tmp_path / "absent.txt")


class TestMatchPattern:
    def test_finds_all_windows(self):
        s = sent_from_tags(["DT", "NN", "VBZ", "JJ", "CC", "NN", "VBZ", "JJ"])
        p = TagPattern(tags=("NN", "VBZ", "JJ"), opinion_offset=2, aspect_offset=0)
        assert match_pattern(s, p) == [1, 5]

    def test_no_match(self):
        s = sent_from_tags(["DT", "NN"])
        p = TagPattern(tags=("NN", "VBZ", "JJ"), opinion_offset=2, aspect_offset=0)
        assert match_pattern(s, p) == []

    def test_pattern_longer_than_sentence(self):
        s = sent_from_tags(["NN", "VBZ"])
        p = TagPattern(tags=("NN", "VBZ", "JJ"), opinion_offset=2, aspect_offset=0)
        assert match_pattern(s, p) == []


class TestResolveAspect:
    def test_maximal_noun_run(self):
        s = sent("battery/NN life/NN is/VBZ excellent/JJ ./.")
        d = AspectDictionary(entries={"battery life": "battery life"})
        span = resolve_aspect(s, 1, d)
        assert span == AspectSpan(0, 2, "battery life")
        # anchoring on the first token of the run gives the same span
        assert resolve_aspect(s, 0, d) == span

    def test_anchor_token_lookup_when_span_unknown(self):
        s = sent("the/DT sound/NN quality/NN is/VBZ poor/JJ ./.")
        d = AspectDictionary(entries={"sound": "sound"})
        span = resolve_aspect(s, 1, d)
        assert span.start == 1 and span.end == 3
        assert span.surface == "sound"

    def test_unknown_span_keeps_raw_text(self):
        s = sent("the/DT strap/NN broke/VBD ./.")
        span = resolve_aspect(s, 1, AspectDictionary())
        assert span == AspectSpan(1, 2, "strap")

    def test_non_noun_index_is_single_token(self):
        s = sent("very/RB nice/JJ ./.")
        span = resolve_aspect(s, 1, AspectDictionary())
        assert span == AspectSpan(1, 2, "nice")


class TestNearestAspectSearch:
    def test_backward_before_forward(self):
        s = sent("the/DT player/NN looks/VBZ nice/JJ ./.")
        span = nearest_aspect_search(s, 3, AspectDictionary())
        assert span == AspectSpan(1, 2, "player")

    def test_forward_when_nothing_behind(self):
        s = sent("great/JJ looking/VBG camera/NN ./.")
        span = nearest_aspect_search(s, 0, AspectDictionary())
        assert span == AspectSpan(2, 3, "camera")

    def test_dictionary_term_without_noun_tag(self):
        s = sent("truly/RB great/JJ zoom/VB ./.")
        d = AspectDictionary(entries={"zoom": "zoom"})
        span = nearest_aspect_search(s, 1, d)
        assert span == AspectSpan(2, 3, "zoom")

    def test_none_when_no_candidate(self):
        s = sent("very/RB fast/RB ./.")
        assert nearest_aspect_search(s, 1, AspectDictionary()) is None

    def test_nearest_wins(self):
        s = sent("the/DT screen/NN and/CC sound/NN are/VBP good/JJ ./.")
        span = nearest_aspect_search(s, 5, AspectDictionary())
        assert span.surface == "sound"


def only(pairs):
    assert len(pairs) == 1, [
        (p.aspect_surface, p.opinion_surface, p.pattern_name) for p in pairs
    ]
    return pairs[0]


class TestExtractPairs:
    """One fixture phrase per bundled pattern, plus the shared rules."""

    def test_adv_adj_infinitive(self, resources):
        s = sent("very/RB confusing/JJ to/TO start/VB the/DT program/NN ./.")
        p = only(extract_pairs(s, resources.aspect_dictionary,
                               resources.opinion_lexicon, resources.pattern_set))
        assert p.aspect_surface == "program"
        assert p.opinion_surface == "confusing"
        assert p.orientation == "negative"
        assert p.pattern_name == "adv-adj-infinitive"
        assert (p.aspect_index, p.opinion_index) == (5, 1)

    def test_noun_is_adv_adj(self, resources):
        s = sent("the/DT software/NN is/VBZ absolutely/RB terrible/JJ ./.")
        p = only(extract_pairs(s, resources.aspect_dictionary,
                               resources.opinion_lexicon, resources.pattern_set))
        assert (p.aspect_surface, p.opinion_surface) == ("software", "terrible")
        assert p.orientation == "negative"
        assert p.pattern_name == "noun-is-adv-adj"

    def test_adj_noun_of_noun(self, resources):
        s = sent("superior/JJ piece/NN of/IN equipment/NN ./.")
        p = only(extract_pairs(s, resources.aspect_dictionary,
                               resources.opinion_lexicon, resources.pattern_set))
        assert (p.aspect_surface, p.opinion_surface) == ("equipment", "superior")
        assert p.pattern_name == "adj-noun-of-noun"
        assert p.aspect_index == 3

    def test_adj_noun_pair(self, resources):
        s = sent("it/PRP has/VBZ a/DT decent/JJ size/NN and/CC weight/NN ./.")
        p = only(extract_pairs(s, resources.aspect_dictionary,
                               resources.opinion_lexicon, resources.pattern_set))
        assert (p.aspect_surface, p.opinion_surface) == ("size", "decent")
        assert p.pattern_name == "adj-noun-pair"

    def test_plural_are_adj(self, resources):
        s = sent("pictures/NNS are/VBP razor-sharp/JJ ./.")
        p = only(extract_pairs(s, resources.aspect_dictionary,
                               resources.opinion_lexicon, resources.pattern_set))
        assert (p.aspect_surface, p.opinion_surface) == ("pictures", "razor-sharp")
        assert p.orientation == "positive"
        assert p.pattern_name == "plural-are-adj"

    def test_noun_is_adj(self, resources):
        s = sent("the/DT sound/NN is/VBZ wonderful/JJ ./.")
        p = only(extract_pairs(s, resources.aspect_dictionary,
                               resources.opinion_lexicon, resources.pattern_set))
        assert (p.aspect_surface, p.opinion_surface) == ("sound", "wonderful")
        assert p.pattern_name == "noun-is-adj"

    def test_plural_are_adv(self, resources):
        s = sent("transfers/NNS are/VBP fast/RB ./.")
        p = only(extract_pairs(s, resources.aspect_dictionary,
                               resources.opinion_lexicon, resources.pattern_set))
        assert (p.aspect_surface, p.opinion_surface) == ("transfers", "fast")
        assert p.pattern_name == "plural-are-adv"

    def test_participle_noun(self, resources):
        s = sent("improved/VBD interface/NN ./.")
        p = only(extract_pairs(s, resources.aspect_dictionary,
                               resources.opinion_lexicon, resources.pattern_set))
        assert (p.aspect_surface, p.opinion_surface) == ("interface", "improved")
        assert p.pattern_name == "participle-noun"

    def test_participle_noun_passive(self, resources):
        s = sent("broken/VBN screen/NN ./.")
        p = only(extract_pairs(s, resources.aspect_dictionary,
                               resources.opinion_lexicon, resources.pattern_set))
        assert (p.aspect_surface, p.opinion_surface) == ("screen", "broken")
        assert p.orientation == "negative"
        assert p.pattern_name == "participle-noun-passive"

    def test_verb_adj_uses_nearest_search(self, resources):
        # the adverb breaks the noun-is-adj window, leaving only VBZ JJ
        s = sent("the/DT player/NN really/RB looks/VBZ nice/JJ ./.")
        p = only(extract_pairs(s, resources.aspect_dictionary,
                               resources.opinion_lexicon, resources.pattern_set))
        assert (p.aspect_surface, p.opinion_surface) == ("player", "nice")
        assert p.pattern_name == "verb-adj"

    def test_adj_gerund_searches_forward(self, resources):
        s = sent("great/JJ looking/VBG camera/NN ./.")
        p = only(extract_pairs(s, resources.aspect_dictionary,
                               resources.opinion_lexicon, resources.pattern_set))
        assert (p.aspect_surface, p.opinion_surface) == ("camera", "great")
        assert p.pattern_name == "adj-gerund"

    def test_earlier_pattern_wins_on_shared_positions(self, resources):
        # noun-is-adj and verb-adj both cover (sound, wonderful) here
        s = sent("the/DT sound/NN is/VBZ wonderful/JJ ./.")
        p = only(extract_pairs(s, resources.aspect_dictionary,
                               resources.opinion_lexicon, resources.pattern_set))
        assert p.pattern_name == "noun-is-adj"

    def test_polarity_gate_drops_neutral_opinions(self, resources):
        s = sent("i/PRP think/VBP the/DT price/NN is/VBZ too/RB high/JJ ./.")
        pairs = extract_pairs(s, resources.aspect_dictionary,
                              resources.opinion_lexicon, resources.pattern_set)
        assert pairs == []

    def test_multiword_noun_run_canonicalized(self, resources):
        s = sent("battery/NN life/NN is/VBZ excellent/JJ ./.")
        p = only(extract_pairs(s, resources.aspect_dictionary,
                               resources.opinion_lexicon, resources.pattern_set))
        assert p.aspect_surface == "battery life"
        assert (p.aspect_index, p.aspect_end) == (0, 2)

    def test_output_sorted_by_position(self, resources):
        s = sent(
            "the/DT sound/NN is/VBZ wonderful/JJ but/CC "
            "the/DT screen/NN is/VBZ awful/JJ ./."
        )
        pairs = extract_pairs(s, resources.aspect_dictionary,
                              resources.opinion_lexicon, resources.pattern_set)
        assert [(p.aspect_surface, p.opinion_surface) for p in pairs] == [
            ("sound", "wonderful"),
            ("screen", "awful"),
        ]


class TestConjunctionExpand:
    def test_expands_onto_second_noun(self, resources):
        s = sent("it/PRP has/VBZ a/DT decent/JJ size/NN and/CC weight/NN ./.")
        base = only(extract_pairs(s, resources.aspect_dictionary,
                                  resources.opinion_lexicon, resources.pattern_set))
        out = conjunction_expand(base, s, resources.aspect_dictionary)
        assert len(out) == 2
        assert out[0] is base
        extra = out[1]
        assert extra.aspect_surface == "weight"
        assert extra.opinion_surface == "decent"
        assert extra.orientation == base.orientation
        assert extra.pattern_name == base.pattern_name
        assert extra.opinion_index == base.opinion_index

    def test_no_conjunction_after_aspect(self, resources):
        s = sent("the/DT sound/NN is/VBZ wonderful/JJ ./.")
        base = only(extract_pairs(s, resources.aspect_dictionary,
                                  resources.opinion_lexicon, resources.pattern_set))
        assert conjunction_expand(base, s, resources.aspect_dictionary) == [base]

    def test_conjunction_at_sentence_edge(self):
        s = sent("nice/JJ sound/NN and/CC")
        base_pairs = extract_pairs(
            s,
            AspectDictionary(),
            OpinionLexicon(positive=frozenset({"nice"}), negative=frozenset()),
            PatternSet(
                patterns=(
                    TagPattern(tags=("JJ", "NN"), opinion_offset=0, aspect_offset=1),
                )
            ),
        )
        base = only(base_pairs)
        assert conjunction_expand(base, s, AspectDictionary()) == [base]

    def test_empty_dictionary_uses_raw_run(self):
        s = sent("nice/JJ sound/NN and/CC battery/NN life/NN ./.")
        lex = OpinionLexicon(positive=frozenset({"nice"}), negative=frozenset())
        ps = PatternSet(
            patterns=(
                TagPattern(tags=("JJ", "NN"), opinion_offset=0, aspect_offset=1),
            )
        )
        base = only(extract_pairs(s, AspectDictionary(), lex, ps))
        out = conjunction_expand(base, s, AspectDictionary())
        assert out[1].aspect_surface == "battery life"
        assert (out[1].aspect_index, out[1].aspect_end) == (3, 5)


class TestExtractWithOptions:
    def test_fallback_claims_unmatched_opinion_words(self, resources):
        s = sent("the/DT battery/NN dies/VBZ fast/RB ./.")
        pairs = extract_with_options(
            s, resources.aspect_dictionary, resources.opinion_lexicon,
            resources.pattern_set,
        )
        p = only(pairs)
        assert (p.aspect_surface, p.opinion_surface) == ("battery", "fast")
        assert p.pattern_name == FALLBACK_PATTERN_NAME

    def test_fallback_disabled(self, resources):
        s = sent("the/DT battery/NN dies/VBZ fast/RB ./.")
        pairs = extract_with_options(
            s, resources.aspect_dictionary, resources.opinion_lexicon,
            resources.pattern_set, fallback=False,
        )
        assert pairs == []

    def test_fallback_skips_non_opinion_role_tags(self, resources):
        # a seed word tagged as a bare verb must not spawn a pair
        s = sent("i/PRP recommend/VB the/DT player/NN ./.")
        lex = OpinionLexicon(positive=frozenset({"recommend"}), negative=frozenset())
        pairs = extract_with_options(
            s, resources.aspect_dictionary, lex, resources.pattern_set,
        )
        assert pairs == []

    def test_fallback_does_not_duplicate_pattern_pairs(self, resources):
        s = sent("the/DT sound/NN is/VBZ wonderful/JJ ./.")
        pairs = extract_with_options(
            s, resources.aspect_dictionary, resources.opinion_lexicon,
            resources.pattern_set,
        )
        assert len(pairs) == 1
        assert pairs[0].pattern_name == "noun-is-adj"

    def test_conjunction_expansion_applies(self, resources):
        s = sent("it/PRP has/VBZ a/DT decent/JJ size/NN and/CC weight/NN ./.")
        pairs = extract_with_options(
            s, resources.aspect_dictionary, resources.opinion_lexicon,
            resources.pattern_set,
        )
        assert [(p.aspect_surface, p.opinion_surface) for p in pairs] == [
            ("size", "decent"),
            ("weight", "decent"),
        ]

    def test_conjunction_disabled(self, resources):
        s = sent("it/PRP has/VBZ a/DT decent/JJ size/NN and/CC weight/NN ./.")
        pairs = extract_with_options(
            s, resources.aspect_dictionary, resources.opinion_lexicon,
            resources.pattern_set, conjunction=False,
        )
        assert [(p.aspect_surface, p.opinion_surface) for p in pairs] == [
            ("size", "decent"),
        ]

    def test_conjunction_expansion_not_chained(self, resources):
        s = sent("a/DT nice/JJ size/NN and/CC weight/NN and/CC strap/NN ./.")
        pairs = extract_with_options(
            s, resources.aspect_dictionary, resources.opinion_lexicon,
            resources.pattern_set,
        )
        aspects = [p.aspect_surface for p in pairs]
        assert aspects == ["size", "weight"]

    def test_results_sorted(self, resources):
        s = sent(
            "great/JJ looking/VBG camera/NN with/IN a/DT screen/NN "
            "that/WDT is/VBZ awful/JJ ./."
        )
        pairs = extract_with_options(
            s, resources.aspect_dictionary, resources.opinion_lexicon,
            resources.pattern_set,
        )
        positions = [(p.aspect_index, p.opinion_index) for p in pairs]
        assert positions == sorted(positions)


def brute_force_supports(sentence_tags, min_support, max_len):
    supports = {}
    for tags in sentence_tags:
        seen = set()
        for n in range(2, max_len + 1):
            for start in range(len(tags) - n + 1):
                seen.add(tuple(tags[start : start + n]))
        for gram in seen:
            supports[gram] = supports.get(gram, 0) + 1
    return {g: s for g, s in supports.items() if s >= min_support}


class TestMineFrequentTagSets:
    def test_hand_worked_example(self):
        corpus = [
            sent_from_tags(["DT", "NN", "VBZ", "JJ"], 0),
            sent_from_tags(["DT", "NN", "VBZ", "JJ"], 1),
            sent_from_tags(["DT", "NN", "VBP", "RB"], 2),
        ]
        mined = mine_frequent_tag_sets(corpus, min_support=2)
        as_tuples = [(m.tags, m.support) for m in mined]
        assert as_tuples == [
            (("DT", "NN"), 3),
            (("DT", "NN", "VBZ", "JJ"), 2),
            (("DT", "NN", "VBZ"), 2),
            (("NN", "VBZ", "JJ"), 2),
            (("NN", "VBZ"), 2),
            (("VBZ", "JJ"), 2),
        ]
        assert mined[0].support_ratio == pytest.approx(1.0)
        assert mined[1].support_ratio == pytest.approx(2 / 3)

    def test_sentence_level_support_counts_once(self):
        corpus = [sent_from_tags(["NN", "JJ", "NN", "JJ", "NN", "JJ"])]
        mined = mine_frequent_tag_sets(corpus, min_support=1, max_len=2)
        by_tags = {m.tags: m.support for m in mined}
        assert by_tags[("NN", "JJ")] == 1

    def test_empty_corpus(self):
        assert mine_frequent_tag_sets([], min_support=1) == []

    def test_min_support_validation(self):
        with pytest.raises(ValueError):
            mine_frequent_tag_sets([], min_support=0)

    def test_max_len_validation(self):
        with pytest.raises(ValueError):
            mine_frequent_tag_sets([], min_support=1, max_len=1)
        with pytest.raises(ValueError):
            mine_frequent_tag_sets([], min_support=1, max_len=MAX_PATTERN_LEN + 1)

    def test_max_len_caps_output(self):
        corpus = [sent_from_tags(["DT", "NN", "VBZ", "JJ"])] * 2
        mined = mine_frequent_tag_sets(corpus, min_support=2, max_len=3)
        assert max(len(m.tags) for m in mined) == 3

    def test_matches_brute_force_on_random_corpora(self):
        # [DERIVED] oracle: exhaustive n-gram counting, no pruning
        rng = random.Random(20240917)
        alphabet = ["DT", "NN", "VBZ", "JJ", "RB", "IN", "CC", "NNS"]
        for trial in range(50):
            corpus = [
                sent_from_tags(
                    [rng.choice(alphabet) for _ in range(rng.randint(0, 12))],
                    position=i,
                )
                for i in range(rng.randint(1, 10))
            ]
            min_support = rng.choice([1, 2, 3])
            expected = brute_force_supports(
                [tuple(s.tags()) for s in corpus], min_support, MAX_PATTERN_LEN
            )
            mined = mine_frequent_tag_sets(corpus, min_support=min_support)
            got = {m.tags: m.support for m in mined}
            assert got == expected, f"trial {trial} diverged"

    def test_anti_monotonicity(self):
        rng = random.Random(7)
        alphabet = ["DT", "NN", "VBZ", "JJ"]
        corpus = [
            sent_from_tags(
                [rng.choice(alphabet) for _ in range(rng.randint(2, 10))], position=i
            )
            for i in range(8)
        ]
        mined = mine_frequent_tag_sets(corpus, min_support=1)
        by_tags = {m.tags: m.support for m in mined}
        for tags, support in by_tags.items():
            if len(tags) > 2:
                assert by_tags[tags[:-1]] >= support
                assert by_tags[tags[1:]] >= support

    def test_sort_order(self):
        corpus = [
            sent_from_tags(["NN", "JJ", "RB"], 0),
            sent_from_tags(["NN", "JJ"], 1),
            sent_from_tags(["RB", "CC"], 2),
        ]
        mined = mine_frequent_tag_sets(corpus, min_support=1)
        keys = [(-m.support, -len(m.tags), m.tags) for m in mined]
        assert keys == sorted(keys)

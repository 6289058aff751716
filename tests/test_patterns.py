"""Tests for tag patterns, pair extraction, and frequent tag-set mining.

References kept here, one per rule:

* ``staged_extract``: the staged extraction the core replaced (one
  matcher call per pattern, then the fallback and conjunction loops),
  with frozen copies of the span resolution, nearest-aspect search,
  dictionary lookup and polarity lookup (``oracle_polarity``, which
  ``test_properties`` imports) it called, and the longest-entry scan of
  ``test_lexicons``, so it calls no code under test.  It is compared
  with the core one sentence at a time and, sentence by sentence, with
  one call over up to six sentences, on random sentences, dictionaries
  and pattern sets (patterns that share first tags, match at one start
  and overrun the sentence) under every fallback and conjunction
  setting, and on both shipped samples.
* ``brute_force_scan``: the scan by its definition, every pattern
  compared at every start; ``TestAutomatonAgainstBruteForce`` holds the
  compiled tag automaton to it on overlapping pattern sets, and
  ``test_parser_fuzz`` imports it.
* ``brute_force_supports``: mining by its definition, every run of tags
  counted once per sentence; ``TestMiningAgainstBruteForce`` holds the
  miner to it on random tag corpora, and ``test_acceptance`` (criterion
  4) and ``test_properties`` import it.

``TestSurfaceContract`` checks that every surface extraction writes is
lowercase, single-spaced and, under a closed dictionary, its own
canonical: the form grouping takes as given.
"""

import random
from dataclasses import fields, replace
from typing import NamedTuple

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from aspectminer.errors import ParseError
from aspectminer.lexicons import NEGATIVE, POSITIVE, AspectDictionary
from aspectminer.patterns import (
    FALLBACK_PATTERN_NAME,
    MAX_PATTERN_LEN,
    MIN_PATTERN_LEN,
    OPINION_ROLE_TAGS,
    AspectOpinionPair,
    MinedPattern,
    PatternSet,
    TagPattern,
    _MISS,
    extract_sentences,
    load_pattern_set,
    mine_frequent_tag_sets,
    parse_pattern_line,
)
from aspectminer.pipeline import data_dir, extract_corpus, load_resources
from aspectminer.tagger import NOUN_TAGS, TaggedSentence, parse_pretagged
from test_grouping import closed_entries
from test_lexicons import scanned_match


def sent(pretagged: str, position: int = 0) -> TaggedSentence:
    return parse_pretagged(pretagged, position=position)


def sent_from_tags(tags, position=0) -> TaggedSentence:
    surfaces = tuple(f"w{i}" for i in range(len(tags)))
    return TaggedSentence(surfaces=surfaces, tags=tuple(tags), position=position)


class TestTagPattern:
    def test_basic_construction(self):
        p = TagPattern(tags=("NN", "VBZ", "JJ"), opinion_offset=2, aspect_offset=0)
        assert len(p.tags) == 3
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
    def test_blank_and_comment_lines(self, tmp_path):
        # the file's line reader drops these; the parser sees no pattern in them
        lines = ("", "   ", "# comment only", "; comment only", "  # indented")
        for line in lines:
            with pytest.raises(ValueError, match="no opinion position"):
                parse_pattern_line(line)
        f = tmp_path / "patterns.txt"
        f.write_text("\n".join(lines + ("NN:A VBZ JJ:O  # name=x",)), encoding="utf-8")
        assert [p.name for p in load_pattern_set(f).patterns] == ["x"]

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
        assert list(ps.patterns) == [a, b]
        assert len(ps.patterns) == 2

    def test_duplicate_rejected(self):
        a = TagPattern(tags=("NN", "VBZ", "JJ"), opinion_offset=2, aspect_offset=0)
        b = TagPattern(
            tags=("NN", "VBZ", "JJ"), opinion_offset=2, aspect_offset=0, name="again"
        )
        with pytest.raises(ValueError, match="^duplicate pattern NN:A VBZ JJ:O$"):
            PatternSet(patterns=(a, b))

    def test_automaton_ends_each_pattern_at_its_last_tag_in_line_order(self, resources):
        ps = resources.pattern_set
        alphabet = OPINION_ROLE_TAGS.union(*(p.tags for p in ps.patterns))
        for table in ps.automaton:
            assert table.keys() == alphabet
            for tag, (_, rows, opinion_role) in table.items():
                assert opinion_role == (tag in OPINION_ROLE_TAGS)
                assert [row[0] for row in rows] == sorted({row[0] for row in rows})
        for rank, p in enumerate(ps.patterns):
            state = 0
            for tag in p.tags:
                state, rows, _ = ps.automaton[state][tag]
            assert (rank, len(p.tags), p.opinion_offset, p.aspect_offset, p.name) in rows

    def test_automaton_shares_one_entry_per_target_and_role(self, resources):
        entries = [e for table in resources.pattern_set.automaton for e in table.values()]
        assert len({id(e) for e in entries}) == len({(e[0], e[2]) for e in entries})
        assert all(e is _MISS for e in entries if (e[0], e[2]) == (0, False))

    def test_empty_set_is_the_root_alone(self):
        ps = PatternSet(patterns=())
        assert len(ps.automaton) == 1
        shared = ps.automaton[0]["JJ"]
        assert shared == (0, (), True)
        assert all(e is _MISS or e is shared for e in ps.automaton[0].values())
        pairs = extract_sentences(
            (sent("the/DT camera/NN is/VBZ great/JJ ./."),), AspectDictionary(),
            SPAN_LEXICON, ps, fallback=True,
        )
        assert [(p.aspect_surface, p.opinion_surface, p.pattern_name) for p in pairs] == [
            ("camera", "great", FALLBACK_PATTERN_NAME)
        ]

    def test_bundled_table_has_one_state_per_prefix(self, resources):
        patterns = resources.pattern_set.patterns
        prefixes = {p.tags[:n] for p in patterns for n in range(len(p.tags) + 1)}
        assert len(resources.pattern_set.automaton) == len(prefixes) == 29

    def test_equality_and_hash_ignore_the_automaton(self, resources):
        a = PatternSet(patterns=resources.pattern_set.patterns)
        b = PatternSet(patterns=resources.pattern_set.patterns)
        assert [f.name for f in fields(PatternSet) if not f.init] == ["automaton"]
        assert b.automaton
        object.__setattr__(b, "automaton", ({},))
        assert a == b == resources.pattern_set
        assert hash(a) == hash(b) == hash(resources.pattern_set)
        assert "automaton" not in repr(a)

    def test_extraction_reads_the_automaton_the_set_holds(self, resources, sample_tagged):
        ps = PatternSet(patterns=resources.pattern_set.patterns)
        args = (sample_tagged, resources.aspect_dictionary, resources.opinion_lexicon, ps)
        assert extract_sentences(*args, fallback=False)
        object.__setattr__(ps, "automaton", ({},))
        assert extract_sentences(*args, fallback=False) == []

    def test_load_bundled_file(self, resources):
        ps = resources.pattern_set
        assert len(ps.patterns) == 11
        names = [p.name for p in ps.patterns]
        assert names[0] == "adv-adj-infinitive"
        assert "noun-is-adj" in names
        assert names[-1] == "adj-gerund"

    def test_load_reports_line_numbers(self, tmp_path):
        f = tmp_path / "patterns.txt"
        f.write_text("NN:A VBZ JJ:O\nNN:A VBZ\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_pattern_set(f)
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "line, message",
        [
            (":A JJ:O", "item 1: role marker :A has no tag"),
            ("NN:A VBZ :O", "item 3: role marker :O has no tag"),
        ],
    )
    def test_load_names_a_role_marker_without_a_tag(self, tmp_path, line, message):
        f = tmp_path / "patterns.txt"
        f.write_text(f"NN:A VBZ JJ:O\n{line}\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_pattern_set(f)
        assert str(exc.value) == f"{f}: line 2: {message}"

    def test_load_names_a_duplicate_and_its_first_line(self, tmp_path):
        # the role markers tell apart patterns of the same tags
        f = tmp_path / "patterns.txt"
        f.write_text(
            "NN:A NN JJ:O\n# a comment\nNN NN:A JJ:O\nNN:A NN JJ:O  # name=again\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as exc:
            load_pattern_set(f)
        assert str(exc.value) == (
            f"{f}: line 4: duplicate pattern NN:A NN JJ:O (first on line 1)"
        )

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_pattern_set(tmp_path / "absent.txt")


def window_starts(tags, pattern):
    """Start of every window the core matches, seen as pattern-only pairs.

    Every word is polar and the pattern's aspect is a lone noun, so each
    window yields one pair at its own positions.
    """
    s = sent_from_tags(tags)
    lex = dict.fromkeys(s.surfaces, POSITIVE)
    pairs = extract_sentences(
        (s,), AspectDictionary(), lex, PatternSet(patterns=(pattern,)),
        fallback=False, conjunction=False,
    )
    return [p.opinion_index - pattern.opinion_offset for p in pairs]


class TestPatternWindows:
    def test_finds_all_windows(self):
        p = TagPattern(tags=("NN", "VBZ", "JJ"), opinion_offset=2, aspect_offset=0)
        assert window_starts(["DT", "NN", "VBZ", "JJ", "CC", "NN", "VBZ", "JJ"], p) == [1, 5]

    def test_no_match(self):
        p = TagPattern(tags=("NN", "VBZ", "JJ"), opinion_offset=2, aspect_offset=0)
        assert window_starts(["DT", "NN"], p) == []

    def test_pattern_longer_than_sentence(self):
        p = TagPattern(tags=("NN", "VBZ", "JJ"), opinion_offset=2, aspect_offset=0)
        assert window_starts(["NN", "VBZ"], p) == []


SPAN_LEXICON = {
    **dict.fromkeys(("excellent", "nice", "great", "fast", "good"), POSITIVE),
    **dict.fromkeys(("poor", "broke"), NEGATIVE),
}


def aspect_span(pretagged, dictionary, pattern_line=None):
    """``(aspect_index, aspect_end, aspect_surface)`` of the one pair that
    ``pattern_line`` yields, or without it the nearest-aspect fallback."""
    if pattern_line is None:
        pattern_set, fallback = PatternSet(patterns=()), True
    else:
        pattern_set, fallback = PatternSet(patterns=(parse_pattern_line(pattern_line),)), False
    pairs = extract_sentences(
        (sent(pretagged),), dictionary, SPAN_LEXICON, pattern_set,
        fallback=fallback, conjunction=False,
    )
    if not pairs:
        return None
    pair = only(pairs)
    return pair.aspect_index, pair.aspect_end, pair.aspect_surface


class TestAspectSpan:
    def test_maximal_noun_run(self):
        s = "battery/NN life/NN is/VBZ excellent/JJ ./."
        d = AspectDictionary(entries={"battery life": "battery life"})
        span = aspect_span(s, d, "NN:A VBZ JJ:O")
        assert span == (0, 2, "battery life")
        # anchoring on the first token of the run gives the same span
        assert aspect_span(s, d, "NN:A NN VBZ JJ:O") == span

    def test_anchor_token_lookup_when_span_unknown(self):
        s = "the/DT sound/NN quality/NN is/VBZ poor/JJ ./."
        d = AspectDictionary(entries={"sound": "sound"})
        assert aspect_span(s, d, "NN:A NN VBZ JJ:O") == (1, 3, "sound")

    def test_unknown_span_keeps_raw_text(self):
        s = "the/DT strap/NN broke/VBD ./."
        assert aspect_span(s, AspectDictionary(), "NN:A VBD:O") == (1, 2, "strap")


class TestNearestAspectSearch:
    def test_backward_before_forward(self):
        s = "the/DT player/NN looks/VBZ nice/JJ ./."
        assert aspect_span(s, AspectDictionary()) == (1, 2, "player")

    def test_forward_when_nothing_behind(self):
        s = "great/JJ looking/VBG camera/NN ./."
        assert aspect_span(s, AspectDictionary()) == (2, 3, "camera")

    def test_dictionary_term_without_noun_tag(self):
        s = "truly/RB great/JJ zoom/VB ./."
        d = AspectDictionary(entries={"zoom": "zoom"})
        assert aspect_span(s, d) == (2, 3, "zoom")

    def test_none_when_no_candidate(self):
        assert aspect_span("very/RB fast/RB ./.", AspectDictionary()) is None

    def test_nearest_wins(self):
        s = "the/DT screen/NN and/CC sound/NN are/VBP good/JJ ./."
        assert aspect_span(s, AspectDictionary()) == (3, 4, "sound")

    def test_nearest_noun_takes_its_whole_run(self):
        s = "the/DT sound/NN quality/NN is/VBZ poor/JJ ./."
        assert aspect_span(s, AspectDictionary()) == (1, 3, "sound quality")


def test_conjunction_copy_takes_the_whole_noun_run():
    d = AspectDictionary(entries={"battery life": "battery life"})
    pairs = extract_sentences(
        (sent("nice/JJ size/NN and/CC battery/NN life/NN ./."),), d, SPAN_LEXICON,
        PatternSet(patterns=(parse_pattern_line("JJ:O NN:A"),)), fallback=False,
    )
    assert [(p.aspect_index, p.aspect_end, p.aspect_surface) for p in pairs] == [
        (1, 2, "size"),
        (3, 5, "battery life"),
    ]


def only(pairs):
    assert len(pairs) == 1, [
        (p.aspect_surface, p.opinion_surface, p.pattern_name) for p in pairs
    ]
    return pairs[0]


def pattern_pairs(sentence, resources):
    """The pairs of the bundled patterns alone, both extensions off."""
    return extract_sentences(
        (sentence,), resources.aspect_dictionary, resources.opinion_lexicon,
        resources.pattern_set, fallback=False, conjunction=False,
    )


class TestPatternPairs:
    """One fixture phrase per bundled pattern, plus the shared rules."""

    def test_adv_adj_infinitive(self, resources):
        s = sent("very/RB confusing/JJ to/TO start/VB the/DT program/NN ./.")
        p = only(pattern_pairs(s, resources))
        assert p.aspect_surface == "program"
        assert p.opinion_surface == "confusing"
        assert p.orientation == "negative"
        assert p.pattern_name == "adv-adj-infinitive"
        assert (p.aspect_index, p.opinion_index) == (5, 1)

    def test_noun_is_adv_adj(self, resources):
        s = sent("the/DT software/NN is/VBZ absolutely/RB terrible/JJ ./.")
        p = only(pattern_pairs(s, resources))
        assert (p.aspect_surface, p.opinion_surface) == ("software", "terrible")
        assert p.orientation == "negative"
        assert p.pattern_name == "noun-is-adv-adj"

    def test_adj_noun_of_noun(self, resources):
        s = sent("superior/JJ piece/NN of/IN equipment/NN ./.")
        p = only(pattern_pairs(s, resources))
        assert (p.aspect_surface, p.opinion_surface) == ("equipment", "superior")
        assert p.pattern_name == "adj-noun-of-noun"
        assert p.aspect_index == 3

    def test_adj_noun_pair(self, resources):
        s = sent("it/PRP has/VBZ a/DT decent/JJ size/NN and/CC weight/NN ./.")
        p = only(pattern_pairs(s, resources))
        assert (p.aspect_surface, p.opinion_surface) == ("size", "decent")
        assert p.pattern_name == "adj-noun-pair"

    def test_plural_are_adj(self, resources):
        s = sent("pictures/NNS are/VBP razor-sharp/JJ ./.")
        p = only(pattern_pairs(s, resources))
        assert (p.aspect_surface, p.opinion_surface) == ("pictures", "razor-sharp")
        assert p.orientation == "positive"
        assert p.pattern_name == "plural-are-adj"

    def test_noun_is_adj(self, resources):
        s = sent("the/DT sound/NN is/VBZ wonderful/JJ ./.")
        p = only(pattern_pairs(s, resources))
        assert (p.aspect_surface, p.opinion_surface) == ("sound", "wonderful")
        assert p.pattern_name == "noun-is-adj"

    def test_plural_are_adv(self, resources):
        s = sent("transfers/NNS are/VBP fast/RB ./.")
        p = only(pattern_pairs(s, resources))
        assert (p.aspect_surface, p.opinion_surface) == ("transfers", "fast")
        assert p.pattern_name == "plural-are-adv"

    def test_participle_noun(self, resources):
        s = sent("improved/VBD interface/NN ./.")
        p = only(pattern_pairs(s, resources))
        assert (p.aspect_surface, p.opinion_surface) == ("interface", "improved")
        assert p.pattern_name == "participle-noun"

    def test_participle_noun_passive(self, resources):
        s = sent("broken/VBN screen/NN ./.")
        p = only(pattern_pairs(s, resources))
        assert (p.aspect_surface, p.opinion_surface) == ("screen", "broken")
        assert p.orientation == "negative"
        assert p.pattern_name == "participle-noun-passive"

    def test_verb_adj_uses_nearest_search(self, resources):
        # the adverb breaks the noun-is-adj window, leaving only VBZ JJ
        s = sent("the/DT player/NN really/RB looks/VBZ nice/JJ ./.")
        p = only(pattern_pairs(s, resources))
        assert (p.aspect_surface, p.opinion_surface) == ("player", "nice")
        assert p.pattern_name == "verb-adj"

    def test_adj_gerund_searches_forward(self, resources):
        s = sent("great/JJ looking/VBG camera/NN ./.")
        p = only(pattern_pairs(s, resources))
        assert (p.aspect_surface, p.opinion_surface) == ("camera", "great")
        assert p.pattern_name == "adj-gerund"

    def test_earlier_pattern_wins_on_shared_positions(self, resources):
        # noun-is-adj and verb-adj both cover (sound, wonderful) here
        s = sent("the/DT sound/NN is/VBZ wonderful/JJ ./.")
        p = only(pattern_pairs(s, resources))
        assert p.pattern_name == "noun-is-adj"

    def test_polarity_gate_drops_neutral_opinions(self, resources):
        s = sent("i/PRP think/VBP the/DT price/NN is/VBZ too/RB high/JJ ./.")
        pairs = pattern_pairs(s, resources)
        assert pairs == []

    def test_multiword_noun_run_canonicalized(self, resources):
        s = sent("battery/NN life/NN is/VBZ excellent/JJ ./.")
        p = only(pattern_pairs(s, resources))
        assert p.aspect_surface == "battery life"
        assert (p.aspect_index, p.aspect_end) == (0, 2)

    def test_output_sorted_by_position(self, resources):
        s = sent(
            "the/DT sound/NN is/VBZ wonderful/JJ but/CC "
            "the/DT screen/NN is/VBZ awful/JJ ./."
        )
        pairs = pattern_pairs(s, resources)
        assert [(p.aspect_surface, p.opinion_surface) for p in pairs] == [
            ("sound", "wonderful"),
            ("screen", "awful"),
        ]


class TestConjunctionPass:
    def test_expands_onto_second_noun(self, resources):
        s = sent("it/PRP has/VBZ a/DT decent/JJ size/NN and/CC weight/NN ./.")
        base = only(pattern_pairs(s, resources))
        out = extract_sentences((s,), resources.aspect_dictionary,
                                   resources.opinion_lexicon, resources.pattern_set,
                                   fallback=False)
        assert len(out) == 2
        assert out[0] == base
        extra = out[1]
        assert extra.aspect_surface == "weight"
        assert extra.opinion_surface == "decent"
        assert extra.orientation == base.orientation
        assert extra.pattern_name == base.pattern_name
        assert extra.opinion_index == base.opinion_index

    def test_no_conjunction_after_aspect(self, resources):
        s = sent("the/DT sound/NN is/VBZ wonderful/JJ ./.")
        base = only(pattern_pairs(s, resources))
        out = extract_sentences((s,), resources.aspect_dictionary,
                                   resources.opinion_lexicon, resources.pattern_set,
                                   fallback=False)
        assert out == [base]

    def test_conjunction_at_sentence_edge(self):
        s = sent("nice/JJ sound/NN and/CC")
        args = (
            AspectDictionary(),
            {"nice": POSITIVE},
            PatternSet(
                patterns=(
                    TagPattern(tags=("JJ", "NN"), opinion_offset=0, aspect_offset=1),
                )
            ),
        )
        base = only(extract_sentences((s,), *args, fallback=False, conjunction=False))
        assert extract_sentences((s,), *args, fallback=False) == [base]

    def test_empty_dictionary_uses_raw_run(self):
        s = sent("nice/JJ sound/NN and/CC battery/NN life/NN ./.")
        lex = {"nice": POSITIVE}
        ps = PatternSet(
            patterns=(
                TagPattern(tags=("JJ", "NN"), opinion_offset=0, aspect_offset=1),
            )
        )
        base = only(extract_sentences((s,), AspectDictionary(), lex, ps,
                                         fallback=False, conjunction=False))
        out = extract_sentences((s,), AspectDictionary(), lex, ps, fallback=False)
        assert out[0] == base
        assert out[1].aspect_surface == "battery life"
        assert (out[1].aspect_index, out[1].aspect_end) == (3, 5)


class TestExtractWithOptions:
    def test_fallback_claims_unmatched_opinion_words(self, resources):
        s = sent("the/DT battery/NN dies/VBZ fast/RB ./.")
        pairs = extract_sentences(
            (s,), resources.aspect_dictionary, resources.opinion_lexicon,
            resources.pattern_set,
        )
        p = only(pairs)
        assert (p.aspect_surface, p.opinion_surface) == ("battery", "fast")
        assert p.pattern_name == FALLBACK_PATTERN_NAME

    def test_fallback_disabled(self, resources):
        s = sent("the/DT battery/NN dies/VBZ fast/RB ./.")
        pairs = extract_sentences(
            (s,), resources.aspect_dictionary, resources.opinion_lexicon,
            resources.pattern_set, fallback=False,
        )
        assert pairs == []

    def test_fallback_skips_non_opinion_role_tags(self, resources):
        # a seed word tagged as a bare verb must not spawn a pair
        s = sent("i/PRP recommend/VB the/DT player/NN ./.")
        lex = {"recommend": POSITIVE}
        pairs = extract_sentences(
            (s,), resources.aspect_dictionary, lex, resources.pattern_set,
        )
        assert pairs == []

    def test_fallback_does_not_duplicate_pattern_pairs(self, resources):
        s = sent("the/DT sound/NN is/VBZ wonderful/JJ ./.")
        pairs = extract_sentences(
            (s,), resources.aspect_dictionary, resources.opinion_lexicon,
            resources.pattern_set,
        )
        assert len(pairs) == 1
        assert pairs[0].pattern_name == "noun-is-adj"

    def test_conjunction_expansion_applies(self, resources):
        s = sent("it/PRP has/VBZ a/DT decent/JJ size/NN and/CC weight/NN ./.")
        pairs = extract_sentences(
            (s,), resources.aspect_dictionary, resources.opinion_lexicon,
            resources.pattern_set,
        )
        assert [(p.aspect_surface, p.opinion_surface) for p in pairs] == [
            ("size", "decent"),
            ("weight", "decent"),
        ]

    def test_conjunction_disabled(self, resources):
        s = sent("it/PRP has/VBZ a/DT decent/JJ size/NN and/CC weight/NN ./.")
        pairs = extract_sentences(
            (s,), resources.aspect_dictionary, resources.opinion_lexicon,
            resources.pattern_set, conjunction=False,
        )
        assert [(p.aspect_surface, p.opinion_surface) for p in pairs] == [
            ("size", "decent"),
        ]

    def test_conjunction_expansion_not_chained(self, resources):
        s = sent("a/DT nice/JJ size/NN and/CC weight/NN and/CC strap/NN ./.")
        pairs = extract_sentences(
            (s,), resources.aspect_dictionary, resources.opinion_lexicon,
            resources.pattern_set,
        )
        aspects = [p.aspect_surface for p in pairs]
        assert aspects == ["size", "weight"]

    def test_results_sorted(self, resources):
        s = sent(
            "great/JJ looking/VBG camera/NN with/IN a/DT screen/NN "
            "that/WDT is/VBZ awful/JJ ./."
        )
        pairs = extract_sentences(
            (s,), resources.aspect_dictionary, resources.opinion_lexicon,
            resources.pattern_set,
        )
        positions = [(p.aspect_index, p.opinion_index) for p in pairs]
        assert positions == sorted(positions)


# The staged extraction the single core replaced: one matcher call per
# pattern, pattern pairs first, then the fallback and the conjunction
# loops, each with its own set of claimed positions.  Kept as the oracle
# of the differential test below, reading the sentence's two columns,
# together with frozen copies of the aspect search it called (noun runs,
# span resolution, the nearest search and the normalizing dictionary
# lookup) and of the polarity lookup; its longest-entry scan is
# ``test_lexicons.scanned_match``.  So the oracle calls no code under test.


class AspectSpan(NamedTuple):
    start: int
    end: int
    surface: str


def oracle_polarity(lexicon, word):
    """The orientation the lexicon maps ``word`` to in any case, or None."""
    return lexicon.get(word.lower())


def staged_lookup(dictionary, term):
    return dictionary.entries.get(" ".join(term.lower().split()))


def staged_noun_run(sentence, index):
    tags = sentence.tags
    if tags[index] not in NOUN_TAGS:
        return index, index + 1
    start = index
    while start > 0 and tags[start - 1] in NOUN_TAGS:
        start -= 1
    end = index + 1
    while end < len(tags) and tags[end] in NOUN_TAGS:
        end += 1
    return start, end


def staged_resolve_aspect(sentence, index, dictionary):
    start, end = staged_noun_run(sentence, index)
    words = [w.lower() for w in sentence.surfaces[start:end]]
    surface = " ".join(words)
    canonical = staged_lookup(dictionary, surface)
    if canonical is None:
        canonical = staged_lookup(dictionary, words[index - start])
    return AspectSpan(start=start, end=end, surface=canonical or surface)


def staged_nearest_aspect_search(sentence, opinion_index, dictionary):
    words_lower = [w.lower() for w in sentence.surfaces]
    tags = sentence.tags

    def candidate(j):
        if tags[j] in NOUN_TAGS:
            return staged_resolve_aspect(sentence, j, dictionary)
        hit = scanned_match(dictionary.entries, words_lower, j)
        if hit is not None:
            n, canonical = hit
            return AspectSpan(start=j, end=j + n, surface=canonical)
        return None

    for j in range(opinion_index - 1, -1, -1):
        span = candidate(j)
        if span is not None:
            return span
    for j in range(opinion_index + 1, len(tags)):
        span = candidate(j)
        if span is not None:
            return span
    return None


def staged_match_pattern(sentence, pattern):
    tags = sentence.tags
    width = len(pattern.tags)
    want = pattern.tags
    return [
        start
        for start in range(len(tags) - width + 1)
        if tuple(tags[start : start + width]) == want
    ]


def staged_extract_pairs(sentence, dictionary, lexicon, pattern_set):
    surfaces = sentence.surfaces
    found = {}
    for pattern in pattern_set.patterns:
        for start in staged_match_pattern(sentence, pattern):
            oi = start + pattern.opinion_offset
            orientation = oracle_polarity(lexicon, surfaces[oi])
            if orientation is None:
                continue
            if pattern.aspect_offset is not None:
                aspect = start + pattern.aspect_offset
                span = staged_resolve_aspect(sentence, aspect, dictionary)
            else:
                span = staged_nearest_aspect_search(sentence, oi, dictionary)
                if span is None:
                    continue
            key = (span.start, oi)
            if key not in found:
                found[key] = AspectOpinionPair(
                    aspect_surface=span.surface,
                    opinion_surface=surfaces[oi].lower(),
                    orientation=orientation,
                    sentence=sentence,
                    aspect_index=span.start,
                    opinion_index=oi,
                    pattern_name=pattern.name,
                    aspect_end=span.end,
                )
    return sorted(found.values(), key=lambda p: (p.aspect_index, p.opinion_index))


def staged_conjunction_expand(pair, sentence, dictionary):
    tags = sentence.tags
    after = pair.aspect_end
    if after + 1 >= len(tags):
        return [pair]
    if tags[after] != "CC" or tags[after + 1] not in NOUN_TAGS:
        return [pair]
    span = staged_resolve_aspect(sentence, after + 1, dictionary)
    extra = AspectOpinionPair(
        aspect_surface=span.surface,
        opinion_surface=pair.opinion_surface,
        orientation=pair.orientation,
        sentence=sentence,
        aspect_index=span.start,
        opinion_index=pair.opinion_index,
        pattern_name=pair.pattern_name,
        aspect_end=span.end,
    )
    return [pair, extra]


def staged_extract(
    sentence, dictionary, lexicon, pattern_set, *, fallback=True, conjunction=True
):
    pairs = staged_extract_pairs(sentence, dictionary, lexicon, pattern_set)
    keys = {(p.aspect_index, p.opinion_index) for p in pairs}
    if fallback:
        claimed = {p.opinion_index for p in pairs}
        for i, (surface, tag) in enumerate(zip(sentence.surfaces, sentence.tags)):
            if i in claimed or tag not in OPINION_ROLE_TAGS:
                continue
            orientation = oracle_polarity(lexicon, surface)
            if orientation is None:
                continue
            span = staged_nearest_aspect_search(sentence, i, dictionary)
            if span is None or (span.start, i) in keys:
                continue
            keys.add((span.start, i))
            pairs.append(
                AspectOpinionPair(
                    aspect_surface=span.surface,
                    opinion_surface=surface.lower(),
                    orientation=orientation,
                    sentence=sentence,
                    aspect_index=span.start,
                    opinion_index=i,
                    pattern_name=FALLBACK_PATTERN_NAME,
                    aspect_end=span.end,
                )
            )
    if conjunction:
        expanded = []
        for pair in pairs:
            for out in staged_conjunction_expand(pair, sentence, dictionary):
                key = (out.aspect_index, out.opinion_index)
                if out is pair or key not in keys:
                    keys.add(key)
                    expanded.append(out)
        pairs = expanded
    return sorted(pairs, key=lambda p: (p.aspect_index, p.opinion_index))


# Words that are polar, dictionary terms, both ("quality") or neither; tags
# weighted towards nouns and CC so noun runs and coordinations are common.
DIFF_WORDS = [
    "battery", "life", "sound", "quality", "audio", "zoom", "lens", "strap",
    "good", "Nice", "fast", "awful", "broken", "bad", "is", "and", "the", "very",
]
DIFF_TAGS = [
    "NN", "NN", "NNS", "CC", "CC", "JJ", "JJ", "RB", "VBD", "VBG", "VBN",
    "VBZ", "VBP", "DT", "IN", "VB",
]
DIFF_LEXICON = {
    **dict.fromkeys(("good", "nice", "fast", "quality"), POSITIVE),
    **dict.fromkeys(("awful", "broken", "bad"), NEGATIVE),
}
# Multi-word terms (up to three words), synonyms, and terms that the random
# tags often mark as non-nouns, which only the dictionary search finds.
DIFF_ENTRIES = [
    ("battery", "battery"), ("battery life", "battery life"), ("life", "battery life"),
    ("the battery life", "battery life"), ("sound", "sound"), ("audio", "sound"),
    ("sound quality", "sound"), ("zoom", "zoom"), ("zoom lens", "zoom"),
    ("very good", "very good"),
]
BUNDLED_PATTERNS = load_pattern_set(data_dir() / "patterns.txt")


@st.composite
def tag_patterns(draw):
    """A valid pattern of 2..4 tags, with or without an aspect position."""
    tags = draw(st.lists(st.sampled_from(DIFF_TAGS), min_size=2, max_size=4))
    opinion = draw(st.integers(0, len(tags) - 1))
    tags[opinion] = draw(st.sampled_from(["JJ", "RB", "VBD", "VBG", "VBN"]))
    aspect = draw(st.one_of(st.none(), st.integers(0, len(tags) - 2)))
    if aspect is not None:
        aspect += aspect >= opinion
        tags[aspect] = draw(st.sampled_from(["NN", "NNS"]))
    return TagPattern(tags=tuple(tags), opinion_offset=opinion, aspect_offset=aspect)


pattern_sets = st.one_of(
    st.just(BUNDLED_PATTERNS),
    st.lists(
        tag_patterns(),
        max_size=6,
        unique_by=lambda p: (p.tags, p.aspect_offset, p.opinion_offset),
    ).map(lambda patterns: PatternSet(patterns=tuple(patterns))),
)

# Nouns, polar or neutral opinion-role tokens and conjunctions, plus any
# word under any tag, so noun runs, coordinations and unclaimed opinion
# words are common.
diff_tokens = st.one_of(
    st.tuples(
        st.sampled_from(["battery", "life", "sound", "quality", "lens", "strap"]),
        st.sampled_from(["NN", "NNS"]),
    ),
    st.tuples(
        st.sampled_from(["good", "Nice", "fast", "awful", "broken", "very"]),
        st.sampled_from(sorted(OPINION_ROLE_TAGS)),
    ),
    st.just(("and", "CC")),
    st.tuples(st.sampled_from(DIFF_WORDS), st.sampled_from(DIFF_TAGS)),
)
sentences = st.lists(diff_tokens, max_size=14).map(
    lambda drawn: TaggedSentence(
        surfaces=tuple(w for w, _ in drawn), tags=tuple(t for _, t in drawn)
    )
)


# Words to fill a drawn tag: polar or neutral opinion words, dictionary
# nouns, a conjunction, or anything.
WORDS_FOR_TAG = {
    **{tag: ["good", "Nice", "awful", "broken", "very", "is"] for tag in OPINION_ROLE_TAGS},
    **{tag: ["battery", "life", "sound", "zoom", "lens"] for tag in ("NN", "NNS")},
    "CC": ["and"],
}


@st.composite
def shared_first_tag_cases(draw):
    """A pattern set and a sentence where patterns overlap in the scan.

    Most patterns are prefixes of one drawn tag run with their roles at
    any fitting positions, so several share a first tag, two (same tags,
    other roles, or a prefix and its extension) match at one start, and
    the longer ones overrun sentences holding a short prefix.  A few
    free patterns are mixed in.  The sentence strings prefixes of the
    run together with random tags and ``CC NN``, which coordinates an
    aspect span with a noun for the conjunction pass.
    """
    run = draw(st.lists(st.sampled_from(DIFF_TAGS), min_size=MAX_PATTERN_LEN,
                        max_size=MAX_PATTERN_LEN))
    run[draw(st.integers(0, 2))] = draw(st.sampled_from(["JJ", "RB", "VBD", "VBG", "VBN"]))
    for _ in range(draw(st.integers(0, 2))):
        noun = draw(st.integers(0, MAX_PATTERN_LEN - 1))
        run[noun] = draw(st.sampled_from(["NN", "NNS"]))
    patterns = {}
    for width in draw(st.lists(st.integers(MIN_PATTERN_LEN, MAX_PATTERN_LEN), max_size=8)):
        tags = tuple(run[:width])
        opinions = [i for i, t in enumerate(tags) if t in OPINION_ROLE_TAGS]
        if not opinions:
            continue
        opinion = draw(st.sampled_from(opinions))
        nouns = [i for i, t in enumerate(tags) if t in NOUN_TAGS and i != opinion]
        aspect = draw(st.one_of(st.none(), st.sampled_from(nouns))) if nouns else None
        pattern = TagPattern(tags=tags, opinion_offset=opinion, aspect_offset=aspect)
        patterns.setdefault((tags, opinion, aspect), pattern)
    for p in draw(st.lists(tag_patterns(), max_size=3)):
        patterns.setdefault((p.tags, p.opinion_offset, p.aspect_offset), p)
    ordered = draw(st.permutations(list(patterns.values())))
    pieces = draw(st.lists(
        st.one_of(
            st.integers(1, MAX_PATTERN_LEN).map(lambda n: run[:n]),
            st.lists(st.sampled_from(DIFF_TAGS), max_size=3),
            st.just(["CC", "NN"]),
        ),
        max_size=4,
    ))
    tags = [tag for piece in pieces for tag in piece]
    words = [draw(st.sampled_from(WORDS_FOR_TAG.get(tag, DIFF_WORDS))) for tag in tags]
    sentence = TaggedSentence(surfaces=tuple(words), tags=tuple(tags))
    return sentence, PatternSet(patterns=tuple(ordered))


def brute_force_scan(pattern_set, tags):
    """The scan by its definition: each pattern compared at every start.

    Gives the sorted ``(rank, start, row)`` hits, each row as the scan
    records it, and the positions of the tags that may hold an opinion.
    """
    hits = sorted(
        (rank, start, (rank, len(p.tags), p.opinion_offset, p.aspect_offset, p.name))
        for rank, p in enumerate(pattern_set.patterns)
        for start in range(len(tags) - len(p.tags) + 1)
        if tuple(tags[start : start + len(p.tags)]) == p.tags
    )
    return hits, [i for i, tag in enumerate(tags) if tag in OPINION_ROLE_TAGS]


def automaton_scan(pattern_set, tags):
    """The scan as ``extract_sentences`` walks ``pattern_set.automaton``."""
    hits, opinion_positions, state = [], [], 0
    for i, tag in enumerate(tags):
        state, rows, opinion_role = pattern_set.automaton[state].get(tag, _MISS)
        hits.extend((row[0], i - row[1] + 1, row) for row in rows)
        if opinion_role:
            opinion_positions.append(i)
    return sorted(hits), opinion_positions


# Tags the overlapping patterns are drawn from, and tags none of them holds.
SCAN_TAGS = ["NN", "NN", "NNS", "JJ", "JJ", "RB", "VBZ", "CC"]
OUTSIDE_TAGS = ["IN", "DT", "PRP", "VBG"]


@st.composite
def overlapping_pattern_sets(draw):
    """A pattern set whose patterns overlap, and tags that string them together.

    The patterns are windows of one drawn run of tags, so one can be a
    prefix, suffix or infix of another, and runs of one tag (``NN NN``);
    each tag sequence takes one or two role placements, so patterns with
    the same tags and other roles occur.  The scanned tags join windows
    of the run with tags of the run and tags outside every pattern.
    """
    run = draw(st.lists(st.sampled_from(SCAN_TAGS), min_size=4, max_size=10))
    run[draw(st.integers(0, len(run) - 1))] = draw(st.sampled_from(["JJ", "RB"]))
    sequences = draw(st.lists(
        st.one_of(
            st.tuples(st.integers(0, len(run) - 2), st.integers(MIN_PATTERN_LEN, MAX_PATTERN_LEN))
            .map(lambda w: tuple(run[w[0] : w[0] + w[1]]))
            .filter(lambda tags: len(tags) >= MIN_PATTERN_LEN),
            st.tuples(st.sampled_from(SCAN_TAGS), st.integers(MIN_PATTERN_LEN, 4))
            .map(lambda t: (t[0],) * t[1]),
        ),
        min_size=1, max_size=8,
    ))
    patterns = {}
    for tags in sequences:
        opinions = [i for i, tag in enumerate(tags) if tag in OPINION_ROLE_TAGS]
        if not opinions:
            continue
        for _ in range(draw(st.integers(1, 2))):
            opinion = draw(st.sampled_from(opinions))
            nouns = [i for i, tag in enumerate(tags) if tag in NOUN_TAGS and i != opinion]
            aspect = draw(st.one_of(st.none(), *map(st.just, nouns)))
            patterns.setdefault(
                (tags, opinion, aspect),
                TagPattern(tags=tags, opinion_offset=opinion, aspect_offset=aspect),
            )
    pieces = draw(st.lists(
        st.one_of(
            st.sampled_from([p.tags for p in patterns.values()] or sequences).map(list),
            st.lists(st.sampled_from(SCAN_TAGS + OUTSIDE_TAGS), max_size=3),
        ),
        min_size=1, max_size=6,
    ))
    tags = [tag for piece in pieces for tag in piece]
    tags.insert(draw(st.integers(0, len(tags))), draw(st.sampled_from(OUTSIDE_TAGS)))
    ordered = draw(st.permutations(list(patterns.values())))
    return PatternSet(patterns=tuple(ordered)), tags


class TestAutomatonAgainstBruteForce:
    @given(overlapping_pattern_sets())
    @settings(max_examples=500, deadline=None)
    # JJ NN is a suffix and JJ JJ a prefix of JJ JJ NN, which has two role
    # placements; JJ JJ is an infix of RB JJ JJ NN; runs of JJ and of NN
    # make states that fall back onto states of the same tag.
    @example((
        PatternSet(patterns=(
            TagPattern(tags=("RB", "JJ", "JJ", "NN"), opinion_offset=1, aspect_offset=3),
            TagPattern(tags=("JJ", "JJ", "NN"), opinion_offset=1, aspect_offset=2),
            TagPattern(tags=("JJ", "NN"), opinion_offset=0, aspect_offset=1),
            TagPattern(tags=("JJ", "JJ", "NN"), opinion_offset=0, aspect_offset=2),
            TagPattern(tags=("JJ", "JJ"), opinion_offset=0),
            TagPattern(tags=("NN", "NN", "JJ"), opinion_offset=2, aspect_offset=0),
        )),
        ["JJ", "JJ", "JJ", "NN", "IN", "NN", "NN", "NN", "JJ", "RB", "JJ", "JJ", "NN"],
    ))
    def test_hits_and_opinion_positions_equal_brute_force(self, case):
        pattern_set, tags = case
        assert automaton_scan(pattern_set, tags) == brute_force_scan(pattern_set, tags)

    def test_bundled_table_on_the_samples(self, resources, sample_tagged, minieval_tagged):
        for sentence in sample_tagged + minieval_tagged:
            assert automaton_scan(resources.pattern_set, sentence.tags) == brute_force_scan(
                resources.pattern_set, sentence.tags
            )


def pair_rows(pairs):
    """Every field of every pair, in output order."""
    return [tuple(getattr(p, f.name) for f in fields(p)) for p in pairs]


def assert_equal_to_oracle(sentence, dictionary, lexicon, pattern_set):
    """Every field and the order of the pairs, under all four options."""
    for fallback in (True, False):
        for conjunction in (True, False):
            options = {"fallback": fallback, "conjunction": conjunction}
            got = extract_sentences((sentence,), dictionary, lexicon, pattern_set, **options)
            want = staged_extract(sentence, dictionary, lexicon, pattern_set, **options)
            assert pair_rows(got) == pair_rows(want), options


class TestSingleCoreAgainstStagedOracle:
    @given(sentences, st.sets(st.sampled_from(DIFF_ENTRIES)), pattern_sets)
    @settings(max_examples=500, deadline=None)
    # A fallback pair whose aspect is coordinated: conjunction follows it.
    @example(sent("fast/RB battery/NN and/CC sound/NN"), set(), BUNDLED_PATTERNS)
    # Two patterns claim one opinion with aspects ending at the same token:
    # the copy takes the pattern name of the pair first in position order.
    @example(
        sent("good/JJ zoom/VBG lens/NN and/CC strap/NN"),
        {("zoom lens", "zoom")},
        PatternSet(
            patterns=(
                TagPattern(tags=("JJ", "VBG", "NN"), opinion_offset=0, aspect_offset=2),
                TagPattern(tags=("JJ", "VBG"), opinion_offset=0),
            )
        ),
    )
    def test_pairs_equal_oracle(self, sentence, entries, pattern_set):
        d = AspectDictionary(entries=dict(entries))
        assert_equal_to_oracle(sentence, d, DIFF_LEXICON, pattern_set)

    @given(shared_first_tag_cases(), st.sets(st.sampled_from(DIFF_ENTRIES)))
    @settings(max_examples=500, deadline=None)
    # The first pattern hits after the second, and both claim (0, 2): the
    # hits are claimed pattern by pattern, not start by start.
    @example(
        (
            sent("battery/NN is/VBZ good/JJ"),
            PatternSet(
                patterns=(
                    TagPattern(tags=("VBZ", "JJ"), opinion_offset=1),
                    TagPattern(
                        tags=("NN", "VBZ", "JJ"), opinion_offset=2, aspect_offset=0
                    ),
                )
            ),
        ),
        set(),
    )
    def test_pairs_equal_oracle_on_shared_first_tags(self, case, entries):
        sentence, pattern_set = case
        d = AspectDictionary(entries=dict(entries))
        assert_equal_to_oracle(sentence, d, DIFF_LEXICON, pattern_set)

    @pytest.mark.parametrize(
        "cases",
        [sentences.map(lambda s: (s, BUNDLED_PATTERNS)), shared_first_tag_cases()],
        ids=["sentences", "shared_first_tag_cases"],
    )
    def test_strategies_reach_the_conjunction_pass(self, cases):
        # Both oracle comparisons draw coordinated aspects (a CC after an
        # aspect span, then a noun) that the oracle's conjunction pass copies
        # a pair onto, so that pass is compared, not only skipped.
        d = AspectDictionary(entries=dict(DIFF_ENTRIES))

        def copies_a_pair(case):
            args = (case[0], d, DIFF_LEXICON, case[1])
            return len(staged_extract(*args)) > len(staged_extract(*args, conjunction=False))

        sentence, _ = find(
            cases, copies_a_pair,
            settings=settings(max_examples=5000, database=None, phases=[Phase.generate]),
        )
        assert "CC" in sentence.tags

    def test_oracle_agrees_on_sample(self, resources, sample_tagged, minieval_tagged):
        for sentence in sample_tagged + minieval_tagged:
            assert_equal_to_oracle(
                sentence, resources.aspect_dictionary, resources.opinion_lexicon,
                resources.pattern_set,
            )


corpora = st.tuples(st.lists(sentences, min_size=1, max_size=6), st.integers(1, 10_000)).map(
    lambda drawn: [
        TaggedSentence(s.surfaces, s.tags, None, position)
        for position, s in enumerate(drawn[0], drawn[1])
    ]
)
BUNDLED_RESOURCES = load_resources()


class TestCorpusCoreAgainstStagedOracle:
    """One call over many sentences equals the oracle run sentence by
    sentence, so no per-sentence state carries over to the next."""

    @given(corpora, st.sets(st.sampled_from(DIFF_ENTRIES)), pattern_sets)
    @settings(max_examples=300, deadline=None)
    # Pairs, then no pair, then a pattern pair copied across "and".
    @example(
        [
            sent("the/DT sound/NN is/VBZ good/JJ ./.", position=7),
            sent("it/PRP works/VBZ ./.", position=8),
            sent("good/JJ sound/NN and/CC lens/NN ./.", position=9),
        ],
        set(),
        BUNDLED_PATTERNS,
    )
    def test_corpus_equals_oracle_sentence_by_sentence(self, tagged, entries, pattern_set):
        d = AspectDictionary(entries=dict(entries))
        res = replace(
            BUNDLED_RESOURCES,
            opinion_lexicon=DIFF_LEXICON, aspect_dictionary=d, pattern_set=pattern_set,
        )
        for fallback in (True, False):
            for conjunction in (True, False):
                options = {"fallback": fallback, "conjunction": conjunction}
                want = [
                    pair
                    for sentence in tagged
                    for pair in staged_extract(
                        sentence, d, DIFF_LEXICON, pattern_set, **options
                    )
                ]
                assert pair_rows(extract_corpus(tagged, res, **options)) == pair_rows(want)
                direct = extract_sentences(iter(tagged), d, DIFF_LEXICON, pattern_set, **options)
                assert pair_rows(direct) == pair_rows(want), options


class TestSurfaceContract:
    """Every surface extraction writes is what grouping takes as given:
    lowercase, single-space normalized, and under a closed dictionary
    either no entry or an entry mapping to itself."""

    @given(sentences, st.sets(st.sampled_from(DIFF_ENTRIES)), pattern_sets)
    @settings(max_examples=300, deadline=None)
    # A synonym span and a synonym anchor both come out as their canonical.
    @example(
        sent("Audio/NN is/VBZ good/JJ and/CC the/DT Life/NN is/VBZ bad/JJ"),
        {("audio", "sound"), ("life", "battery life")},
        BUNDLED_PATTERNS,
    )
    def test_surfaces_are_lowercase_normalized_canonicals(
        self, sentence, drawn, pattern_set
    ):
        entries = closed_entries(drawn)
        d = AspectDictionary(entries=entries)
        for fallback in (True, False):
            for conjunction in (True, False):
                pairs = extract_sentences(
                    [sentence], d, DIFF_LEXICON, pattern_set,
                    fallback=fallback, conjunction=conjunction,
                )
                for p in pairs:
                    surface = p.aspect_surface
                    assert surface == surface.lower()
                    assert surface == " ".join(surface.split())
                    assert entries.get(surface, surface) == surface


def brute_force_supports(sentence_tags, min_support, max_len):
    """Mining by its definition: every run of 2..``max_len`` tags counted
    once per sentence that holds it, the runs held by at least
    ``min_support`` sentences as ``MinedPattern`` rows in the documented
    order (support down, then length down, then tags)."""
    supports = {}
    for tags in sentence_tags:
        seen = set()
        for n in range(2, max_len + 1):
            for start in range(len(tags) - n + 1):
                seen.add(tuple(tags[start : start + n]))
        for gram in seen:
            supports[gram] = supports.get(gram, 0) + 1
    mined = [
        MinedPattern(tags=gram, support=sup, support_ratio=sup / len(sentence_tags))
        for gram, sup in supports.items()
        if sup >= min_support
    ]
    mined.sort(key=lambda m: (-m.support, -len(m.tags), m.tags))
    return mined


class TestMiningAgainstBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(
        corpus=st.lists(
            st.lists(
                st.sampled_from(["DT", "NN", "NNS", "VBZ", "JJ", "RB", "CC", "IN"]),
                max_size=14,
            ),
            min_size=1,
            max_size=12,
        ),
        min_support=st.integers(1, 4),
        max_len=st.integers(MIN_PATTERN_LEN, MAX_PATTERN_LEN),
    )
    def test_same_patterns_in_the_same_order(self, corpus, min_support, max_len):
        tagged = [sent_from_tags(tags, position=i) for i, tags in enumerate(corpus)]
        expected = brute_force_supports(corpus, min_support, max_len)
        assert mine_frequent_tag_sets(tagged, min_support, max_len) == expected

    def test_sample_corpus(self, sample_tagged):
        expected = brute_force_supports([s.tags for s in sample_tagged], 2, MAX_PATTERN_LEN)
        assert mine_frequent_tag_sets(sample_tagged, 2) == expected

    def test_reference_gives_the_hand_worked_rows(self):
        # the one mining reference, held to rows worked by hand
        corpus = [["DT", "NN", "VBZ", "JJ"], ["DT", "NN", "VBZ", "JJ"], ["DT", "NN", "VBP", "RB"]]
        assert brute_force_supports(corpus, 2, 3) == [
            MinedPattern(("DT", "NN"), 3, 1.0),
            MinedPattern(("DT", "NN", "VBZ"), 2, 2 / 3),
            MinedPattern(("NN", "VBZ", "JJ"), 2, 2 / 3),
            MinedPattern(("NN", "VBZ"), 2, 2 / 3),
            MinedPattern(("VBZ", "JJ"), 2, 2 / 3),
        ]


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

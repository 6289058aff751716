"""The columnar TaggedSentence against the Token-row code it replaced.

A TaggedSentence holds its surfaces and tags as two parallel tuples.
The parser, tagger and scorer below are the row versions it replaced,
kept as oracles: the parser and tagger built a tuple of
``Token(surface, tag)`` rows, and the scorer read them.  The columns must equal those rows, with the
same errors, and the scores must be equal.
"""

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectminer.errors import ParseError
from aspectminer.scoring import weight_sentence
from aspectminer.tagger import (
    PENN_TAGS,
    VERB_TAGS,
    TaggedSentence,
    Token,
    base_form_candidates,
    parse_pretagged,
)


def oracle_parse_pretagged(line):
    """The row parse: ``parse_pretagged`` before the columns."""
    tokens = []
    for i, item in enumerate(line.split()):
        surface, sep, tag = item.rpartition("/")
        if not sep:
            raise ParseError(f"item {i + 1} {item!r} has no '/' delimiter")
        if not surface:
            raise ParseError(f"item {i + 1} {item!r} has an empty word")
        if tag not in PENN_TAGS:
            raise ParseError(f"item {i + 1} {item!r}: unknown tag {tag!r}")
        tokens.append(Token(surface, tag))
    if not tokens:
        raise ParseError("empty pretagged line")
    return tuple(tokens)


def oracle_tag(tagger, words):
    """The row tagger: ``BaselineTagger.tag`` before the columns."""
    if not words:
        raise ValueError("empty sentence")
    return tuple(Token(w, tagger.tag_word(w, i)) for i, w in enumerate(words))


ORACLE_TAG_WEIGHTS = {"JJ": 1, "JJR": 2, "JJS": 3, "RB": 1, "RBR": 2, "RBS": 3}


def oracle_weight(tokens, verbs):
    """The row scorer: ``weight_sentence``'s two sums before the columns."""
    adj_points = sum(ORACLE_TAG_WEIGHTS.get(token.tag, 0) for token in tokens)
    verb_points = 0
    for token in tokens:
        if token.tag not in VERB_TAGS:
            continue
        for base in base_form_candidates(token.surface):
            orientation = verbs.orientations.get(base, 0)
            if orientation != 0:
                verb_points += orientation
                break
    return adj_points, verb_points


def rows(sentence):
    return list(zip(sentence.surfaces, sentence.tags))


def outcome(call, *args):
    """``call(*args)``, or the type and message of what it raised."""
    try:
        return call(*args)
    except (ParseError, ValueError) as exc:
        return type(exc), str(exc)


WORDS = ["the", "sound", "is", "great", "/", "a/b", "Canon", "works", "breaks",
         "improved", "runs", "lasting", "quickly", "and", ".", ",", "-LRB-", "x"]
words = st.one_of(
    st.sampled_from(WORDS),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6).filter(
        lambda w: not any(ch.isspace() for ch in w)
    ),
)
tags = st.sampled_from(sorted(PENN_TAGS))
pretagged_lines = st.lists(st.tuples(words, tags), max_size=12).flatmap(
    lambda drawn: st.lists(
        st.sampled_from([" ", "  ", "\t"]), min_size=len(drawn) + 1, max_size=len(drawn) + 1
    ).map(
        lambda gaps: gaps[0] + "".join(f"{w}/{t}{gap}" for (w, t), gap in zip(drawn, gaps[1:]))
    )
)
any_lines = st.one_of(
    pretagged_lines,
    st.lists(st.one_of(st.sampled_from(["w/NN", "/NN", "w/", "w", "w/XYZ", " "]), words))
    .map(" ".join),
)


class TestParseAndTagAgainstRowOracles:
    @given(pretagged_lines)
    @settings(max_examples=300, deadline=None)
    def test_well_formed_lines_parse_to_the_oracle_rows(self, line):
        expected = outcome(oracle_parse_pretagged, line)
        got = outcome(parse_pretagged, line, None, 5)
        if line.split():
            assert rows(got) == list(expected)
            assert got.position == 5 and got.source is None
        else:
            assert got == expected == (ParseError, "empty pretagged line")

    @given(any_lines)
    @settings(max_examples=300, deadline=None)
    def test_any_line_parses_or_fails_as_the_oracle_does(self, line):
        expected = outcome(oracle_parse_pretagged, line)
        got = outcome(parse_pretagged, line)
        if isinstance(got, TaggedSentence):
            assert rows(got) == list(expected)
        else:
            assert got == expected

    @given(st.lists(words, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_tagger_columns_equal_the_oracle_rows(self, resources, drawn):
        tagger = resources.tagger()
        expected = outcome(oracle_tag, tagger, drawn)
        got = outcome(tagger.tag, drawn)
        if isinstance(got, TaggedSentence):
            assert rows(got) == list(expected)
        else:
            assert got == expected


# Inflections of bundled verb-category entries, and verbs of no category.
VERBS = ["tells", "argued", "chattering", "gabbed", "advising", "instructs", "warned",
         "cautions", "admonishing", "works", "stopped", "is", "has"]


class TestScoresAgainstRowOracle:
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from(VERBS), words),
                st.one_of(st.sampled_from(sorted(VERB_TAGS)), tags),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_scores_equal(self, resources, drawn):
        sentence = TaggedSentence(
            surfaces=tuple(w for w, _ in drawn), tags=tuple(t for _, t in drawn)
        )
        score = weight_sentence(sentence, resources.verb_categories)
        expected = oracle_weight([Token(w, t) for w, t in drawn], resources.verb_categories)
        assert (score.adjective_adverb_points, score.verb_points) == expected

    def test_sample_scores_equal(self, resources, sample_tagged):
        verbs = resources.verb_categories
        sentences = list(sample_tagged) + [
            parse_pretagged("they/PRP warned/VBD us/PRP ./."),
            parse_pretagged("it/PRP tells/VBZ and/CC advises/VBZ well/RB ./."),
        ]
        scores = [weight_sentence(tagged, verbs) for tagged in sentences]
        assert [(s.adjective_adverb_points, s.verb_points) for s in scores] == [
            oracle_weight(tagged.tokens, verbs) for tagged in sentences
        ]
        assert [s.verb_points for s in scores[-2:]] == [-1, 2]


class TestTokensView:
    def test_tokens_are_the_zipped_rows(self):
        sentence = parse_pretagged("the/DT sound/NN is/VBZ great/JJ ./.")
        assert sentence.tokens == (
            Token("the", "DT"), Token("sound", "NN"), Token("is", "VBZ"),
            Token("great", "JJ"), Token(".", "."),
        )
        assert sentence.tokens[1].surface == "sound"
        assert sentence.tokens[1].tag == "NN"

    @given(st.lists(st.tuples(words, tags), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_tokens_view_matches_columns(self, drawn):
        sentence = TaggedSentence(
            surfaces=tuple(w for w, _ in drawn), tags=tuple(t for _, t in drawn)
        )
        assert sentence.tokens == tuple(Token(w, t) for w, t in drawn)
        assert len(sentence.tokens) == len(sentence.surfaces)

    def test_columns_are_frozen_slots(self):
        sentence = parse_pretagged("good/JJ ./.")
        with pytest.raises(FrozenInstanceError):
            sentence.surfaces = ()
        assert not hasattr(sentence, "__dict__")

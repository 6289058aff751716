"""Tests for opinion lexicons, the aspect dictionary, verb categories,
and the tag weight table."""

import pytest

from aspectminer.errors import ParseError
from aspectminer.lexicons import (
    DEFAULT_TAG_WEIGHTS,
    NEGATIVE,
    NONE,
    POSITIVE,
    AspectDictionary,
    OpinionLexicon,
    TagWeightTable,
    VerbCategory,
    VerbCategoryLexicon,
    load_aspect_dictionary,
    load_opinion_lexicon,
    load_verb_categories,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestOpinionLexicon:
    def test_polarity_classes(self):
        lex = OpinionLexicon(positive=frozenset({"good"}), negative=frozenset({"bad"}))
        assert lex.polarity("good") == POSITIVE
        assert lex.polarity("bad") == NEGATIVE
        assert lex.polarity("table") == NONE

    def test_polarity_case_insensitive(self):
        lex = OpinionLexicon(positive=frozenset({"good"}), negative=frozenset())
        assert lex.polarity("Good") == POSITIVE
        assert lex.polarity("GOOD") == POSITIVE

    def test_unlisted_word_has_no_polarity(self):
        lex = OpinionLexicon(positive=frozenset({"fine"}), negative=frozenset())
        assert lex.polarity("fine") == POSITIVE
        assert lex.polarity("poor") == NONE

    def test_load_from_files(self, tmp_path):
        pos = write(tmp_path / "pos.txt", "; header comment\ngood\nGreat\n\nnice\n")
        neg = write(tmp_path / "neg.txt", "# header\nbad\npoor\n")
        lex = load_opinion_lexicon(pos, neg)
        assert lex.positive == {"good", "great", "nice"}
        assert lex.negative == {"bad", "poor"}

    def test_overlap_rejected(self, tmp_path):
        pos = write(tmp_path / "pos.txt", "good\nshared\n")
        neg = write(tmp_path / "neg.txt", "bad\nshared\n")
        with pytest.raises(ParseError) as exc:
            load_opinion_lexicon(pos, neg)
        assert "shared" in str(exc.value)

    def test_overlap_listing_capped_at_twenty(self, tmp_path):
        words = [f"w{i:02d}" for i in range(30)]
        pos = write(tmp_path / "pos.txt", "\n".join(words))
        neg = write(tmp_path / "neg.txt", "\n".join(words))
        with pytest.raises(ParseError) as exc:
            load_opinion_lexicon(pos, neg)
        msg = str(exc.value)
        assert "30 word(s)" in msg
        listed = msg.rsplit(": ", 1)[-1].split(", ")
        assert len(listed) == 20

    def test_missing_file(self, tmp_path):
        pos = write(tmp_path / "pos.txt", "good\n")
        with pytest.raises(FileNotFoundError):
            load_opinion_lexicon(pos, tmp_path / "absent.txt")

    def test_bundled_lists_disjoint(self, resources):
        lex = resources.opinion_lexicon
        assert not (lex.positive & lex.negative)
        assert lex.polarity("great") == POSITIVE
        assert lex.polarity("poor") == NEGATIVE


class TestAspectDictionary:
    def test_lookup_normalizes(self):
        d = AspectDictionary(entries={"battery life": "battery life"})
        assert d.lookup("Battery  Life") == "battery life"
        assert d.lookup("battery") is None
        assert d.lookup("battery life") is not None
        assert d.lookup("battery") is None

    def test_max_words(self):
        d = AspectDictionary(entries={"a": "a", "b c d": "b c d"})
        assert d.max_words == 3
        assert AspectDictionary().max_words == 0

    def test_match_at_prefers_longest(self):
        d = AspectDictionary(
            entries={"battery": "battery", "battery life": "battery life"}
        )
        words = ["the", "battery", "life", "rocks"]
        assert d.match_at(words, 1) == (2, "battery life")
        assert d.match_at(words, 0) is None

    def test_match_at_respects_sentence_end(self):
        d = AspectDictionary(entries={"battery life": "battery life"})
        assert d.match_at(["battery"], 0) is None

    def test_load_canonical_terms(self, tmp_path):
        f = write(tmp_path / "aspects.txt", "battery\nsound quality\n")
        d = load_aspect_dictionary(f)
        assert d.lookup("battery") == "battery"
        assert d.lookup("sound quality") == "sound quality"

    def test_load_synonyms(self, tmp_path):
        f = write(tmp_path / "aspects.txt", "battery\n")
        s = write(tmp_path / "syn.txt", "battery: power cell, cell\n")
        d = load_aspect_dictionary(f, s)
        assert d.lookup("power cell") == "battery"
        assert d.lookup("cell") == "battery"

    def test_synonym_unknown_canonical(self, tmp_path):
        f = write(tmp_path / "aspects.txt", "battery\n")
        s = write(tmp_path / "syn.txt", "screen: display\n")
        with pytest.raises(ParseError) as exc:
            load_aspect_dictionary(f, s)
        assert "unknown canonical" in str(exc.value)

    def test_synonym_must_not_be_a_mere_synonym_target(self, tmp_path):
        # a synonym of X may not itself anchor a synonym line
        f = write(tmp_path / "aspects.txt", "battery\n")
        s = write(tmp_path / "syn.txt", "battery: cell\ncell: juice box\n")
        with pytest.raises(ParseError):
            load_aspect_dictionary(f, s)

    def test_conflicting_synonym(self, tmp_path):
        f = write(tmp_path / "aspects.txt", "battery\nscreen\n")
        s = write(tmp_path / "syn.txt", "battery: cell\nscreen: cell\n")
        with pytest.raises(ParseError) as exc:
            load_aspect_dictionary(f, s)
        assert "both" in str(exc.value)

    def test_synonym_line_without_colon(self, tmp_path):
        f = write(tmp_path / "aspects.txt", "battery\n")
        s = write(tmp_path / "syn.txt", "battery cell\n")
        with pytest.raises(ParseError):
            load_aspect_dictionary(f, s)

    def test_repeated_synonym_same_canonical_ok(self, tmp_path):
        f = write(tmp_path / "aspects.txt", "battery\n")
        s = write(tmp_path / "syn.txt", "battery: cell\nbattery: cell\n")
        d = load_aspect_dictionary(f, s)
        assert d.lookup("cell") == "battery"

    def test_bundled_dictionary(self, resources):
        d = resources.aspect_dictionary
        assert d.lookup("battery") == "battery"
        assert d.lookup("battery life") == "battery life"
        # synonyms fold into their canonical term
        assert d.lookup("audio") == "sound"
        assert d.lookup("earbud") == "earpiece"
        assert d.max_words >= 2


class TestVerbCategories:
    def test_orientation_of(self):
        lex = VerbCategoryLexicon(
            categories=(
                VerbCategory("praise", POSITIVE, frozenset({"love"})),
                VerbCategory("criticise", NEGATIVE, frozenset({"hate"})),
            )
        )
        assert lex.orientation_of("love") == 1
        assert lex.orientation_of("hate") == -1
        assert lex.orientation_of("walk") == 0
        assert lex.orientation_of("love") != 0

    def test_load(self, tmp_path):
        f = write(
            tmp_path / "verbs.txt",
            "praise\tpositive\tlove, adore\ncriticise\tnegative\thate\n",
        )
        lex = load_verb_categories(f)
        assert lex.orientation_of("adore") == 1
        assert lex.orientation_of("hate") == -1

    def test_load_rejects_bad_column_count(self, tmp_path):
        f = write(tmp_path / "verbs.txt", "praise\tpositive\n")
        with pytest.raises(ParseError):
            load_verb_categories(f)

    def test_load_rejects_unknown_orientation(self, tmp_path):
        f = write(tmp_path / "verbs.txt", "praise\tneutral\tlove\n")
        with pytest.raises(ParseError) as exc:
            load_verb_categories(f)
        assert "orientation" in str(exc.value)

    def test_load_rejects_verb_in_both_orientations(self, tmp_path):
        f = write(
            tmp_path / "verbs.txt",
            "praise\tpositive\tlove\ncriticise\tnegative\tlove\n",
        )
        with pytest.raises(ParseError) as exc:
            load_verb_categories(f)
        assert "both orientations" in str(exc.value)

    def test_bundled_categories(self, resources):
        lex = resources.verb_categories
        assert lex.orientation_of("advise") == 1
        assert lex.orientation_of("warn") == -1


class TestTagWeightTable:
    def test_default_weights(self):
        t = TagWeightTable()
        assert t.weight("JJ") == 1
        assert t.weight("JJR") == 2
        assert t.weight("JJS") == 3
        assert t.weight("RB") == 1
        assert t.weight("RBR") == 2
        assert t.weight("RBS") == 3
        assert t.weight("NN") == 0
        assert t.weight("VBD") == 0

    def test_defaults_match_expected_table(self):
        assert DEFAULT_TAG_WEIGHTS == {
            "JJ": 1,
            "JJR": 2,
            "JJS": 3,
            "RB": 1,
            "RBR": 2,
            "RBS": 3,
        }

    def test_defaults_with_overrides(self):
        t = TagWeightTable(weights={**DEFAULT_TAG_WEIGHTS, "JJ": 5, "NN": 1})
        assert t.weight("JJ") == 5
        assert t.weight("NN") == 1
        assert t.weight("JJS") == 3

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            TagWeightTable(weights={"JJ": -1})

    def test_rejects_non_integer_weight(self):
        with pytest.raises(ValueError):
            TagWeightTable(weights={"JJ": 1.5})

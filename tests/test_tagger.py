"""Pretagged parsing, the tag set, and the baseline tagger's rules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectminer.corpus import GoldAnnotation, ReviewSentence
from aspectminer.errors import ParseError
from aspectminer.tagger import (
    NOUN_TAGS,
    PENN_TAGS,
    VERB_TAGS,
    BaselineTagger,
    TaggedSentence,
    Token,
    load_tag_lexicon,
    parse_pretagged,
    render_pretagged,
)


class TestTagSet:
    def test_core_tags_present(self):
        for tag in ("NN", "NNS", "NNP", "JJ", "JJR", "JJS", "RB", "VBZ", "VBP",
                    "VBD", "VBG", "VBN", "DT", "IN", "CC", "TO", "MD", "PRP",
                    "PRP$", "WDT", "CD", "RP", "EX", "UH"):
            assert tag in PENN_TAGS

    def test_noun_and_verb_subsets(self):
        assert NOUN_TAGS <= PENN_TAGS
        assert VERB_TAGS <= PENN_TAGS
        assert NOUN_TAGS == {"NN", "NNS", "NNP", "NNPS"}


class TestParsePretagged:
    def test_simple_line(self):
        ts = parse_pretagged("the/DT sound/NN is/VBZ wonderful/JJ ./.")
        assert [t.surface for t in ts.tokens] == ["the", "sound", "is", "wonderful", "."]
        assert ts.tags() == ["DT", "NN", "VBZ", "JJ", "."]

    def test_last_slash_delimits(self):
        # words may contain slashes; the tag follows the final one
        ts = parse_pretagged("dvd/cd/NN player/NN")
        assert [t.surface for t in ts.tokens] == ["dvd/cd", "player"]
        assert ts.tags() == ["NN", "NN"]

    def test_round_trip(self):
        line = "great/JJ looking/VBG camera/NN ./."
        assert render_pretagged(parse_pretagged(line)) == line

    def test_missing_delimiter_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_pretagged("word")
        assert "delimiter" in str(exc.value)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_pretagged("word/XYZ")
        assert "XYZ" in str(exc.value)

    def test_empty_word_rejected(self):
        with pytest.raises(ParseError):
            parse_pretagged("/NN")

    def test_empty_line_rejected(self):
        with pytest.raises(ParseError):
            parse_pretagged("   ")


def build_sentence(drawn, position, gold):
    source = ReviewSentence(
        review_id="r1",
        sentence_index=position,
        raw_text=" ".join(w for w, _ in drawn),
        gold=tuple(GoldAnnotation(aspect_term=term, strength=1) for term in gold),
    )
    tokens = tuple(Token(w, t) for w, t in drawn)
    return TaggedSentence(tokens=tokens, source=source, position=position)


class TestSentenceHash:
    @given(
        st.lists(
            st.tuples(st.text(min_size=1, max_size=4), st.sampled_from(sorted(PENN_TAGS))),
            max_size=8,
        ),
        st.integers(0, 10_000),
        st.lists(st.text(min_size=1, max_size=4), max_size=2),
    )
    @settings(max_examples=200, deadline=None)
    def test_equal_sentences_hash_equal(self, drawn, position, gold):
        a = build_sentence(drawn, position, gold)
        b = build_sentence(drawn, position, gold)
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_hashes_no_token_or_source(self, monkeypatch):
        sentence = build_sentence([("nice", "JJ"), ("zoom", "NN")], 3, ["zoom"])

        def refuse(self):
            raise AssertionError(f"hashed a {type(self).__name__}")

        monkeypatch.setattr(Token, "__hash__", refuse)
        monkeypatch.setattr(ReviewSentence, "__hash__", refuse)
        monkeypatch.setattr(GoldAnnotation, "__hash__", refuse)
        assert {sentence: 1}[sentence] == 1

    def test_distinct_lines_at_one_position_spread(self):
        # library users who parse lines without renumbering them
        words = "good bad zoom lens battery is the very and fast".split()
        lines = {
            f"{words[i % 10]}/JJ {words[i // 10 % 10]}/NN {words[i // 100]}/VBZ"
            for i in range(1_000)
        }
        assert len(lines) == 1_000
        hashes = {hash(parse_pretagged(line)) for line in lines}
        assert len(hashes) >= 990


class TestTagLexicon:
    def test_load_and_first_wins(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("# comment\nsound\tNN\nsound\tVB\nfast\tRB\n", encoding="utf-8")
        lex = load_tag_lexicon(path)
        assert lex["sound"] == "NN"
        assert lex["fast"] == "RB"

    def test_bad_tag_rejected(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("word\tBAD\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_tag_lexicon(path)
        assert "line 1" in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_tag_lexicon(tmp_path / "nope.txt")


class TestBaselineTagger:
    @pytest.fixture()
    def tagger(self):
        return BaselineTagger(
            {
                "the": "DT",
                "is": "VBZ",
                "are": "VBP",
                "fast": "RB",
                "big": "JJ",
                "nice": "JJ",
                "close": "JJ",
                "sound": "NN",
                "want": "VB",
                "run": "VB",
            }
        )

    def test_lexicon_wins(self, tagger):
        assert tagger.tag_word("fast", 0) == "RB"
        assert tagger.tag_word("The", 0) == "DT"

    def test_punctuation(self, tagger):
        assert tagger.tag_word(".", 5) == "."
        assert tagger.tag_word(",", 1) == ","
        assert tagger.tag_word(";", 1) == ":"
        assert tagger.tag_word("(", 1) == "("

    def test_suffix_ly_adverb(self, tagger):
        assert tagger.tag_word("quickly", 1) == "RB"

    def test_superlative_and_comparative(self, tagger):
        assert tagger.tag_word("nicest", 1) == "JJS"
        # -er maps to JJR only when the stem is a known adjective
        assert tagger.tag_word("nicer", 1) == "JJR"
        assert tagger.tag_word("bigger", 1) == "JJR"
        assert tagger.tag_word("closer", 1) == "JJR"

    def test_ing_and_ed(self, tagger):
        assert tagger.tag_word("looking", 1) == "VBG"
        assert tagger.tag_word("wanted", 1) == "VBD"

    def test_plural_vs_third_person(self, tagger):
        assert tagger.tag_word("sounds", 1) == "NNS"
        assert tagger.tag_word("wants", 1) == "VBZ"
        assert tagger.tag_word("runs", 1) == "VBZ"

    def test_double_s_not_plural(self, tagger):
        assert tagger.tag_word("glass", 1) == "NN"

    def test_hyphen_compound_adjective(self, tagger):
        assert tagger.tag_word("razor-nice", 1) == "JJ"

    def test_capitalized_mid_sentence(self, tagger):
        assert tagger.tag_word("Canon", 3) == "NNP"
        # sentence-initial capitals get no proper-noun benefit
        assert tagger.tag_word("Canon", 0) == "NN"

    def test_default_noun(self, tagger):
        assert tagger.tag_word("gizmo", 1) == "NN"

    def test_empty_sentence_rejected(self, tagger):
        with pytest.raises(ValueError):
            tagger.tag([])

    def test_tag_produces_tokens(self, tagger):
        ts = tagger.tag(["the", "sound", "is", "nice", "."])
        assert ts.tags() == ["DT", "NN", "VBZ", "JJ", "."]


class TestBundledLexiconTagging:
    def test_sample_sentence(self, resources):
        tagger = resources.tagger()
        ts = tagger.tag("the sound is wonderful .".split())
        assert ts.tags() == ["DT", "NN", "VBZ", "JJ", "."]

    def test_tagger_with_explicit_lexicon(self):
        ts = BaselineTagger({"good": "JJ", "camera": "NN"}).tag(["good", "camera"])
        assert ts.tags() == ["JJ", "NN"]

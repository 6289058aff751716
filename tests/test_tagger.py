"""Pretagged parsing, the tag set, and the baseline tagger's rules.

Oracle kept here: ``old_s_rule``, the ``-s``/``-es``/``-ies`` stripper
the ``VBZ`` rule used before it shared ``base_form_candidates``,
compared on every ``-s`` form of a bundled lexicon word and on random
``-s`` words; one test pins the short stems only the old rule probed.

One warm tagger's memoized ``tag`` equals ``tag_word``, the rules
without the memos, over many random sentences.  Equal tagged sentences
hash equal without hashing their tokens or source, distinct lines at one
position rarely collide, and no accepted pretagged line yields a surface
holding whitespace.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aspectminer.corpus import GoldAnnotation, ReviewSentence
from aspectminer.errors import ParseError
from aspectminer.pipeline import DEFAULT_FILES, data_dir
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
        assert list(ts.surfaces) == ["the", "sound", "is", "wonderful", "."]
        assert list(ts.tags) == ["DT", "NN", "VBZ", "JJ", "."]

    def test_last_slash_delimits(self):
        # words may contain slashes; the tag follows the final one
        ts = parse_pretagged("dvd/cd/NN player/NN")
        assert list(ts.surfaces) == ["dvd/cd", "player"]
        assert list(ts.tags) == ["NN", "NN"]

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
        raw_text=" ".join(w for w, _ in drawn),
        gold=tuple(GoldAnnotation(aspect_term=term, strength=1) for term in gold),
    )
    return TaggedSentence(
        surfaces=tuple(w for w, _ in drawn),
        tags=tuple(t for _, t in drawn),
        source=source,
        position=position,
    )


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

    @pytest.mark.parametrize("line", ["word", "\tNN", "word\t", "word\t  "])
    def test_line_without_word_and_tag_rejected(self, tmp_path, line):
        path = tmp_path / "lex.txt"
        path.write_text(f"fast\tRB\n{line}\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_tag_lexicon(path)
        assert str(exc.value) == f"{path}: line 2: expected word<TAB>TAG"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_tag_lexicon(tmp_path / "nope.txt")

    def test_read_only(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("sound\tNN\n", encoding="utf-8")
        lex = load_tag_lexicon(path)
        with pytest.raises(TypeError):
            lex["sound"] = "VB"
        with pytest.raises(TypeError):
            del lex["sound"]
        assert dict(lex) == {"sound": "NN"}


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
        assert list(ts.tags) == ["DT", "NN", "VBZ", "JJ", "."]


class TestBundledLexiconTagging:
    def test_sample_sentence(self, resources):
        tagger = resources.tagger()
        ts = tagger.tag("the sound is wonderful .".split())
        assert list(ts.tags) == ["DT", "NN", "VBZ", "JJ", "."]

    def test_tagger_with_explicit_lexicon(self):
        ts = BaselineTagger({"good": "JJ", "camera": "NN"}).tag(["good", "camera"])
        assert list(ts.tags) == ["JJ", "NN"]


def _strip_candidates(word: str) -> list[str]:
    """The stems the -s rule probed before it shared base_form_candidates."""
    stems = [word[:-1]]
    if word.endswith("es"):
        stems.append(word[:-2])
    if word.endswith("ies"):
        stems.append(word[:-3] + "y")
    return stems


def old_s_rule(lexicon: dict[str, str], word: str) -> str:
    """Oracle for a word that reaches the -s rule (not in the lexicon)."""
    low = word.lower()
    verb = any(lexicon.get(stem) in ("VB", "VBP") for stem in _strip_candidates(low))
    return "VBZ" if verb else "NNS"


def reaches_s_rule(lexicon: dict[str, str], word: str) -> bool:
    low = word.lower()
    return (
        word not in lexicon and low not in lexicon
        and len(low) >= 3 and low.endswith("s") and not low.endswith("ss")
    )


def s_form(stem: str, suffix: str) -> str:
    if suffix == "ies" and stem.endswith("y"):
        return stem[:-1] + suffix
    return stem + suffix


BUNDLED = load_tag_lexicon(data_dir() / DEFAULT_FILES["tag_lexicon"])
BUNDLED_VERBS = sorted(w for w, tag in BUNDLED.items() if tag in ("VB", "VBP"))


class TestSharedBaseFormRule:
    """The VBZ rule probes base_form_candidates; on the bundled lexicon it
    tags every -s word as the old -s/-es/-ies stripper did."""

    def test_every_bundled_word_inflects_as_before(self):
        tagger = BaselineTagger(BUNDLED)
        checked = 0
        for stem in sorted(BUNDLED):
            for suffix in ("s", "es", "ies"):
                word = s_form(stem, suffix)
                if reaches_s_rule(BUNDLED, word):
                    assert tagger.tag_word(word, 1) == old_s_rule(BUNDLED, word), word
                    checked += 1
        assert checked > 1000

    @given(
        st.one_of(
            st.text(alphabet="abdeiklnorsty", min_size=1, max_size=7),
            st.sampled_from(BUNDLED_VERBS),
            st.sampled_from(BUNDLED_VERBS).map(lambda v: v[:-1]),
        ),
        st.sampled_from(["s", "es", "ies"]),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_s_words_tag_as_before(self, stem, suffix, capital):
        word = s_form(stem, suffix)
        if capital:
            word = word.capitalize()
        if reaches_s_rule(BUNDLED, word):
            assert BaselineTagger(BUNDLED).tag_word(word, 1) == old_s_rule(BUNDLED, word)

    @pytest.mark.parametrize("entry, word", [("dy", "dies"), ("b", "bes")])
    def test_short_stems_no_longer_probed(self, entry, word):
        # The old rule also tried the two-letter Xy stem of a four-letter
        # -ies word and the one-letter stem of a three-letter -es word; the
        # bundled lexicon has no VB/VBP entry of either shape.
        lexicon = {entry: "VB"}
        assert old_s_rule(lexicon, word) == "VBZ"
        assert BaselineTagger(lexicon).tag_word(word, 1) == "NNS"


class TestSurfaceContract:
    """No surface of a parsed line holds a character for which
    ``str.isspace()`` is true; extraction joins surfaces by single spaces
    to probe the aspect dictionary."""

    SPACES = " \t\n\u00a0\u2003\x1c\u2028"

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="ab/." + SPACES, min_size=1, max_size=5),
                st.sampled_from(["DT", "NN", "JJ", ".", "NNP"]),
                st.text(alphabet=SPACES, min_size=1, max_size=2),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    @example([("a", "DT", "\u00a0"), ("b", "NN", "\u2003"), ("c", "JJ", "\x1c"),
              ("d", "NN", "\u2028"), (".", ".", " ")])
    def test_accepted_lines_hold_no_whitespace_surface(self, items):
        line = "".join(f"{word}/{tag}{space}" for word, tag, space in items)
        try:
            sentence = parse_pretagged(line)
        except ParseError:
            return
        assert not any(ch.isspace() for s in sentence.surfaces for ch in s)


# Reused across examples, so that most words are answered from its memos.
WARM_TAGGER = BaselineTagger(BUNDLED)
RULES = BaselineTagger(BUNDLED)  # asked through tag_word only

lexicon_words = st.sampled_from(sorted(BUNDLED))
tagger_words = st.one_of(
    lexicon_words,
    lexicon_words.map(str.capitalize),
    st.tuples(lexicon_words, st.sampled_from(["s", "ed", "ing", "er"])).map("".join),
    st.text(alphabet="abeilnrsyAB-.'", min_size=1, max_size=8),
)


class TestTagMemo:
    """tag answers each word from a memo filled by tag_word: one memo for
    sentence-initial words and one for the rest."""

    @given(st.lists(tagger_words, min_size=1, max_size=8))
    @settings(max_examples=500, deadline=None)
    @example(["Canon", "Canon"])
    @example(["Lens", "Lens", "Lens"])
    def test_tag_equals_the_rule_per_word(self, words):
        got = WARM_TAGGER.tag(words)
        assert got.tags == tuple(RULES.tag_word(w, i) for i, w in enumerate(words))
        assert got.surfaces == tuple(words)

    def test_initial_and_later_positions_are_kept_apart(self):
        tagger = BaselineTagger({})
        assert tagger.tag(["Canon", "Canon"]).tags == ("NN", "NNP")
        assert tagger.tag(["it", "Canon"]).tags == ("NN", "NNP")
        assert tagger.tag(["Canon"]).tags == ("NN",)

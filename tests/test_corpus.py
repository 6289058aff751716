"""Review corpus parsing: annotations, title and malformed lines, tokenizer.

Oracles kept here, each the code the current one replaced:

* ``oracle_parse_annotation``: the annotation parser that read each
  match group by name, compared on random annotations (flags, ASCII and
  non-ASCII digits) for the same annotation or the same error message.
* ``oracle_gold``: the gold of an annotated prefix built by a generator
  over its comma-separated parts, compared on one to three random
  annotations, empty and blank parts among them, for the same gold or
  the same warning.
* ``char_tokenize``: the character-by-character ``tokenize``, compared
  with the whole-word tokenizer on arbitrary Unicode text and on
  apostrophe-, digit- and underscore-heavy text.

The plain form ``term[+d]`` is read without the annotation pattern: the
shipped samples are parsed with the pattern counting its calls, one per
annotation that is not plain.

No token ``tokenize`` yields holds whitespace.
"""

import re

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from aspectminer.corpus import (
    _ANNOT_RE,
    GoldAnnotation,
    _parse_annotation,
    load_corpus,
    parse_corpus_file,
    tokenize,
)
from aspectminer.errors import ParseError


class TestAnnotationParsing:
    def test_plain_annotation(self):
        ann = _parse_annotation("battery life[+2]")
        assert ann.aspect_term == "battery life"
        assert ann.strength == 2
        assert ann.flags == frozenset()

    def test_negative_with_flags(self):
        ann = _parse_annotation("lens[-3][u][cs]")
        assert ann.aspect_term == "lens"
        assert ann.strength == -3
        assert ann.flags == frozenset({"u", "cs"})

    def test_all_known_flags_accepted(self):
        ann = _parse_annotation("zoom[+1][u][p][s][cc][cs]")
        assert ann.flags == frozenset({"u", "p", "s", "cc", "cs"})

    @pytest.mark.parametrize("text", ["[+2]", "term[+0]", "term[+4]", "term[-4]", "term"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            _parse_annotation(text)

    @pytest.mark.parametrize("strength", [1, 2, 3, -1, -2, -3])
    def test_strength_range(self, strength):
        sign = "+" if strength > 0 else "-"
        ann = _parse_annotation(f"zoom[{sign}{abs(strength)}]")
        assert ann.strength == strength


# The annotation parser as it was before it read the match groups once,
# with the two patterns it was written against; kept as an oracle.
ORACLE_ANNOT_RE = re.compile(
    r"^(?P<term>[^\[\]]+)\[(?P<sign>[+-])(?P<d>\d+)\](?P<flags>(?:\[[^\[\]]+\])*)$"
)
ORACLE_FLAG_RE = re.compile(r"\[([^\[\]]+)\]")


def oracle_parse_annotation(text):
    m = ORACLE_ANNOT_RE.match(text.strip())
    if m is None:
        raise ValueError(f"unrecognized annotation {text.strip()!r}")
    term = m.group("term").strip()
    if not term:
        raise ValueError("empty aspect term")
    strength = int(m.group("d"))
    if m.group("sign") == "-":
        strength = -strength
    if strength == 0 or abs(strength) > 3:
        raise ValueError(f"strength {strength:+d} out of range")
    flags = frozenset(f.strip() for f in ORACLE_FLAG_RE.findall(m.group("flags")))
    return GoldAnnotation(aspect_term=term, strength=strength, flags=flags)


def parse_outcome(parse, text):
    try:
        return ("ok", parse(text))
    except ValueError as exc:
        return ("ValueError", str(exc))


# Terms, signs, ASCII and non-ASCII digits (Arabic-Indic three, fullwidth
# two, superscript two, which is not a decimal digit) and flag groups,
# mostly well formed, so every reachable check and message is met.
annotation_texts = st.one_of(
    st.tuples(
        st.sampled_from(["zoom", " battery life ", "\u00e9cran", "", "a]b", "[x"]),
        st.sampled_from(["+", "-", "+", "-", "*"]),
        st.lists(st.sampled_from("1123\u0663\uff120\u00b2"), min_size=1, max_size=2)
        .map("".join),
        st.lists(
            st.sampled_from(["[u]", "[cs]", "[ p ]", "[\u00e9]", "[ ]", "[]", "[u"]),
            max_size=3,
        ).map("".join),
        st.sampled_from(["", " ", "\t"]),
    ).map(lambda p: f"{p[0]}[{p[1]}{p[2]}]{p[3]}{p[4]}"),
    st.text(st.sampled_from("ab +-[]12\u0663 "), max_size=14),
    st.text(max_size=10),
)


class TestAnnotationParsingAgainstOracle:
    @given(annotation_texts)
    @settings(max_examples=500, deadline=None)
    @example("zoom[+\u0663][u][ cs ]")
    @example("lens[-\uff12]")
    @example("lens[+\u00b2]")
    @example(" [+2]")
    @example("zoom[+0][u]")
    @example("zoom[-04]")
    @example("zoom[+1]")
    @example(" battery life [-3]")
    @example("a]b[+1]")
    @example("zoom[+1]]")
    @example("zoom[+1][u]")
    @example("zoom[+01]")
    @example("zoom[+\u0663]")
    @example("zoom[+4]")
    @example("[+2]")
    def test_same_annotation_or_message(self, text):
        got = parse_outcome(_parse_annotation, text)
        assert got == parse_outcome(oracle_parse_annotation, text)
        if got[0] == "ok":
            assert type(got[1].flags) is frozenset


def oracle_gold(prefix):
    """The gold of an annotated line's prefix as a generator over its
    parts once built it: ``(gold, warning)``."""
    if not prefix.strip():
        return (), None
    try:
        parts = [p for p in prefix.split(",") if p.strip()]
        return tuple(oracle_parse_annotation(p) for p in parts), None
    except ValueError as exc:
        return (), f"line 1: {exc}; keeping sentence without gold"


# one to three annotations joined by commas, empty and blank parts among them
gold_prefixes = st.lists(
    st.one_of(annotation_texts, st.sampled_from(["", " ", "\t"])), min_size=1, max_size=3
).map(",".join)


class TestGoldPrefixAgainstOracle:
    @given(prefix=gold_prefixes)
    @settings(
        max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @example(prefix="sound[+2],size[-1]")
    @example(prefix="sound[+2],,size[-1][u], ")
    @example(prefix=" , ")
    @example(prefix="sound[+2],size[+4]")
    @example(prefix="sound[+2],size[-1][u]")
    def test_same_gold_or_warning(self, prefix, caplog):
        # a prefix that would change how the line itself reads is out of scope
        assume("\n" not in prefix and "#" not in prefix and not prefix.startswith("[t]"))
        caplog.clear()
        with caplog.at_level("WARNING"):
            corpus = parse_corpus_file(f"{prefix}##the sound is good .\n", "p")
        (sentence,) = corpus.sentences
        gold, warning = oracle_gold(prefix)
        assert sentence.raw_text == "the sound is good ."
        assert sentence.gold == gold
        assert [r.message for r in caplog.records] == ([warning] if warning else [])


class TestCorpusParsing:
    def test_titles_are_marked(self):
        content = "[t]first\n##one .\n##two .\n[t]second\n##three .\n"
        corpus = parse_corpus_file(content, "p")
        assert len(corpus.sentences) == 5
        assert corpus.sentences[0].is_title
        assert not corpus.sentences[1].is_title

    def test_annotations_attached(self):
        corpus = parse_corpus_file("sound[+2],size[-1]##good and small .\n", "p")
        gold = corpus.sentences[0].gold
        assert [a.aspect_term for a in gold] == ["sound", "size"]
        assert [a.strength for a in gold] == [2, -1]

    def test_unannotated_sentence_has_empty_gold(self):
        corpus = parse_corpus_file("##nothing here .\n", "p")
        assert corpus.sentences[0].gold == ()

    def test_malformed_gold_recovers_with_warning(self, caplog):
        content = "broken[]##text .\n"
        with caplog.at_level("WARNING"):
            corpus = parse_corpus_file(content, "p")
        assert len(corpus.sentences) == 1
        assert corpus.sentences[0].gold == ()
        assert any("annotation" in r.message for r in caplog.records)

    def test_whitespace_only_term_is_unrecognized(self, caplog):
        content = "##first .\n  [+2]##the sound is good .\n"
        with caplog.at_level("WARNING"):
            corpus = parse_corpus_file(content, "p")
        assert [s.raw_text for s in corpus.sentences] == ["first .", "the sound is good ."]
        assert corpus.sentences[1].gold == ()
        assert [r.message for r in caplog.records] == [
            "line 2: unrecognized annotation '[+2]'; keeping sentence without gold"
        ]

    def test_line_without_separator_skipped(self, caplog):
        with caplog.at_level("WARNING"):
            corpus = parse_corpus_file("no separator here\n##real .\n", "p")
        assert len(corpus.sentences) == 1

    def test_blank_lines_skipped(self):
        corpus = parse_corpus_file("\n\n##one .\n\n##two .\n", "p")
        assert len(corpus.sentences) == 2

    def test_empty_content_yields_empty_corpus(self):
        assert len(parse_corpus_file("", "p").sentences) == 0

    def test_crlf_endings_read_as_lf(self):
        content = "[t]title\n##one .\nsound[+2]##the sound is great .\n"
        crlf = parse_corpus_file(content.replace("\n", "\r\n"), "p")
        assert crlf == parse_corpus_file(content, "p")

    # characters str.splitlines() breaks at, though they are not line feeds
    @pytest.mark.parametrize(
        "brk", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\r"]
    )
    def test_only_a_line_feed_ends_a_sentence(self, brk):
        content = f"sound[+2]##the sound is great {brk} and the screen is bad .\n"
        (sentence,) = parse_corpus_file(content, "p").sentences
        assert sentence.raw_text == f"the sound is great {brk} and the screen is bad ."
        assert [a.aspect_term for a in sentence.gold] == ["sound"]
        # the tokenizer takes the character as a space
        assert tokenize(sentence.raw_text) == "the sound is great and the screen is bad .".split()

    def test_warning_line_numbers_count_line_feeds(self, caplog):
        content = "##the sound is great \u2028 and the screen is bad .\nbroken[]##text .\n"
        with caplog.at_level("WARNING"):
            corpus = parse_corpus_file(content, "p")
        assert len(corpus.sentences) == 2
        # the line `grep -n` names
        assert [r.message[:7] for r in caplog.records] == ["line 2:"]


class TestLoadCorpus:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError) as exc:
            load_corpus(tmp_path / "absent.txt")
        assert "absent.txt" in str(exc.value)

    def test_product_defaults_to_stem(self, tmp_path):
        path = tmp_path / "dvd player.txt"
        path.write_text("##fine .\n", encoding="utf-8")
        assert load_corpus(path).product_name == "dvd player"

    def test_explicit_product_wins(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("##fine .\n", encoding="utf-8")
        assert load_corpus(path, "camera").product_name == "camera"

    def test_warnings_name_the_file(self, tmp_path, caplog):
        path = tmp_path / "reviews.txt"
        path.write_text("##fine .\nbroken[]##text .\nstray text\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            load_corpus(path)
        messages = [r.message for r in caplog.records]
        assert len(messages) == 2
        assert messages[0].startswith(f"{path}: line 2: ")
        assert messages[1].startswith(f"{path}: line 3: no sentence marker")

    def test_bytes_not_utf8_name_file_and_line(self, tmp_path):
        path = tmp_path / "reviews.txt"
        path.write_bytes(b"##fine .\n##caf\xe9 .\n")
        with pytest.raises(ParseError) as exc:
            load_corpus(path)
        assert str(exc.value) == f"{path}: line 2: not UTF-8 text (byte 0xe9)"

    @pytest.mark.parametrize(
        "content", ["sound[+2]##the sound is great .\n", "[t]a title\n##one .\n"]
    )
    def test_leading_byte_order_mark_is_not_text(self, tmp_path, content):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(content, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + content.encode("utf-8"))
        assert load_corpus(marked, "p") == load_corpus(plain, "p")

    def test_bad_byte_after_a_byte_order_mark_names_its_own_line(self, tmp_path):
        path = tmp_path / "reviews.txt"
        path.write_bytes(b"\xef\xbb\xbf##ab .\n##c\xff .\n")
        with pytest.raises(ParseError) as exc:
            load_corpus(path)
        assert str(exc.value) == f"{path}: line 2: not UTF-8 text (byte 0xff)"


class CountingPattern:
    """A compiled pattern that counts its ``match`` calls."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def match(self, text):
        self.calls += 1
        return self.pattern.match(text)


@pytest.mark.parametrize(
    "name, annotations, matched",
    [("reviews.txt", 20, 0), ("minieval.txt", 21, 7)],
)
def test_only_annotations_that_are_not_plain_reach_the_pattern(
    sample_dir, monkeypatch, name, annotations, matched
):
    counting = CountingPattern(_ANNOT_RE)
    monkeypatch.setattr("aspectminer.corpus._ANNOT_RE", counting)
    parsed = load_corpus(sample_dir / name)
    assert sum(len(s.gold) for s in parsed.sentences) == annotations
    assert counting.calls == matched


class TestSampleCorpus:
    def test_shape(self, sample_corpus):
        assert len(sample_corpus.sentences) == 30
        assert sum(1 for s in sample_corpus.sentences if s.is_title) == 3

    def test_gold_terms_present(self, sample_corpus):
        terms = {a.aspect_term for s in sample_corpus.sentences for a in s.gold}
        assert {"sound", "battery life", "software", "equipment"} <= terms


class TestTokenize:
    def test_splits_punctuation(self):
        assert tokenize("it works.") == ["it", "works", "."]

    def test_keeps_apostrophes(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_hyphen_is_separate(self):
        assert tokenize("razor-sharp") == ["razor", "-", "sharp"]

    def test_collapses_whitespace(self):
        assert tokenize("  a\t b  ") == ["a", "b"]

    def test_empty(self):
        assert tokenize("") == []


class TestTokenizeSurfaceContract:
    @given(
        st.text(st.sampled_from("ab1'.-/ \t\n\r\u00a0\u2003\x1c\u2028\u3000"), max_size=30)
        | st.text(max_size=30)
    )
    @settings(max_examples=300, deadline=None)
    @example("a\u00a0b\u2003c\x1cd\u2028e")
    def test_no_token_holds_whitespace(self, text):
        tokens = tokenize(text)
        assert not any(ch.isspace() for token in tokens for ch in token)
        assert "".join(tokens) == "".join(ch for ch in text if not ch.isspace())


def char_tokenize(raw_text):
    """Reference tokenizer: one pass over the characters.

    This is how ``tokenize`` worked before it split on whitespace first;
    it is kept here only to check that the two give the same tokens.
    """
    tokens = []
    word = []
    for ch in raw_text:
        if ch.isspace():
            if word:
                tokens.append("".join(word))
                word.clear()
        elif ch.isalnum() or ch == "'":
            word.append(ch)
        else:
            if word:
                tokens.append("".join(word))
                word.clear()
            tokens.append(ch)
    if word:
        tokens.append("".join(word))
    return tokens


# apostrophes, ASCII and non-ASCII digits and letters, underscores (not
# word characters), punctuation, and whitespace that is not a plain space
WORDY = "''''1239__a\u00e9\u0663\u00b2.- \t\x1c\u00a0\u2003"


class TestTokenizeAgainstCharacterOracle:
    @given(st.text())
    @settings(max_examples=500, deadline=None)
    @example("a\x1cb")
    @example("a\u00a0b")
    @example("it\u2003works.")
    @example("x\x1c\u00a0\u2003y z")
    def test_any_text(self, text):
        assert tokenize(text) == char_tokenize(text)

    @given(st.text(st.sampled_from(WORDY), max_size=40))
    @settings(max_examples=500, deadline=None)
    @example("don't_stop 4'' '_' 1_2 ''' x''y")
    def test_apostrophe_digit_and_underscore_heavy_text(self, text):
        assert tokenize(text) == char_tokenize(text)

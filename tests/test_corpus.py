"""Review corpus parsing: annotations, review segmentation, tokenizer."""

import pytest

from aspectminer.corpus import _parse_annotation, load_corpus, parse_corpus_file, tokenize
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


class TestCorpusParsing:
    def test_titles_start_reviews(self):
        content = "[t]first\n##one .\n##two .\n[t]second\n##three .\n"
        corpus = parse_corpus_file(content, "p")
        assert len(corpus.sentences) == 5
        ids = [s.review_id for s in corpus.sentences]
        assert ids == ["r1", "r1", "r1", "r2", "r2"]
        assert [s.sentence_index for s in corpus.sentences] == [0, 1, 2, 0, 1]
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

    def test_line_without_separator_skipped(self, caplog):
        with caplog.at_level("WARNING"):
            corpus = parse_corpus_file("no separator here\n##real .\n", "p")
        assert len(corpus.sentences) == 1

    def test_blank_lines_skipped(self):
        corpus = parse_corpus_file("\n\n##one .\n\n##two .\n", "p")
        assert len(corpus.sentences) == 2

    def test_leading_sentences_before_any_title(self):
        corpus = parse_corpus_file("##orphan .\n[t]titled\n##body .\n", "p")
        assert [s.review_id for s in corpus.sentences] == ["r1", "r2", "r2"]

    def test_empty_content_yields_empty_corpus(self):
        assert len(parse_corpus_file("", "p").sentences) == 0


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


class TestSampleCorpus:
    def test_shape(self, sample_corpus):
        assert len(sample_corpus.sentences) == 30
        assert sum(1 for s in sample_corpus.sentences if s.is_title) == 3
        assert {s.review_id for s in sample_corpus.sentences} == {"r1", "r2", "r3"}

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

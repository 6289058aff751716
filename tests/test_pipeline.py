"""Tests for resource resolution and corpus-level processing.

Resources resolve from the bundled directory, ``ASPECTMINER_DATA`` or a
given path.  The tag lexicon is parsed once, by the first ``tagger()``
call, so a malformed one fails only a run that tags, while a missing
one fails at load.  A pretagged file aligns with its corpus line by
line: a reversed file is rejected at line 1, escaped and re-split tokens
align, and sentences without text take no line.  ``_spells``, which
decides whether a line's tokens spell its sentence, is compared with
``oracle_spells``, the walk it accepts aligned texts ahead of, on texts
with single and doubled spaces, tabs and escaped characters.
"""

import os
import shutil
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aspectminer import pipeline
from aspectminer.errors import ParseError
from aspectminer.pipeline import (
    DATA_ENV_VAR,
    DEFAULT_FILES,
    data_dir,
    extract_corpus,
    load_pretagged_file,
    load_resources,
    summarize_corpus,
    tag_corpus,
)
from aspectminer.corpus import load_corpus, parse_corpus_file
from aspectminer.lexicons import NEGATIVE, POSITIVE
from aspectminer.summary import render


class TestDataDir:
    def test_default_is_bundled_directory(self, monkeypatch):
        monkeypatch.delenv(DATA_ENV_VAR, raising=False)
        d = data_dir()
        assert (d / "patterns.txt").is_file()
        assert d.name == "data"

    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(DATA_ENV_VAR, str(tmp_path))
        assert data_dir() == tmp_path
        assert data_dir() / DEFAULT_FILES["patterns"] == tmp_path / "patterns.txt"

    def test_every_default_file_exists(self, monkeypatch):
        monkeypatch.delenv(DATA_ENV_VAR, raising=False)
        for resource in DEFAULT_FILES:
            assert (data_dir() / DEFAULT_FILES[resource]).is_file(), resource


class TestLoadResources:
    def test_bundled_defaults(self, resources):
        assert len(resources.pattern_set.patterns) == 11
        assert resources.tag_lexicon["the"] == "DT"

    def test_selective_override(self, tmp_path):
        pos = tmp_path / "pos.txt"
        pos.write_text("stellar\n", encoding="utf-8")
        res = load_resources(pos_lex=pos)
        positive = {w for w, o in res.opinion_lexicon.items() if o == POSITIVE}
        assert positive == {"stellar"}
        # everything else still comes from the bundled files
        assert res.opinion_lexicon["terrible"] == NEGATIVE
        assert len(res.pattern_set.patterns) == 11

    @pytest.mark.parametrize("resource", sorted(DEFAULT_FILES))
    def test_empty_path_is_missing_not_default(self, resource):
        # only None falls back to the bundled file; "" and Path("") (which
        # is ".") name no file
        with pytest.raises(FileNotFoundError) as exc:
            load_resources(**{resource: ""})
        assert exc.value.args == ("",)
        with pytest.raises(FileNotFoundError) as exc:
            load_resources(**{resource: Path("")})
        assert exc.value.args == (".",)

    def test_env_redirect_missing_files(self, monkeypatch, tmp_path):
        monkeypatch.setenv(DATA_ENV_VAR, str(tmp_path))
        with pytest.raises(FileNotFoundError):
            load_resources()


class TestLazyTagLexicon:
    """The tag lexicon is parsed by the first tagger() call, once."""

    def test_parsed_once_on_first_tagger_call(self, monkeypatch):
        calls = []
        real = pipeline.load_tag_lexicon
        monkeypatch.setattr(
            pipeline, "load_tag_lexicon", lambda path: calls.append(path) or real(path)
        )
        res = load_resources()
        assert calls == []
        first, second = res.tagger(), res.tagger()
        assert calls == [os.path.join(data_dir(), DEFAULT_FILES["tag_lexicon"])]
        assert first.lexicon == second.lexicon == res.tag_lexicon
        assert res.tag_lexicon["the"] == "DT"
        assert calls == [os.path.join(data_dir(), DEFAULT_FILES["tag_lexicon"])]

    def test_missing_lexicon_fails_at_load(self, tmp_path):
        with pytest.raises(FileNotFoundError) as exc:
            load_resources(tag_lexicon=tmp_path / "absent.txt")
        assert str(tmp_path / "absent.txt") in str(exc.value)

    def test_malformed_lexicon_fails_only_when_tagging(self, tmp_path):
        bad = tmp_path / "lex.txt"
        bad.write_text("word\tXYZ\n", encoding="utf-8")
        res = load_resources(tag_lexicon=bad)
        with pytest.raises(ParseError) as exc:
            res.tagger()
        assert exc.value.path == bad and exc.value.line == 1

    def test_env_redirect_to_copy(self, monkeypatch, tmp_path):
        monkeypatch.delenv(DATA_ENV_VAR, raising=False)
        shutil.copytree(data_dir(), tmp_path / "data", dirs_exist_ok=True)
        monkeypatch.setenv(DATA_ENV_VAR, str(tmp_path / "data"))
        res = load_resources()
        assert len(res.pattern_set.patterns) == 11


class TestTagCorpus:
    def test_positions_and_sources(self, resources):
        corpus = parse_corpus_file(
            "[t]great player\n##the sound is wonderful .\n", "p"
        )
        tagged = tag_corpus(corpus, resources.tagger())
        assert [t.position for t in tagged] == [0, 1]
        assert tagged[0].source is corpus.sentences[0]
        assert tagged[0].source.is_title
        assert list(tagged[1].tags) == ["DT", "NN", "VBZ", "JJ", "."]

    def test_empty_sentence_keeps_slot(self, resources):
        corpus = parse_corpus_file("##\n##real text here .\n", "p")
        tagged = tag_corpus(corpus, resources.tagger())
        assert len(tagged) == 2
        assert (tagged[0].surfaces, tagged[0].tags) == ((), ())
        assert tagged[0].source is corpus.sentences[0]


class TestLoadPretaggedFile:
    def test_without_corpus(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("a/DT b/NN\n\nc/JJ d/NN\n", encoding="utf-8")
        tagged = load_pretagged_file(f)
        assert len(tagged) == 2  # blank line skipped
        assert tagged[0].source is None
        assert [t.position for t in tagged] == [0, 1]

    def test_aligned_with_corpus(self, tmp_path):
        corpus = parse_corpus_file("sound[+2]##good sound .\n##bad .\n", "p")
        f = tmp_path / "p.txt"
        f.write_text("good/JJ sound/NN ./.\nbad/JJ ./.\n", encoding="utf-8")
        tagged = load_pretagged_file(f, corpus)
        assert tagged[0].source is corpus.sentences[0]
        assert tagged[1].source is corpus.sentences[1]

    def test_count_mismatch(self, tmp_path):
        corpus = parse_corpus_file("##one .\n##two .\n", "p")
        f = tmp_path / "p.txt"
        f.write_text("one/CD ./.\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_pretagged_file(f, corpus)
        assert "1 pretagged lines for 2 corpus sentences" in str(exc.value)

    def test_bad_line_reports_position(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("a/DT\nbroken-line\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_pretagged_file(f)
        assert exc.value.line == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_pretagged_file(tmp_path / "absent.txt")

    def test_bundled_fixtures_align(self, sample_corpus, sample_tagged):
        assert len(sample_tagged) == len(sample_corpus.sentences) == 30
        for tagged, sentence in zip(sample_tagged, sample_corpus.sentences):
            assert tagged.source is sentence

    def test_reversed_file_rejected_at_line_1(self, sample_dir, tmp_path):
        corpus = load_corpus(sample_dir / "minieval.txt")
        lines = (sample_dir / "minieval-pretagged.txt").read_text(encoding="utf-8")
        f = tmp_path / "reversed.txt"
        f.write_text("".join(reversed(lines.splitlines(keepends=True))), encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_pretagged_file(f, corpus)
        assert exc.value.path == f
        assert exc.value.line == 1
        assert "do not spell corpus sentence 1" in str(exc.value)

    def test_sentences_without_text_take_no_line(self, tmp_path):
        corpus = parse_corpus_file(
            "##\nsound[+2]##the sound is good .\n[t]\n##the screen is awful .\n", "p"
        )
        f = tmp_path / "p.txt"
        f.write_text("the/DT sound/NN is/VBZ good/JJ ./.\n\n"
                     "the/DT screen/NN is/VBZ awful/JJ ./.\n", encoding="utf-8")
        tagged = load_pretagged_file(f, corpus, start=10)
        assert [t.source for t in tagged] == list(corpus.sentences)
        assert [t.position for t in tagged] == [10, 11, 12, 13]
        assert [len(t.surfaces) for t in tagged] == [0, 5, 0, 5]
        assert [len(t.tags) for t in tagged] == [0, 5, 0, 5]

    def test_count_mismatch_counts_sentences_with_text(self, tmp_path):
        corpus = parse_corpus_file("##\n##one .\n##two .\n", "p")
        f = tmp_path / "p.txt"
        f.write_text("one/CD ./.\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_pretagged_file(f, corpus)
        assert "1 pretagged lines for 2 corpus sentences (and 1 without text)" in str(exc.value)

    def test_sentence_number_counts_sentences_without_text(self, tmp_path):
        corpus = parse_corpus_file("##\n##good .\n##bad .\n", "p")
        f = tmp_path / "p.txt"
        f.write_text("good/JJ ./.\nsad/JJ ./.\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_pretagged_file(f, corpus)
        assert exc.value.line == 2
        assert "corpus sentence 3: 'bad .'" in str(exc.value)

    def test_mismatch_line_counts_blank_lines(self, tmp_path):
        corpus = parse_corpus_file("##good sound .\n##bad .\n", "p")
        f = tmp_path / "p.txt"
        f.write_text("good/JJ sound/NN ./.\n\nsad/JJ ./.\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_pretagged_file(f, corpus)
        assert exc.value.line == 3
        assert "corpus sentence 2: 'bad .'" in str(exc.value)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("the lens (cap) is [big] {ok} .",
             "the/DT lens/NN -LRB-/-LRB- cap/NN -RRB-/-RRB- is/VBZ -LSB-/-LRB- "
             "big/JJ -RSB-/-RRB- -LCB-/-LRB- ok/JJ -RCB-/-RRB- ./."),
            ('it is "great" .', "it/PRP is/VBZ ``/`` great/JJ ''/'' ./."),
            ("it is ''great'' .", "it/PRP is/VBZ ''/'' great/JJ ''/'' ./."),
            ("a -LRB- b", "a/DT -LRB-/-LRB- b/NN"),
            ("don't stop", "do/VBP n't/RB stop/VB"),
            ("well-made  lens", "well/RB -/: made/VBN lens/NN"),
        ],
    )
    def test_escaped_and_resplit_tokens_align(self, tmp_path, text, line):
        corpus = parse_corpus_file(f"##{text}\n", "p")
        f = tmp_path / "p.txt"
        f.write_text(line + "\n", encoding="utf-8")
        assert load_pretagged_file(f, corpus)[0].source is corpus.sentences[0]

    @pytest.mark.parametrize(
        "text, line",
        [
            ("good sound .", "good/JJ sound/NN"),
            ("good sound", "good/JJ sound/NN ./."),
            ("good sound .", "sound/NN good/JJ ./."),
            ("a ( b", "a/DT -RRB-/-RRB- b/NN"),
            ('a " b', "a/DT -LRB-/-LRB- b/NN"),
            ("(", "-LRB-/-LRB- -LRB-/-LRB-"),
        ],
    )
    def test_tokens_that_do_not_spell_the_sentence_rejected(self, tmp_path, text, line):
        corpus = parse_corpus_file(f"##{text}\n", "p")
        f = tmp_path / "p.txt"
        f.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_pretagged_file(f, corpus)
        assert exc.value.line == 1


# Penn Treebank escapes and what they stand for, as in the pipeline
ORACLE_PENN_ESCAPES = {
    "-LRB-": "(", "-RRB-": ")", "-LSB-": "[", "-RSB-": "]", "-LCB-": "{", "-RCB-": "}",
    "``": '"', "''": '"',
}


def oracle_spells(surfaces, text):
    """``pipeline._spells`` as it was before it accepted a text that is
    its surfaces joined by single spaces at once; kept as an oracle."""
    rest = "".join(text.split())
    if "".join(surfaces) == rest:
        return True
    at = 0
    for surface in surfaces:
        for form in (surface, ORACLE_PENN_ESCAPES.get(surface)):
            if form is not None and rest.startswith(form, at):
                at += len(form)
                break
        else:
            return False
    return at == len(rest)


# whitespace-free surfaces, as parse_pretagged yields them, Penn escapes
# and the characters they stand for among them
SURFACES = ["a", "ab", "n't", ".", "(", '"', "''", "``", "-LRB-", "-RRB-", "-LSB-", "[", "}"]


@st.composite
def surfaces_and_texts(draw):
    """Surfaces and a text built from them: each written as is, as the
    character its escape stands for, or left out, with single or doubled
    spaces, tabs or nothing between."""
    surfaces = draw(st.lists(st.sampled_from(SURFACES), min_size=1, max_size=6))
    text = ""
    for surface in surfaces:
        text += draw(st.sampled_from([surface, ORACLE_PENN_ESCAPES.get(surface, surface), ""]))
        text += draw(st.sampled_from([" ", " ", "  ", "\t", ""]))
    return tuple(surfaces), text


class TestSpellsAgainstOracle:
    @given(surfaces_and_texts())
    @settings(max_examples=500, deadline=None)
    @example((("a", "-LRB-", "n't", "."), "a -LRB- n't ."))
    @example((("a", "-LRB-", "``", "."), "a ( \" ."))
    @example((("a", "ab"), "a  ab"))
    @example((("a", "ab"), "a\tab "))
    def test_texts_built_from_the_surfaces(self, case):
        surfaces, text = case
        assert pipeline._spells(surfaces, text) == oracle_spells(surfaces, text)

    @given(
        st.lists(st.sampled_from(SURFACES), min_size=1, max_size=4).map(tuple),
        st.text(st.sampled_from("a(.'\"`-LRB[ \t"), max_size=12),
    )
    @settings(max_examples=500, deadline=None)
    def test_any_text(self, surfaces, text):
        assert pipeline._spells(surfaces, text) == oracle_spells(surfaces, text)


class TestExtractCorpus:
    def test_sample_pair_census(self, resources, sample_tagged):
        # [DERIVED] hand-traced over all thirty bundled sample sentences
        pairs = extract_corpus(sample_tagged, resources)
        assert len(pairs) == 23
        positive = sum(1 for p in pairs if p.orientation == "positive")
        assert positive == 17
        assert len(pairs) - positive == 6

    def test_order_follows_corpus(self, resources, sample_tagged):
        pairs = extract_corpus(sample_tagged, resources)
        positions = [p.sentence.position for p in pairs]
        assert positions == sorted(positions)

    def test_fallback_off_shrinks_census(self, resources, sample_tagged):
        default = extract_corpus(sample_tagged, resources)
        trimmed = extract_corpus(sample_tagged, resources, fallback=False)
        assert len(trimmed) < len(default)
        assert all(p.pattern_name != "nearest-aspect" for p in trimmed)


class TestSummarizeCorpus:
    def test_sample_summary_totals(self, resources, sample_tagged):
        summary, groups, scores = summarize_corpus(
            sample_tagged, resources, top_k=3, product_name="mp3 player"
        )
        assert summary.total == 23
        assert summary.positive_total == 17
        assert summary.negative_total == 6
        assert (summary.positive_pct, summary.negative_pct) == (74, 26)
        assert summary.groups[0].label == "sound"
        assert (summary.groups[0].positive_count, summary.groups[0].negative_count) == (3, 1)

    def test_machine_header_line(self, resources, sample_tagged):
        summary, _, _ = summarize_corpus(
            sample_tagged, resources, top_k=3, product_name="mp3 player"
        )
        first = render(summary, "machine").splitlines()[0]
        assert first == "summary\tmp3 player\t23\t74\t26"

    def test_groups_cover_all_pairs(self, resources, sample_tagged):
        summary, groups, _ = summarize_corpus(sample_tagged, resources)
        assert sum(len(g.pairs) for g in groups) == 23

    def test_groups_exactly_the_given_pairs(self, resources, sample_tagged):
        pairs = extract_corpus(sample_tagged, resources, fallback=False)
        _, groups, _ = summarize_corpus(sample_tagged, resources, pairs=pairs)
        grouped = [p for g in groups for p in g.pairs]
        assert len(grouped) == len(pairs)
        assert all(p.pattern_name != "nearest-aspect" for p in grouped)

    @pytest.mark.parametrize("tagging", ["pretagged", "baseline"])
    @pytest.mark.parametrize("sample", ["sample", "minieval"])
    def test_entries_are_the_scores_of_their_group_sentences(
        self, request, resources, sample, tagging
    ):
        # each pros/cons entry is the sentence's own SentenceScore, not a
        # copy, and its sentence carries a pair of that group and polarity
        corpus = request.getfixturevalue(f"{sample}_corpus")
        if tagging == "pretagged":
            tagged = request.getfixturevalue(f"{sample}_tagged")
        else:
            tagged = tag_corpus(corpus, resources.tagger())
        summary, groups, scores = summarize_corpus(tagged, resources)
        by_label = {g.canonical_label: g for g in groups}
        entries = 0
        for group in summary.groups:
            pairs = by_label[group.label].pairs
            for side, orientation in ((group.pros, POSITIVE), (group.cons, NEGATIVE)):
                for entry in side:
                    assert entry is scores[entry.sentence]
                    assert any(
                        p.sentence is entry.sentence and p.orientation == orientation
                        for p in pairs
                    )
                    entries += 1
        assert entries > 0

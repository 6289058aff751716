"""Fuzz the file readers: any bytes either parse or raise the documented
``ParseError`` / ``FileNotFoundError``, and the CLI never shows a traceback.

Covers the corpus, pretagged, pattern, lexicon (opinion seed lists,
aspect terms with synonyms, verb categories, tag lexicon) and config
readers.  Lines are strung from fragments of every format, so that most
inputs get past the first check of some reader, or are raw bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aspectminer
from aspectminer import cli
from aspectminer.corpus import load_corpus
from aspectminer.errors import ParseError
from aspectminer.lexicons import (
    load_aspect_dictionary,
    load_opinion_lexicon,
    load_verb_categories,
)
from aspectminer.patterns import OPINION_ROLE_TAGS, load_pattern_set
from aspectminer.pipeline import data_dir, load_pretagged_file, load_resources, tag_corpus
from aspectminer.tagger import load_tag_lexicon, render_pretagged

FRAGMENTS = [
    # patterns
    "NN", "NN:A", "JJ:O", "VBZ", "RB:O", "XYZ", ":A", ":O", "# name=x", "name=",
    # pretagged
    "word/NN", "/NN", "a/b/JJ", "word/", "good/JJ",
    # corpus
    "[t]", "##", "sound[+2]", "zoom[-3][u]", "x[+9]", "[cs]", "[+", "]",
    # lexicons
    "battery", "battery:", "audio, sound", "positive", "negative", "\t", ";", ",",
    # config
    "{", "}", "[", '"top_k":', '"format":', '"corpus":', '"histogram"', "3", "true",
    "null", "1e999", "NaN", '"', ":",
    " ", "", "1" * 5000, "[" * 3000,
]
lines = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=6)), max_size=8
).map("".join)
texts = st.lists(lines, max_size=6).map("\n".join)
contents = st.one_of(texts.map(lambda t: t.encode("utf-8")), st.binary(max_size=64))

FUZZ = settings(max_examples=150, deadline=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def write(directory: Path, name: str, data: bytes) -> Path:
    path = directory / name
    path.write_bytes(data)
    return path


def parse_or_report(load, *args):
    """``load(*args)``, or None when it raises one of the documented errors."""
    try:
        return load(*args)
    except (ParseError, FileNotFoundError):
        return None


@given(contents)
@FUZZ
def test_corpus_reader(workdir, data):
    parse_or_report(load_corpus, write(workdir, "corpus.txt", data))


@given(contents, contents)
@FUZZ
def test_pretagged_reader_alone_and_aligned(workdir, data, corpus_data):
    path = write(workdir, "pretagged.txt", data)
    tagged = parse_or_report(load_pretagged_file, path)
    corpus = parse_or_report(load_corpus, write(workdir, "corpus.txt", corpus_data))
    if corpus is not None:
        aligned = parse_or_report(load_pretagged_file, path, corpus)
        if aligned is not None:
            # corpus sentences without text take no line and stay empty
            with_text = [s for s in aligned if s.source.raw_text]
            assert [s.tokens for s in with_text] == [s.tokens for s in tagged]
            assert not any(s.surfaces for s in aligned if not s.source.raw_text)


sentence_texts = st.lists(
    st.one_of(
        st.sampled_from(FRAGMENTS + ['"', "(", "]", "-LRB-", "``", "''", "don't", "/", "a/NN"]),
        st.text(max_size=6),
    ),
    max_size=8,
).map("".join)
corpus_texts = st.lists(
    st.tuples(st.sampled_from(["##", "[t]", "sound[+2]##"]), sentence_texts).map("".join),
    max_size=6,
).map("\n".join)


@pytest.fixture(scope="module")
def tagger():
    return load_resources().tagger()


@given(corpus_texts)
@FUZZ
def test_tag_rendering_aligns_with_its_corpus(workdir, tagger, text):
    """What ``tag`` prints for a corpus loads back aligned with that corpus."""
    corpus = load_corpus(write(workdir, "corpus.txt", text.encode("utf-8")))
    tagged = tag_corpus(corpus, tagger, start=7)
    rendered = "".join(render_pretagged(s) + "\n" for s in tagged)
    path = write(workdir, "tagged.txt", rendered.encode("utf-8"))
    aligned = load_pretagged_file(path, corpus, start=7)
    assert [s.tokens for s in aligned] == [s.tokens for s in tagged]
    assert [s.position for s in aligned] == [s.position for s in tagged]


def scan_index(patterns):
    """The scan index ``extract_sentences`` built on every call before
    ``PatternSet`` compiled it: each tag that starts a pattern or may hold
    an opinion, to the rows of the patterns starting with it in line
    order, and whether it may hold an opinion."""
    first = {}
    for rank, p in enumerate(patterns):
        first.setdefault(p.tags[0], []).append((rank, p))
    index = {tag: ((), True) for tag in OPINION_ROLE_TAGS}
    for tag, entries in first.items():
        index[tag] = (
            tuple(
                (p.tags, len(p.tags), rank, p.opinion_offset, p.aspect_offset, p.name)
                for rank, p in entries
            ),
            tag in OPINION_ROLE_TAGS,
        )
    return index


@given(contents)
@FUZZ
@example(b"JJ:O NN:A\nVBZ JJ:O\nJJ:O NN\nJJ:O VBG # name=x\n")
def test_pattern_reader_builds_the_index(workdir, data):
    ps = parse_or_report(load_pattern_set, write(workdir, "patterns.txt", data))
    if ps is not None:
        assert ps.by_tag == scan_index(ps.patterns)


@given(contents, contents)
@FUZZ
def test_opinion_lexicon_reader(workdir, positive, negative):
    parse_or_report(
        load_opinion_lexicon,
        write(workdir, "positive.txt", positive),
        write(workdir, "negative.txt", negative),
    )


@given(contents, contents)
@FUZZ
@example(b"battery\nsound\n", b"battery: power\nsound: audio, sound\nbattery: audio\n")
def test_aspect_dictionary_reader(workdir, terms, synonyms):
    parse_or_report(
        load_aspect_dictionary,
        write(workdir, "aspects.txt", terms),
        write(workdir, "synonyms.txt", synonyms),
    )


@given(contents)
@FUZZ
def test_verb_category_reader(workdir, data):
    parse_or_report(load_verb_categories, write(workdir, "verbs.txt", data))


@given(contents)
@FUZZ
def test_tag_lexicon_reader(workdir, data):
    parse_or_report(load_tag_lexicon, write(workdir, "tag-lexicon.txt", data))


@given(contents)
@FUZZ
@example(b"[" * 100_000)
@example(b'{"top_k": ' + b"1" * 5_000 + b"}")
def test_config_reader(workdir, data):
    parse_or_report(
        cli._load_config_file, write(workdir, "run.json", data), cli._COMMANDS["summarize"].formats
    )


# One bad file of each kind; each CLI run must end in its documented code.
BAD_FILES = {
    "config nested too deeply": ("--config", b"[" * 100_000, 3),
    "config integer too long": ("--config", b'{"top_k": ' + b"1" * 5_000 + b"}", 3),
    "corpus not UTF-8": ("--corpus", b"##caf\xe9 .\n", 3),
    "pretagged without tags": ("--pretagged", b"no tags here\n", 3),
    "pattern without opinion": ("--patterns", b"NN:A VBZ\n", 3),
    "synonym of unknown term": ("--synonyms", b"nothing: void\n", 3),
    "verb category of two fields": ("--verbs", b"like\tpositive\n", 3),
    "tag lexicon with bad tag": ("--tag-lexicon", b"word\tXYZ\n", 3),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_cli_reports_bad_files_without_traceback(case, tmp_path):
    flag, data, code = BAD_FILES[case]
    bad = write(tmp_path, "bad.txt", data)
    argv = ["summarize", flag, str(bad)]
    if flag != "--corpus":
        argv += ["--corpus", str(data_dir() / "sample" / "reviews.txt")]
    env = {**os.environ, "PYTHONPATH": str(Path(aspectminer.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "aspectminer", *argv],
        capture_output=True, encoding="utf-8", env=env, timeout=60,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code, proc.stderr
    assert str(bad) in proc.stderr

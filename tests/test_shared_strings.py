"""One object per tag and per repeated word, and an import that loads
only what a run calls.

Every tag the loaders and the baseline tagger hand out is the object
``tagger._PENN_TAG`` holds for it, one per Penn tag for the life of
the process.  Within one ``load_pretagged_file`` or ``tag_corpus`` call
equal surfaces are one object, and within one ``load_corpus`` call equal
gold terms and equal flag sets are.  ``import aspectminer.pipeline``
does not load ``logging``: the corpus reader imports it on its first
warning.  Nor does that import compile any of the standard ``tokenize``
module's regexes.  ``tokenize`` with a shared word table gives the
tokens of ``char_tokenize`` (the oracle in ``tests/test_corpus.py``) on
random text, one object per distinct token.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aspectminer
from aspectminer.corpus import load_corpus, parse_corpus_file, tokenize
from aspectminer.errors import read_text, text_lines
from aspectminer.pipeline import load_pretagged_file, tag_corpus
from aspectminer.tagger import (
    _PENN_TAG,
    PENN_TAGS,
    TaggedSentence,
    load_tag_lexicon,
    parse_pretagged,
    render_pretagged,
)
from test_corpus import WORDY, char_tokenize

SAMPLES = [
    ("reviews.txt", "reviews-pretagged.txt"),
    ("minieval.txt", "minieval-pretagged.txt"),
]


def test_table_holds_each_penn_tag_as_itself():
    assert set(_PENN_TAG) == PENN_TAGS
    assert all(key is value for key, value in _PENN_TAG.items())


def unshared(tags):
    """The tags that are not the table's object for their tag."""
    return [tag for tag in tags if _PENN_TAG.get(tag) is not tag]


def all_tags(sentences):
    return [tag for sentence in sentences for tag in sentence.tags]


@pytest.mark.parametrize("names", SAMPLES, ids=lambda n: n[0])
class TestSharedTags:
    def test_parse_pretagged(self, sample_dir, names):
        lines = text_lines(read_text(sample_dir / names[1]))
        tagged = [parse_pretagged(line) for _, line in lines]
        assert all_tags(tagged)
        assert unshared(all_tags(tagged)) == []

    def test_load_pretagged_file(self, sample_dir, names):
        corpus = load_corpus(sample_dir / names[0])
        tagged = load_pretagged_file(sample_dir / names[1], corpus)
        assert all_tags(tagged)
        assert unshared(all_tags(tagged)) == []

    def test_tag_corpus(self, sample_dir, resources, names):
        tagged = tag_corpus(load_corpus(sample_dir / names[0]), resources.tagger())
        assert all_tags(tagged)
        assert unshared(all_tags(tagged)) == []


def test_pattern_set_tags(resources):
    tags = [tag for pattern in resources.pattern_set.patterns for tag in pattern.tags]
    assert tags
    assert unshared(tags) == []


def test_tag_lexicon_values(resources):
    assert unshared(load_tag_lexicon(resources.tag_lexicon_path).values()) == []


def assert_one_object_per_value(values):
    """Equal values among ``values`` are one object."""
    by_value = {}
    for value in values:
        assert by_value.setdefault(value, value) is value


@pytest.mark.parametrize("names", SAMPLES, ids=lambda n: n[0])
def test_load_pretagged_file_shares_equal_surfaces(sample_dir, names):
    corpus = load_corpus(sample_dir / names[0])
    for aligned in (corpus, None):
        tagged = load_pretagged_file(sample_dir / names[1], aligned)
        surfaces = [s for sentence in tagged for s in sentence.surfaces]
        assert len(set(surfaces)) < len(surfaces)
        assert_one_object_per_value(surfaces)


@pytest.mark.parametrize("names", SAMPLES, ids=lambda n: n[0])
def test_tag_corpus_shares_equal_surfaces(sample_dir, resources, names):
    tagged = tag_corpus(load_corpus(sample_dir / names[0]), resources.tagger())
    surfaces = [s for sentence in tagged for s in sentence.surfaces]
    assert len(set(surfaces)) < len(surfaces)
    assert_one_object_per_value(surfaces)


def test_tag_corpus_shares_words_across_sentences_but_not_calls(resources):
    # built at run time, so no two equal words start out as one object
    text = " ".join(["zoom", "lens", "\u2014", "é"] * 2)
    corpus = parse_corpus_file(f"##{text}\n##{text} .\n", "p")
    first, second = tag_corpus(corpus, resources.tagger())
    assert first.surfaces == second.surfaces[:-1]
    assert all(a is b for a, b in zip(first.surfaces, second.surfaces))
    again = tag_corpus(corpus, resources.tagger())[0]
    assert again.surfaces == first.surfaces
    assert not any(a is b for a, b in zip(again.surfaces[:2], first.surfaces[:2]))


texts = st.text() | st.text(st.sampled_from(WORDY), max_size=40)


@settings(max_examples=300, deadline=None)
@given(st.lists(texts, max_size=4))
def test_tokenize_with_a_table_equals_the_character_oracle_and_shares(raw_texts):
    words = {}
    tokens = []
    for text in raw_texts:
        shared = tokenize(text, words)
        assert shared == tokenize(text) == char_tokenize(text)
        tokens.extend(shared)
    assert_one_object_per_value(tokens)
    assert all(key is value for key, value in words.items())
    assert words.keys() == set(tokens)


@pytest.mark.parametrize("names", SAMPLES, ids=lambda n: n[0])
def test_load_corpus_shares_equal_gold_terms_and_flag_sets(sample_dir, names):
    gold = [a for sentence in load_corpus(sample_dir / names[0]).sentences for a in sentence.gold]
    assert_one_object_per_value([a.aspect_term for a in gold])
    assert_one_object_per_value([a.flags for a in gold if a.flags])


def test_repeated_term_and_flags_in_any_order_are_one_object(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("zoom[+1][u][cs]##one .\nlens[+2],zoom[-2][cs][u]##two .\n", encoding="utf-8")
    first, second = load_corpus(path).sentences
    assert first.gold[0].aspect_term is second.gold[1].aspect_term
    assert first.gold[0].flags is second.gold[1].flags


surface = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8
).filter(lambda s: not any(ch.isspace() for ch in s))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(surface, st.sampled_from(sorted(PENN_TAGS))), min_size=1, max_size=12
    )
)
def test_render_then_parse_round_trips_with_shared_tags(rows):
    # each tag is a fresh copy, so only the parser can make it the table's
    sentence = TaggedSentence(
        tuple(s for s, _ in rows), tuple("".join(list(t)) for _, t in rows)
    )
    parsed = parse_pretagged(render_pretagged(sentence))
    assert parsed == sentence
    assert unshared(parsed.tags) == []


def test_import_loads_no_logging_and_compiles_no_tokenize_regex():
    # On Python 3.10 and 3.11, documenting a record from object's builtin
    # signature compiles tokenize's regexes; 3.12 parses it without them.
    src = str(Path(aspectminer.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import aspectminer.pipeline, aspectminer.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
        "compiled = getattr(sys.modules.get('tokenize'), '_compile', None)\n"
        "print(compiled.cache_info().currsize if hasattr(compiled, 'cache_info') else 0)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        encoding="utf-8",
        check=True,
    )
    loaded, compiled = run.stdout.splitlines()
    assert "aspectminer.pipeline" in loaded.split()
    assert "logging" not in loaded.split()
    assert compiled == "0"


def test_corpus_warning_goes_to_its_logger(caplog):
    with caplog.at_level("WARNING", logger="aspectminer.corpus"):
        parse_corpus_file("no marker\n", "p")
    assert [r.name for r in caplog.records] == ["aspectminer.corpus"]

"""Every line-oriented resource file and the machine-format report read
under the same line rules (README "File formats"): blank lines and
comment lines carry nothing, so each file parses equal to its text with
them removed, and neither CRLF endings nor a leading byte-order mark
change what it holds.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from functools import cache
from pathlib import Path

import pytest

from aspectminer.errors import read_text
from aspectminer.evaluation import load_report
from aspectminer.lexicons import (
    load_aspect_dictionary,
    load_opinion_lexicon,
    load_verb_categories,
)
from aspectminer.patterns import load_pattern_set
from aspectminer.pipeline import data_dir
from aspectminer.tagger import load_tag_lexicon

ROOT = Path(__file__).resolve().parents[1]


def _open_vocab_dictionary() -> tuple[str, str]:
    """Aspect and synonym file texts of the seed-1 ``open-vocab`` catalog."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen
    spec.loader.exec_module(gen)
    # bench/run.py's build_catalog draws the dictionary first from this rng
    _, aspects, synonyms = gen.open_vocabulary(random.Random("open-vocab:1"), 2000)
    return aspects, synonyms


def _bundled(name: str) -> str:
    return read_text(data_dir() / name)


# format -> (loader, the texts of the files it reads, index of the file in that format)
@cache
def _formats() -> dict[str, tuple]:
    opinions = [_bundled("positive-words.txt"), _bundled("negative-words.txt")]
    dictionary = [_bundled("aspects.txt"), _bundled("synonyms.txt")]
    open_vocab = list(_open_vocab_dictionary())
    return {
        "positive words": (load_opinion_lexicon, opinions, 0),
        "negative words": (load_opinion_lexicon, opinions, 1),
        "aspects": (load_aspect_dictionary, dictionary, 0),
        "synonyms": (load_aspect_dictionary, dictionary, 1),
        "open-vocab aspects": (load_aspect_dictionary, open_vocab, 0),
        "open-vocab synonyms": (load_aspect_dictionary, open_vocab, 1),
        "verbs": (load_verb_categories, [_bundled("verb-categories.txt")], 0),
        "tag lexicon": (load_tag_lexicon, [_bundled("tag-lexicon.txt")], 0),
        "patterns": (load_pattern_set, [_bundled("patterns.txt")], 0),
        "report": (load_report, [read_text(ROOT / "tests/golden/cli/baseline-report.tsv")], 0),
    }


FORMATS = (
    "positive words",
    "negative words",
    "aspects",
    "synonyms",
    "open-vocab aspects",
    "open-vocab synonyms",
    "verbs",
    "tag lexicon",
    "patterns",
    "report",
)


def _is_content(line: str) -> bool:
    stripped = line.strip()
    return bool(stripped) and not stripped.startswith(("#", ";"))


def without_blank_and_comment_lines(text: str) -> str:
    return "".join(line + "\n" for line in text.split("\n") if _is_content(line))


def with_comments_and_crlf(text: str) -> str:
    """``text`` with blank and comment lines of every kind around each
    line, and CRLF endings."""
    extra = ["", "   ", "# note", "; note", "  # indented note", "\t; indented note"]
    return "\r\n".join(
        decorated
        for i, line in enumerate(text.split("\n"))
        for decorated in (extra[i % len(extra)], line)
    )


def _load(tmp_path: Path, loader, texts: list[str | bytes], tag: str):
    paths = []
    for i, text in enumerate(texts):
        path = tmp_path / f"{tag}-{i}.txt"
        path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
        paths.append(path)
    result = loader(*paths)
    # the tag lexicon is a read-only mapping view
    return dict(result) if loader is load_tag_lexicon else result


@pytest.mark.parametrize("fmt", FORMATS)
def test_bundled_file_parses_as_its_content_lines(tmp_path, fmt):
    loader, texts, at = _formats()[fmt]
    stripped = list(texts)
    stripped[at] = without_blank_and_comment_lines(texts[at])
    assert _load(tmp_path, loader, texts, "as-shipped") == _load(
        tmp_path, loader, stripped, "stripped"
    )


@pytest.mark.parametrize("fmt", FORMATS)
def test_any_blank_or_comment_line_and_crlf_endings_read_as_nothing(tmp_path, fmt):
    loader, texts, at = _formats()[fmt]
    decorated = list(texts)
    decorated[at] = with_comments_and_crlf(texts[at])
    assert "\r\n; note" in decorated[at] and "\r\n  # indented note" in decorated[at]
    assert _load(tmp_path, loader, decorated, "decorated") == _load(
        tmp_path, loader, texts, "as-shipped"
    )


@pytest.mark.parametrize("fmt", FORMATS)
def test_leading_byte_order_mark_is_not_text(tmp_path, fmt):
    loader, texts, at = _formats()[fmt]
    marked = list(texts)
    # with the comments gone, the mark sits in front of the first entry
    marked[at] = b"\xef\xbb\xbf" + without_blank_and_comment_lines(texts[at]).encode("utf-8")
    assert _load(tmp_path, loader, marked, "marked") == _load(
        tmp_path, loader, texts, "as-shipped"
    )

"""Review corpus ingestion.

Reads the line-oriented annotated review format used by public
customer-review datasets and strips the human annotations into a gold
standard.  Line grammar:

    [t]<title>                        review title, starts a new review
    <annot>{,<annot>}##<sentence>     annotated sentence
    ##<sentence>                      plain sentence

where <annot> is ``term[+d]`` or ``term[-d]`` (d in 1..3) followed by
optional bracketed qualifier flags such as ``[u]`` or ``[cs]``.  Unknown
flags are kept verbatim.  Lines that carry a malformed annotation are
retained with empty gold and a logged warning; lines matching none of
the three forms (stray preamble text) are skipped with a warning.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import read_text

log = logging.getLogger(__name__)

# term, signed strength, then any number of [flag] groups
_ANNOT_RE = re.compile(
    r"^(?P<term>[^\[\]]+)\[(?P<sign>[+-])(?P<d>\d+)\](?P<flags>(?:\[[^\[\]]+\])*)$"
)
_FLAG_RE = re.compile(r"\[([^\[\]]+)\]")


@dataclass(frozen=True)
class GoldAnnotation:
    """One human label: an aspect term with a signed opinion strength."""

    aspect_term: str
    strength: int  # in -3..3, never 0
    flags: frozenset[str] = frozenset()


@dataclass(frozen=True)
class ReviewSentence:
    review_id: str
    sentence_index: int
    raw_text: str
    gold: tuple[GoldAnnotation, ...] = ()
    is_title: bool = False


@dataclass(frozen=True)
class Corpus:
    product_name: str
    sentences: tuple[ReviewSentence, ...] = ()


def _parse_annotation(text: str) -> GoldAnnotation:
    """Parse one ``term[+d]`` group; raises ValueError when malformed."""
    m = _ANNOT_RE.match(text.strip())
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
    flags = frozenset(f.strip() for f in _FLAG_RE.findall(m.group("flags")))
    return GoldAnnotation(aspect_term=term, strength=strength, flags=flags)


def _parse_gold(prefix: str) -> tuple[GoldAnnotation, ...]:
    return tuple(_parse_annotation(part) for part in prefix.split(",") if part.strip())


def parse_corpus_file(
    content: str, product_name: str, *, path: str | Path | None = None
) -> Corpus:
    """Parse annotated review text into a :class:`Corpus`.

    Deterministic: the same bytes always yield the same corpus.  Empty
    input yields an empty corpus.  ``path``, when given, prefixes every
    logged warning.
    """
    where = f"{path}: " if path is not None else ""
    sentences: list[ReviewSentence] = []
    review = 1
    index = 0
    for lineno, line in enumerate(content.splitlines(), start=1):
        line = line.rstrip()
        if not line.strip():
            continue
        if line.startswith("[t]"):
            # a title opens a new review unless the current one is still empty
            if index > 0:
                review += 1
                index = 0
            sentences.append(
                ReviewSentence(
                    review_id=f"r{review}",
                    sentence_index=index,
                    raw_text=line[3:].strip(),
                    is_title=True,
                )
            )
            index += 1
            continue
        if "##" not in line:
            log.warning("%sline %d: no sentence marker, skipped: %r", where, lineno, line[:60])
            continue
        prefix, _, text = line.partition("##")
        gold: tuple[GoldAnnotation, ...] = ()
        if prefix.strip():
            try:
                gold = _parse_gold(prefix)
            except ValueError as exc:
                log.warning(
                    "%sline %d: %s; keeping sentence without gold", where, lineno, exc
                )
                gold = ()
        sentences.append(
            ReviewSentence(
                review_id=f"r{review}",
                sentence_index=index,
                raw_text=text.strip(),
                gold=gold,
            )
        )
        index += 1
    return Corpus(product_name=product_name, sentences=tuple(sentences))


def load_corpus(path: str | Path, product_name: str | None = None) -> Corpus:
    """Read a review file; the product defaults to the file stem."""
    text = read_text(path)
    name = product_name if product_name is not None else Path(path).stem
    return parse_corpus_file(text, name, path=path)


def tokenize(raw_text: str) -> list[str]:
    """Split text into word and punctuation tokens.

    Words are maximal runs of letters, digits, and apostrophes; every
    other non-space character becomes a token of its own, so joining
    the tokens reproduces the non-whitespace characters of the input.
    Case is preserved.
    """
    tokens: list[str] = []
    word: list[str] = []
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

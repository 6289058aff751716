"""Review corpus ingestion.

Reads the line-oriented annotated review format used by public
customer-review datasets and strips the human annotations into a gold
standard.  Line grammar:

    [t]<title>                        title line
    <annot>{,<annot>}##<sentence>     annotated sentence
    ##<sentence>                      plain sentence

where <annot> is ``term[+d]`` or ``term[-d]`` (d in 1..3) followed by
optional bracketed qualifier flags such as ``[u]`` or ``[cs]``.  Unknown
flags are kept verbatim.  Lines that carry a malformed annotation are
retained with empty gold and a logged warning; lines matching none of
the three forms (stray preamble text) are skipped with a warning.
Warnings go to the ``aspectminer.corpus`` logger; ``logging`` is
imported on the first one, so a run over clean files never loads it.
Within one parsed file, equal gold terms and equal flag sets are one
object each.  The plain form ``term[+d]``/``term[-d]`` without flags,
the usual annotation, is read by one ``partition`` and a table lookup;
every other form goes through the annotation pattern.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from ._records import record
from .errors import read_text, text_lines

# term, signed strength, then any number of [flag] groups
_ANNOT_RE = re.compile(
    r"^(?P<term>[^\[\]]+)\[(?P<sign>[+-])(?P<d>\d+)\](?P<flags>(?:\[[^\[\]]+\])*)$"
)
_FLAG_RE = re.compile(r"\[([^\[\]]+)\]")
# what follows the "[" of a plain annotation, to its strength
_PLAIN_STRENGTHS = {f"{sign}{d}]": int(f"{sign}{d}") for sign in "+-" for d in "123"}


@record
class GoldAnnotation:
    """One human label: an aspect term with a signed opinion strength."""

    aspect_term: str
    strength: int  # in -3..3, never 0
    flags: frozenset[str] = frozenset()


@record
class ReviewSentence:
    raw_text: str
    gold: tuple[GoldAnnotation, ...] = ()
    is_title: bool = False


@dataclass(frozen=True)
class Corpus:
    product_name: str
    sentences: tuple[ReviewSentence, ...] = ()


def _warn(message: str, *args: object) -> None:
    import logging

    logging.getLogger(__name__).warning(message, *args)


def _parse_annotation(text: str, shared: dict | None = None) -> GoldAnnotation:
    """Parse one ``term[+d]`` group; raises ValueError when malformed.

    The term and the flag set are stored as ``shared``'s object for
    them, added when new.  A plain ``term[+d]`` with d in 1..3 and no
    flags is read without the pattern, to the same annotation.
    """
    if shared is None:
        shared = {}
    text = text.strip()
    term, _, rest = text.partition("[")
    strength = _PLAIN_STRENGTHS.get(rest)
    if strength is not None and term and "]" not in term:
        # the stripped text starts with the term, so the term holds a non-space
        term = term.strip()
        return GoldAnnotation(shared.setdefault(term, term), strength)
    m = _ANNOT_RE.match(text)
    if m is None:
        raise ValueError(f"unrecognized annotation {text!r}")
    term, sign, digits, flag_groups = m.groups()
    # the stripped text starts with the term, so the term holds a non-space
    term = term.strip()
    term = shared.setdefault(term, term)
    strength = int(digits)
    if sign == "-":
        strength = -strength
    if strength == 0 or abs(strength) > 3:
        raise ValueError(f"strength {strength:+d} out of range")
    if not flag_groups:
        return GoldAnnotation(term, strength)
    flags = frozenset(map(str.strip, _FLAG_RE.findall(flag_groups)))
    return GoldAnnotation(term, strength, shared.setdefault(flags, flags))


def _parse_gold(prefix: str, shared: dict) -> tuple[GoldAnnotation, ...]:
    """The annotations of a ``prefix`` that holds a non-space character,
    its blank comma-separated parts skipped."""
    if "," not in prefix:
        return (_parse_annotation(prefix, shared),)
    gold = []
    for part in prefix.split(","):
        if part.strip():
            gold.append(_parse_annotation(part, shared))
    return tuple(gold)


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
    # each gold term and flag set to its one object in this file; a str
    # never equals a frozenset, so one table serves both
    shared: dict = {}
    for lineno, line in text_lines(content):
        if line.startswith("[t]"):
            sentences.append(ReviewSentence(line[3:].strip(), is_title=True))
            continue
        if "##" not in line:
            _warn("%sline %d: no sentence marker, skipped: %r", where, lineno, line[:60])
            continue
        prefix, _, text = line.partition("##")
        gold: tuple[GoldAnnotation, ...] = ()
        if prefix.strip():
            try:
                gold = _parse_gold(prefix, shared)
            except ValueError as exc:
                _warn("%sline %d: %s; keeping sentence without gold", where, lineno, exc)
                gold = ()
        sentences.append(ReviewSentence(text.strip(), gold))
    return Corpus(product_name=product_name, sentences=tuple(sentences))


def load_corpus(path: str | Path, product_name: str | None = None) -> Corpus:
    """Read a review file; the product defaults to the file stem."""
    text = read_text(path)
    name = product_name if product_name is not None else Path(path).stem
    return parse_corpus_file(text, name, path=path)


def tokenize(raw_text: str, words: dict[str, str] | None = None) -> list[str]:
    """Split text into word and punctuation tokens.

    Words are maximal runs of letters, digits, and apostrophes; every
    other non-space character becomes a token of its own, so joining
    the tokens reproduces the non-whitespace characters of the input.
    Case is preserved.  Each token is stored as ``words``' object for
    it, added when new, so texts split with one table share their
    repeated tokens, as :func:`~aspectminer.tagger.parse_pretagged`
    shares surfaces.
    """
    share = ({} if words is None else words).setdefault
    tokens: list[str] = []
    for chunk in raw_text.split():
        # a chunk of letters, digits and apostrophes only is one word, and
        # a chunk of one character is one token, word or not
        if chunk.isalnum() or len(chunk) == 1 or chunk.replace("'", "").isalnum():
            tokens.append(share(chunk, chunk))
            continue
        word: list[str] = []
        for ch in chunk:
            if ch.isalnum() or ch == "'":
                word.append(ch)
            else:
                if word:
                    token = "".join(word)
                    tokens.append(share(token, token))
                    word.clear()
                tokens.append(share(ch, ch))
        if word:
            token = "".join(word)
            tokens.append(share(token, token))
    return tokens

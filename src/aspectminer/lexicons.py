"""Knowledge resources: opinion seed lists, aspect dictionary, verb
categories, and the adjective/adverb tag weight table.

All matching is lowercase; every structure is immutable after loading.
The verb lexicon remembers the orientation of each verb surface it is
asked about; the answer depends only on its immutable map.
File formats (all UTF-8, ``;`` and ``#`` start comment lines):

* opinion seed lists: one word per line, one file per polarity
* aspect terms: one canonical term per line (multi-word allowed)
* synonyms: ``canonical: syn1, syn2, ...`` per line
* verb categories: ``category<TAB>orientation<TAB>verb,verb,...``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import ParseError, read_text
from .tagger import base_form_candidates

POSITIVE = "positive"
NEGATIVE = "negative"
NONE = "none"

DEFAULT_TAG_WEIGHTS = {"JJ": 1, "JJR": 2, "JJS": 3, "RB": 1, "RBR": 2, "RBS": 3}


def _read_words(path: str | Path) -> list[str]:
    words = []
    for line in read_text(path).splitlines():
        line = line.strip()
        if not line or line.startswith((";", "#")):
            continue
        words.append(line.lower())
    return words


@dataclass(frozen=True)
class OpinionLexicon:
    """Positive and negative opinion seed lists (disjoint by construction)."""

    positive: frozenset[str]
    negative: frozenset[str]

    def polarity(self, word: str) -> str:
        w = word.lower()
        if w in self.positive:
            return POSITIVE
        if w in self.negative:
            return NEGATIVE
        return NONE


def load_opinion_lexicon(positive_file: str | Path, negative_file: str | Path) -> OpinionLexicon:
    pos = frozenset(_read_words(positive_file))
    neg = frozenset(_read_words(negative_file))
    both = pos & neg
    if both:
        listing = ", ".join(sorted(both)[:20])
        raise ParseError(
            f"{len(both)} word(s) present in both seed lists: {listing}",
            path=negative_file,
        )
    return OpinionLexicon(positive=pos, negative=neg)


def _normalize_term(term: str) -> str:
    return " ".join(term.lower().split())


@dataclass(frozen=True)
class AspectDictionary:
    """Known aspect terms mapping to their canonical form.

    Canonical terms map to themselves; synonyms map to their canonical.
    Keys are normalized terms: lowercase words joined by single spaces.
    ``match_at`` matches the longest dictionary term starting at a token
    position, so multi-word terms win over their prefixes.  ``widest``
    maps each entry's first word to the word count of the longest entry
    starting with it, the widest window ``match_at`` tries there.
    """

    entries: dict[str, str] = field(default_factory=dict)
    widest: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        widest: dict[str, int] = {}
        for term in self.entries:
            first = term.partition(" ")[0]
            words = term.count(" ") + 1
            if words > widest.get(first, 0):
                widest[first] = words
        object.__setattr__(self, "widest", widest)

    def lookup(self, term: str) -> str | None:
        return self.entries.get(_normalize_term(term))

    def match_at(self, words_lower: list[str], start: int) -> tuple[int, str] | None:
        """Longest entry equal to ``words_lower[start:start+n]``; returns (n, canonical).

        The words hold no whitespace (see :class:`~aspectminer.tagger.TaggedSentence`),
        so a window joined by single spaces is already a normalized key.
        """
        return _longest_entry_at(words_lower, start, self.entries.get, self.widest.get)


def _longest_entry_at(
    words_lower: list[str],
    start: int,
    entry: Callable[[str], str | None],
    widest: Callable[[str], int | None],
) -> tuple[int, str] | None:
    """:meth:`AspectDictionary.match_at` given the bound ``get`` of its
    ``entries`` and ``widest``, so a caller scanning many positions looks
    them up once."""
    limit = widest(words_lower[start])
    if not limit:
        return None
    limit = min(limit, len(words_lower) - start)
    for n in range(limit, 0, -1):
        canonical = entry(" ".join(words_lower[start : start + n]))
        if canonical is not None:
            return n, canonical
    return None


def load_aspect_dictionary(
    spec_file: str | Path,
    synonym_file: str | Path | None = None,
) -> AspectDictionary:
    """Build the dictionary from canonical terms plus optional synonyms."""
    entries: dict[str, str] = {}
    for term in _read_words(spec_file):
        key = _normalize_term(term)
        entries[key] = key
    if synonym_file is not None:
        path = Path(synonym_file)
        for lineno, line in enumerate(read_text(path).splitlines(), 1):
            line = line.strip()
            if not line or line.startswith((";", "#")):
                continue
            canonical_part, sep, syn_part = line.partition(":")
            if not sep:
                raise ParseError("expected 'canonical: syn, ...'", path=path, line=lineno)
            canonical = _normalize_term(canonical_part)
            if entries.get(canonical) != canonical:
                raise ParseError(
                    f"synonyms reference unknown canonical term {canonical!r}",
                    path=path,
                    line=lineno,
                )
            for raw in syn_part.split(","):
                syn = _normalize_term(raw)
                if not syn:
                    continue
                existing = entries.get(syn)
                if existing is not None and existing != canonical:
                    raise ParseError(
                        f"synonym {syn!r} maps to both {existing!r} and {canonical!r}",
                        path=path,
                        line=lineno,
                    )
                entries[syn] = canonical
    return AspectDictionary(entries=entries)


@dataclass(frozen=True)
class VerbCategoryLexicon:
    """Verbs that reinforce (+1) or weaken (-1) sentence weight.

    ``by_surface`` remembers :meth:`orientation_of_surface` for each
    surface asked about; it grows with the distinct verb surfaces seen.
    """

    orientations: dict[str, int] = field(default_factory=dict)  # base form -> +1 | -1
    by_surface: dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def orientation_of(self, base_form: str) -> int:
        return self.orientations.get(base_form.lower(), 0)

    def orientation_of_surface(self, surface: str) -> int:
        """Orientation of the first of ``surface``'s base forms that has one, else 0."""
        orientation = self.by_surface.get(surface)
        if orientation is None:
            orientation = 0
            for base in base_form_candidates(surface):
                orientation = self.orientation_of(base)
                if orientation != 0:
                    break
            self.by_surface[surface] = orientation
        return orientation


def load_verb_categories(path: str | Path) -> VerbCategoryLexicon:
    """Read ``category<TAB>orientation<TAB>verbs`` lines; the name is not kept."""
    path = Path(path)
    orientations: dict[str, int] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.rstrip()
        if not line.strip() or line.startswith((";", "#")):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(
                "expected category<TAB>orientation<TAB>verbs", path=path, line=lineno
            )
        _name, orientation, verb_part = (p.strip() for p in parts)
        if orientation not in (POSITIVE, NEGATIVE):
            raise ParseError(f"unknown orientation {orientation!r}", path=path, line=lineno)
        sign = 1 if orientation == POSITIVE else -1
        for v in verb_part.split(","):
            v = v.strip().lower()
            if v and orientations.setdefault(v, sign) != sign:
                raise ParseError(
                    f"verb {v!r} appears in both orientations", path=path, line=lineno
                )
    return VerbCategoryLexicon(orientations=orientations)


@dataclass(frozen=True)
class TagWeightTable:
    """Per-tag weights for adjective/adverb strength; unlisted tags weigh 0."""

    weights: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_TAG_WEIGHTS))

    def __post_init__(self):
        for tag, w in self.weights.items():
            if not isinstance(w, int) or w < 0:
                raise ValueError(f"weight for {tag} must be a non-negative integer")

    def weight(self, tag: str) -> int:
        return self.weights.get(tag, 0)

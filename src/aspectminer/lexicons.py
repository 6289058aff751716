"""Knowledge resources: opinion seed lists, aspect dictionary, verb
categories, and the adjective/adverb tag weight table.

All matching is lowercase; every structure is immutable after loading.
File formats (all UTF-8, ``;`` and ``#`` start comment lines):

* opinion seed lists: one word per line, one file per polarity
* aspect terms: one canonical term per line (multi-word allowed)
* synonyms: ``canonical: syn1, syn2, ...`` per line
* verb categories: ``category<TAB>orientation<TAB>verb,verb,...``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError

POSITIVE = "positive"
NEGATIVE = "negative"
NONE = "none"

DEFAULT_TAG_WEIGHTS = {"JJ": 1, "JJR": 2, "JJS": 3, "RB": 1, "RBR": 2, "RBS": 3}


def _read_words(path: str | Path) -> list[str]:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(str(path))
    words = []
    for line in path.read_text(encoding="utf-8").splitlines():
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
    ``match_at`` matches the longest dictionary term starting at a token
    position, so multi-word terms win over their prefixes.
    """

    entries: dict[str, str] = field(default_factory=dict)

    @property
    def max_words(self) -> int:
        return max((term.count(" ") + 1 for term in self.entries), default=0)

    def lookup(self, term: str) -> str | None:
        return self.entries.get(_normalize_term(term))

    def match_at(self, words_lower: list[str], start: int) -> tuple[int, str] | None:
        """Longest entry equal to ``words_lower[start:start+n]``; returns (n, canonical)."""
        limit = min(self.max_words, len(words_lower) - start)
        for n in range(limit, 0, -1):
            key = " ".join(words_lower[start : start + n])
            canonical = self.entries.get(key)
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
        if not path.is_file():
            raise FileNotFoundError(str(path))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
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
class VerbCategory:
    name: str
    orientation: str  # positive | negative
    verbs: frozenset[str]


@dataclass(frozen=True)
class VerbCategoryLexicon:
    """Verb categories that reinforce (+1) or weaken (-1) sentence weight."""

    categories: tuple[VerbCategory, ...] = ()

    def orientation_of(self, base_form: str) -> int:
        w = base_form.lower()
        for cat in self.categories:
            if w in cat.verbs:
                return 1 if cat.orientation == POSITIVE else -1
        return 0


def load_verb_categories(path: str | Path) -> VerbCategoryLexicon:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(str(path))
    categories: list[VerbCategory] = []
    seen: dict[str, str] = {}  # verb -> orientation
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.rstrip()
        if not line.strip() or line.startswith((";", "#")):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(
                "expected category<TAB>orientation<TAB>verbs", path=path, line=lineno
            )
        name, orientation, verb_part = (p.strip() for p in parts)
        if orientation not in (POSITIVE, NEGATIVE):
            raise ParseError(f"unknown orientation {orientation!r}", path=path, line=lineno)
        verbs = frozenset(v.strip().lower() for v in verb_part.split(",") if v.strip())
        for v in verbs:
            if seen.setdefault(v, orientation) != orientation:
                raise ParseError(
                    f"verb {v!r} appears in both orientations", path=path, line=lineno
                )
        categories.append(VerbCategory(name=name, orientation=orientation, verbs=verbs))
    return VerbCategoryLexicon(categories=tuple(categories))


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

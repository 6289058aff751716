"""Knowledge resources: opinion seed lists, aspect dictionary and verb
categories.

All matching is lowercase; every structure is immutable after loading.
Each loader reads its files on every call and parses them again only
when their text has changed, so a later call on unchanged files gets
the very object an earlier call got (see ``errors._parse_files``).
The verb lexicon remembers the orientation of each verb surface it is
asked about; the answer depends only on its immutable map, so the memo
holds for every call that shares it.
File formats (all UTF-8, ``;`` and ``#`` start comment lines):

* opinion seed lists: one word per line, one file per polarity
* aspect terms: one canonical term per line (multi-word allowed)
* synonyms: ``canonical: syn1, syn2, ...`` per line
* verb categories: ``category<TAB>orientation<TAB>verb,verb,...``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError, _parse_files
from .tagger import base_form_candidates

POSITIVE = "positive"
NEGATIVE = "negative"


def _words(text: str) -> list[str]:
    words = []
    for line in text.splitlines():
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


def load_opinion_lexicon(positive_file: str | Path, negative_file: str | Path) -> OpinionLexicon:
    return _parse_files(_parse_opinion_lexicon, positive_file, negative_file)


def _parse_opinion_lexicon(texts, paths) -> OpinionLexicon:
    pos = frozenset(_words(texts[0]))
    neg = frozenset(_words(texts[1]))
    both = pos & neg
    if both:
        listing = ", ".join(sorted(both)[:20])
        raise ParseError(
            f"{len(both)} word(s) present in both seed lists: {listing}",
            path=paths[1],
        )
    return OpinionLexicon(positive=pos, negative=neg)


def _normalize_term(term: str) -> str:
    return " ".join(term.lower().split())


@dataclass(frozen=True)
class AspectDictionary:
    """Known aspect terms mapping to their canonical form.

    Canonical terms map to themselves; synonyms map to their canonical.
    Keys are normalized terms: lowercase words joined by single spaces.
    ``widest`` maps each entry's first word to the word count of the
    longest entry starting with it, the widest window the nearest-aspect
    search tries there, so multi-word terms win over their prefixes.
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


def load_aspect_dictionary(
    spec_file: str | Path, synonym_file: str | Path
) -> AspectDictionary:
    """Build the dictionary from canonical terms plus their synonyms."""
    return _parse_files(_parse_aspect_dictionary, spec_file, synonym_file)


def _parse_aspect_dictionary(texts, paths) -> AspectDictionary:
    entries: dict[str, str] = {}
    for term in _words(texts[0]):
        key = _normalize_term(term)
        entries[key] = key
    _, synonym_file = paths
    for lineno, line in enumerate(texts[1].splitlines(), 1):
        line = line.strip()
        if not line or line.startswith((";", "#")):
            continue
        canonical_part, sep, syn_part = line.partition(":")
        if not sep:
            raise ParseError(
                "expected 'canonical: syn, ...'", path=synonym_file, line=lineno
            )
        canonical = _normalize_term(canonical_part)
        if entries.get(canonical) != canonical:
            raise ParseError(
                f"synonyms reference unknown canonical term {canonical!r}",
                path=synonym_file,
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
                    path=synonym_file,
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

    def orientation_of_surface(self, surface: str) -> int:
        """Orientation of the first of ``surface``'s base forms that has one, else 0."""
        orientation = self.by_surface.get(surface)
        if orientation is None:
            orientation = 0
            for base in base_form_candidates(surface):
                orientation = self.orientations.get(base, 0)
                if orientation != 0:
                    break
            self.by_surface[surface] = orientation
        return orientation


def load_verb_categories(path: str | Path) -> VerbCategoryLexicon:
    """Read ``category<TAB>orientation<TAB>verbs`` lines; the name is not kept."""
    return _parse_files(_parse_verb_categories, path)


def _parse_verb_categories(texts, paths) -> VerbCategoryLexicon:
    (path,) = paths
    orientations: dict[str, int] = {}
    for lineno, line in enumerate(texts[0].splitlines(), 1):
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

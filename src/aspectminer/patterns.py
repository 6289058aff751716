"""Tag patterns: matching, pair extraction, and frequent tag-set mining.

A pattern is a short sequence of part-of-speech tags with two marked
roles: one position holding the opinion word and (usually) one holding
the aspect noun.  Patterns without an aspect position rely on the
nearest-aspect search to locate the nearest noun or dictionary term.

Pattern file syntax, one pattern per line::

    NN:A VBZ JJ        # name=noun-is-adj

``:A`` marks the aspect position, ``:O`` the opinion position.  Order of
lines is precedence order.  ``extract_sentences`` is the one extraction
core: it runs a whole corpus in one loop, resolving the pattern index,
seed lists and dictionary lookups once per call, and states the full
rule; ``extract_with_options`` is its one-sentence call.
A :class:`PatternSet` indexes its patterns by first tag, so extraction
scans each sentence's tags once whatever the number of patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Collection, Iterable

from ._records import slot_setters
from .errors import ParseError, read_text
from .lexicons import NEGATIVE, POSITIVE, AspectDictionary, OpinionLexicon
from .tagger import NOUN_TAGS, PENN_TAGS, TaggedSentence

# Tags a pattern may mark as the opinion role.
OPINION_ROLE_TAGS = frozenset(
    {"JJ", "JJR", "JJS", "RB", "RBR", "RBS", "VBD", "VBG", "VBN"}
)

MIN_PATTERN_LEN = 2
MAX_PATTERN_LEN = 6

FALLBACK_PATTERN_NAME = "nearest-aspect"


@dataclass(frozen=True)
class TagPattern:
    """One extraction pattern over part-of-speech tags.

    ``aspect_offset`` is None for patterns whose aspect is found by the
    nearest-aspect fallback rather than a fixed position.
    """

    tags: tuple[str, ...]
    opinion_offset: int
    aspect_offset: int | None = None
    name: str = ""

    def __post_init__(self):
        if not MIN_PATTERN_LEN <= len(self.tags) <= MAX_PATTERN_LEN:
            raise ValueError(
                f"pattern length must be {MIN_PATTERN_LEN}..{MAX_PATTERN_LEN}, "
                f"got {len(self.tags)}"
            )
        unknown = [t for t in self.tags if t not in PENN_TAGS]
        if unknown:
            raise ValueError(f"unknown tag(s) in pattern: {', '.join(unknown)}")
        if not 0 <= self.opinion_offset < len(self.tags):
            raise ValueError("opinion_offset out of range")
        if self.tags[self.opinion_offset] not in OPINION_ROLE_TAGS:
            raise ValueError(
                f"opinion position must hold an adjective, adverb, or participle "
                f"tag, not {self.tags[self.opinion_offset]}"
            )
        if self.aspect_offset is not None:
            if not 0 <= self.aspect_offset < len(self.tags):
                raise ValueError("aspect_offset out of range")
            if self.aspect_offset == self.opinion_offset:
                raise ValueError("aspect and opinion positions must differ")
            if self.tags[self.aspect_offset] not in NOUN_TAGS:
                raise ValueError(
                    f"aspect position must hold a noun tag, "
                    f"not {self.tags[self.aspect_offset]}"
                )
        if not self.name:
            object.__setattr__(self, "name", "-".join(t.lower() for t in self.tags))


@dataclass(frozen=True)
class PatternSet:
    """Ordered collection of patterns; earlier patterns take precedence.

    ``by_first_tag`` maps each tag that starts a pattern to the
    ``(rank, pattern)`` entries of the patterns starting with it, rank
    being the line order.
    """

    patterns: tuple[TagPattern, ...]
    by_first_tag: dict[str, tuple[tuple[int, TagPattern], ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        seen: set[tuple] = set()
        index: dict[str, list[tuple[int, TagPattern]]] = {}
        for rank, p in enumerate(self.patterns):
            key = (p.tags, p.aspect_offset, p.opinion_offset)
            if key in seen:
                raise ValueError(f"duplicate pattern {' '.join(p.tags)}")
            seen.add(key)
            index.setdefault(p.tags[0], []).append((rank, p))
        by_first_tag = {tag: tuple(entries) for tag, entries in index.items()}
        object.__setattr__(self, "by_first_tag", by_first_tag)


def parse_pattern_line(line: str) -> TagPattern | None:
    """Parse one pattern line; returns None for blanks and comments."""
    code, _, meta = line.partition("#")
    code = code.strip()
    if not code:
        return None
    name = ""
    for piece in meta.split():
        if piece.startswith("name="):
            name = piece[len("name=") :]
    tags: list[str] = []
    aspect_offset: int | None = None
    opinion_offset: int | None = None
    for i, tok in enumerate(code.split()):
        role = None
        if tok.endswith(":A") or tok.endswith(":O"):
            role = tok[-1]
            tok = tok[:-2]
        tags.append(tok)
        if role == "A":
            if aspect_offset is not None:
                raise ValueError("more than one aspect position")
            aspect_offset = i
        elif role == "O":
            if opinion_offset is not None:
                raise ValueError("more than one opinion position")
            opinion_offset = i
    if opinion_offset is None:
        raise ValueError("pattern has no opinion position (:O)")
    return TagPattern(
        tags=tuple(tags),
        opinion_offset=opinion_offset,
        aspect_offset=aspect_offset,
        name=name,
    )


def load_pattern_set(path: str | Path) -> PatternSet:
    path = Path(path)
    patterns = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        try:
            pattern = parse_pattern_line(line)
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=lineno) from exc
        if pattern is not None:
            patterns.append(pattern)
    try:
        return PatternSet(patterns=tuple(patterns))
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from exc


@dataclass(frozen=True, slots=True, init=False)
class AspectOpinionPair:
    """One extracted (aspect, opinion) pair anchored in its sentence.

    ``aspect_surface`` is the canonical dictionary form when the matched
    noun span is a known term, otherwise the raw lowercase span text.
    """

    aspect_surface: str
    opinion_surface: str
    orientation: str  # positive | negative
    sentence: TaggedSentence
    aspect_index: int
    opinion_index: int
    pattern_name: str
    aspect_end: int  # one past the last aspect token

    def __init__(
        self,
        aspect_surface,
        opinion_surface,
        orientation,
        sentence,
        aspect_index,
        opinion_index,
        pattern_name,
        aspect_end,
    ):
        _set_aspect_surface(self, aspect_surface)
        _set_opinion_surface(self, opinion_surface)
        _set_orientation(self, orientation)
        _set_sentence(self, sentence)
        _set_aspect_index(self, aspect_index)
        _set_opinion_index(self, opinion_index)
        _set_pattern_name(self, pattern_name)
        _set_aspect_end(self, aspect_end)


(
    _set_aspect_surface,
    _set_opinion_surface,
    _set_orientation,
    _set_sentence,
    _set_aspect_index,
    _set_opinion_index,
    _set_pattern_name,
    _set_aspect_end,
) = slot_setters(AspectOpinionPair)


def _aspect_at(
    tags: tuple[str, ...],
    words_lower: list[str],
    index: int,
    entry: Callable[[str], str | None],
) -> tuple[int, int, str]:
    """``(start, end, surface)`` of the aspect at the noun ``index``.

    The span is the maximal run of noun-tagged tokens around the noun.
    The full span is looked up first in the dictionary (``entry`` is the
    bound ``get`` of its entries); failing that, the anchor token alone.
    Unknown spans keep their raw lowercase text.  Surfaces hold no
    whitespace, so the lowercased run joined by single spaces is already
    a normalized dictionary key and is probed as it is.
    """
    start = index
    end = index + 1
    while start > 0 and tags[start - 1] in NOUN_TAGS:
        start -= 1
    while end < len(tags) and tags[end] in NOUN_TAGS:
        end += 1
    if end - start == 1:
        surface = words_lower[start]
        return start, end, entry(surface) or surface
    surface = " ".join(words_lower[start:end])
    canonical = entry(surface)
    if canonical is None:
        canonical = entry(words_lower[index])
    return start, end, canonical or surface


def _longest_entry_at(
    words_lower: list[str],
    start: int,
    entry: Callable[[str], str | None],
    widest: Callable[[str], int | None],
) -> tuple[int, str] | None:
    """``(n, canonical)`` of the longest dictionary entry equal to
    ``words_lower[start:start+n]``, given the bound ``get`` of the
    dictionary's ``entries`` and ``widest``; only windows up to the
    widest entry starting with the first word are tried.

    The words hold no whitespace (see :class:`~aspectminer.tagger.TaggedSentence`),
    so a window joined by single spaces is already a normalized key.
    """
    limit = widest(words_lower[start])
    if not limit:
        return None
    limit = min(limit, len(words_lower) - start)
    for n in range(limit, 0, -1):
        canonical = entry(" ".join(words_lower[start : start + n]))
        if canonical is not None:
            return n, canonical
    return None


def _nearest_aspect(
    tags: tuple[str, ...],
    words_lower: list[str],
    opinion_index: int,
    entry: Callable[[str], str | None],
    widest: Callable[[str], int | None],
) -> tuple[int, int, str] | None:
    """``(start, end, surface)`` of the nearest noun or dictionary term to
    the opinion word: backward first, then forward.

    A noun gives its :func:`_aspect_at` span; any other token starting a
    dictionary term (:func:`_longest_entry_at`) gives the term.
    """
    backward = range(opinion_index - 1, -1, -1)
    forward = range(opinion_index + 1, len(tags))
    for j in chain(backward, forward):
        if tags[j] in NOUN_TAGS:
            return _aspect_at(tags, words_lower, j, entry)
        hit = _longest_entry_at(words_lower, j, entry, widest)
        if hit is not None:
            return j, j + hit[0], hit[1]
    return None


def extract_with_options(
    sentence: TaggedSentence,
    dictionary: AspectDictionary,
    lexicon: OpinionLexicon,
    pattern_set: PatternSet,
    *,
    fallback: bool = True,
    conjunction: bool = True,
) -> list[AspectOpinionPair]:
    """The pairs of one sentence: :func:`extract_sentences` on it alone."""
    return extract_sentences(
        (sentence,), dictionary, lexicon, pattern_set,
        fallback=fallback, conjunction=conjunction,
    )


def extract_sentences(
    sentences: Iterable[TaggedSentence],
    dictionary: AspectDictionary,
    lexicon: OpinionLexicon,
    pattern_set: PatternSet,
    *,
    fallback: bool = True,
    conjunction: bool = True,
) -> list[AspectOpinionPair]:
    """Extract the (aspect, opinion) pairs of each sentence, in sentence order.

    A candidate survives only if its opinion word has a known polarity.
    Within a sentence, each (aspect start, opinion index) position holds
    one pair, and the first claim of a position wins.  Claims are made in
    three passes:

    1. the patterns in line order, each window left to right;
    2. with ``fallback``, the nearest-aspect search for each polar
       adjective/adverb/participle token that no pattern claimed, in
       token order (so common verbs in the seed lists spawn no pairs);
    3. with ``conjunction``, each pair of passes 1-2, in position order,
       is copied once onto the noun after a coordinating conjunction that
       directly follows its aspect span; copies are not copied again.
       A sentence without a ``CC`` tag skips this pass.

    The tags are scanned once: at each position only the patterns that
    start with its tag are compared, and each hit is recorded as
    ``(rank, start, pattern)``, so sorting the hits gives the order of
    pass 1.  The same scan records the opinion-role positions pass 2
    visits.  A sentence with neither hits nor (with ``fallback``) such
    positions yields no pairs; any other is lowercased once, for the
    polarity gate, the opinion surfaces and the aspect search.  Each
    sentence's pairs are ordered by token position.

    The pattern index, the seed lists and the dictionary's lookups are
    resolved once per call, not once per sentence.
    """
    by_first_tag = pattern_set.by_first_tag.get
    positive = lexicon.positive
    negative = lexicon.negative
    entry = dictionary.entries.get
    widest = dictionary.widest.get
    pairs: list[AspectOpinionPair] = []
    for sentence in sentences:
        tags = sentence.tags
        hits: list[tuple[int, int, TagPattern]] = []
        opinion_positions: list[int] = []
        for start, tag in enumerate(tags):
            patterns = by_first_tag(tag)
            if patterns is not None:
                for rank, pattern in patterns:
                    if tags[start : start + len(pattern.tags)] == pattern.tags:
                        hits.append((rank, start, pattern))
            if tag in OPINION_ROLE_TAGS:
                opinion_positions.append(start)
        if not hits and not (fallback and opinion_positions):
            continue
        if len(hits) > 1:
            hits.sort()
        words_lower = [w.lower() for w in sentence.surfaces]
        # (aspect start, opinion index) -> (surface, orientation, aspect end, pattern name)
        found: dict[tuple[int, int], tuple[str, str, int, str]] = {}

        for _, start, pattern in hits:
            oi = start + pattern.opinion_offset
            word = words_lower[oi]
            orientation = POSITIVE if word in positive else NEGATIVE if word in negative else None
            if orientation is None:
                continue
            if pattern.aspect_offset is not None:
                span = _aspect_at(tags, words_lower, start + pattern.aspect_offset, entry)
            else:
                span = _nearest_aspect(tags, words_lower, oi, entry, widest)
                if span is None:
                    continue
            found.setdefault((span[0], oi), (span[2], orientation, span[1], pattern.name))

        if fallback and opinion_positions:
            claimed = {oi for _, oi in found}
            for oi in opinion_positions:
                if oi in claimed:
                    continue
                word = words_lower[oi]
                orientation = (
                    POSITIVE if word in positive else NEGATIVE if word in negative else None
                )
                if orientation is None:
                    continue
                span = _nearest_aspect(tags, words_lower, oi, entry, widest)
                if span is not None:
                    found.setdefault(
                        (span[0], oi), (span[2], orientation, span[1], FALLBACK_PATTERN_NAME)
                    )

        if conjunction and "CC" in tags:
            for (_, oi), (_, orientation, after, name) in sorted(found.items()):
                if (
                    after + 1 < len(tags)
                    and tags[after] == "CC"
                    and tags[after + 1] in NOUN_TAGS
                ):
                    span = _aspect_at(tags, words_lower, after + 1, entry)
                    found.setdefault((span[0], oi), (span[2], orientation, span[1], name))

        for (start, oi), (surface, orientation, end, name) in (
            sorted(found.items()) if len(found) > 1 else found.items()
        ):
            pairs.append(
                AspectOpinionPair(
                    surface, words_lower[oi], orientation, sentence, start, oi, name, end
                )
            )
    return pairs


@dataclass(frozen=True)
class MinedPattern:
    """A frequent contiguous tag sequence with its sentence-level support."""

    tags: tuple[str, ...]
    support: int
    support_ratio: float


def _level_supports(
    sentence_tags: list[tuple[str, ...]],
    length: int,
    shorter: Collection[tuple[str, ...]],
) -> dict[tuple[str, ...], int]:
    """Sentence-level support counts for the tag n-grams of one length
    whose prefix and suffix of one tag less are both in ``shorter``."""
    supports: dict[tuple[str, ...], int] = {}
    for tags in sentence_tags:
        seen: set[tuple[str, ...]] = set()
        for start in range(len(tags) - length + 1):
            gram = tags[start : start + length]
            if gram[:-1] in shorter and gram[1:] in shorter:
                seen.add(gram)
        for gram in seen:
            supports[gram] = supports.get(gram, 0) + 1
    return supports


def mine_frequent_tag_sets(
    corpus_tagged: list[TaggedSentence],
    min_support: int,
    max_len: int = MAX_PATTERN_LEN,
) -> list[MinedPattern]:
    """Levelwise mining of frequent contiguous tag n-grams (lengths 2..max_len).

    Support is sentence-level: a sentence counts once per distinct n-gram
    no matter how often the n-gram repeats inside it.  An n-gram of
    length L+1 is counted only when both of its length-L sub-grams are
    frequent, which for contiguous sequences is exactly the
    anti-monotonicity prune; the test is two set lookups per position,
    so each level costs time linear in the input.
    """
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    if not MIN_PATTERN_LEN <= max_len <= MAX_PATTERN_LEN:
        raise ValueError(
            f"max_len must be {MIN_PATTERN_LEN}..{MAX_PATTERN_LEN}, got {max_len}"
        )
    sentence_tags = [s.tags for s in corpus_tagged]
    total = len(sentence_tags)
    if total == 0:
        return []

    frequent: dict[tuple[str, ...], int] = {}
    # every 1-gram present, so that the first level prunes nothing
    level: Collection[tuple[str, ...]] = {(tag,) for tags in sentence_tags for tag in tags}
    for length in range(MIN_PATTERN_LEN, max_len + 1):
        level = {
            gram: sup
            for gram, sup in _level_supports(sentence_tags, length, level).items()
            if sup >= min_support
        }
        if not level:
            break
        frequent.update(level)

    mined = [
        MinedPattern(tags=gram, support=sup, support_ratio=sup / total)
        for gram, sup in frequent.items()
    ]
    mined.sort(key=lambda m: (-m.support, -len(m.tags), m.tags))
    return mined

"""Tag patterns: matching, pair extraction, and frequent tag-set mining.

A pattern is a short sequence of part-of-speech tags with two marked
roles: one position holding the opinion word and (usually) one holding
the aspect noun.  Patterns without an aspect position rely on the
nearest-aspect search to locate the nearest noun or dictionary term.

Pattern file syntax, one pattern per line (line and comment rules are
README "File formats")::

    NN:A VBZ JJ:O      # name=noun-is-adj

``:A`` marks the aspect position, ``:O`` the opinion position.  Order of
lines is precedence order.  ``extract_sentences`` is the one extraction
core: it runs a whole corpus in one loop and states the full rule;
``extract_with_options`` is its one-sentence call.  It reads each
sentence's tags once, one move per token of the tag automaton that a
:class:`PatternSet` builds when it is made, however many patterns there
are.  The nearest-aspect search probes the dictionary's windows only at
words that start an entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping

from ._records import record
from .errors import ParseError, _parse_files, text_lines
from .lexicons import AspectDictionary
from .tagger import _PENN_TAG, NOUN_TAGS, PENN_TAGS, TaggedSentence

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


# One pattern as a scan hit records it: (rank, length, opinion offset,
# aspect offset, name).
_Row = tuple[int, int, int, int | None, str]
# One transition of the automaton: (next state, rows of the patterns that
# end at the token, in line order, whether the token's tag may hold an
# opinion).
_Entry = tuple[int, tuple[_Row, ...], bool]

# The transition on a tag that no pattern holds and no opinion may: back to
# the root, ending no pattern.
_MISS: _Entry = (0, (), False)


def _written(p: TagPattern) -> str:
    """The pattern's tags with their role markers, as a pattern line has them."""
    roles = {p.aspect_offset: ":A", p.opinion_offset: ":O"}
    return " ".join(tag + roles.get(i, "") for i, tag in enumerate(p.tags))


@dataclass(frozen=True)
class PatternSet:
    """Ordered collection of patterns; earlier patterns take precedence.

    ``automaton``, the scan table, is built once, here.  Its states are
    the prefixes of the patterns' tag sequences: the root, 0, is the
    empty one, and the rest are numbered by length, then by tags.  On a
    tag, a state moves to the longest suffix of its tags and that tag
    that is a prefix, so the state after a token is the longest suffix
    of the tags read so far that is one; and the move ends the patterns
    whose tags are a suffix of the state it reaches, in line order.  The
    table is a tuple of per-state dicts, each mapping every tag a
    pattern holds and every :data:`OPINION_ROLE_TAGS` tag to ``(next
    state, rows, opinion role)``: those patterns' rows and whether the
    tag may hold an opinion.  Any other tag takes ``_MISS``, back to the
    root.  One entry tuple serves each (next state, opinion role).
    """

    patterns: tuple[TagPattern, ...]
    automaton: tuple[dict[str, _Entry], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        ends: dict[tuple[str, ...], list[_Row]] = {}  # tags -> their rows, in line order
        seen: set[tuple] = set()
        for rank, p in enumerate(self.patterns):
            key = (p.tags, p.aspect_offset, p.opinion_offset)
            if key in seen:
                raise ValueError(f"duplicate pattern {_written(p)}")
            seen.add(key)
            row = (rank, len(p.tags), p.opinion_offset, p.aspect_offset, p.name)
            ends.setdefault(p.tags, []).append(row)
        prefixes = {(), *(tags[:n] for tags in ends for n in range(1, len(tags) + 1))}
        prefixes = sorted(prefixes, key=lambda s: (len(s), s))
        # the rows of the patterns each state ends: one lookup per suffix
        rows = [tuple(sorted(r for n in range(len(s)) for r in ends.get(s[n:], ())))
                for s in prefixes]
        # entry[tag][target]: the one entry of each (next state, opinion role)
        shared = tuple([(s, r, flag) for s, r in enumerate(rows)] for flag in (False, True))
        shared[False][0] = _MISS
        alphabet = OPINION_ROLE_TAGS.union(*ends)
        entry = {tag: shared[tag in OPINION_ROLE_TAGS] for tag in alphabet}
        # prefix -> {tag: the entry into prefix + (tag,)}, where that is a prefix
        grown: dict[tuple[str, ...], dict[str, _Entry]] = {}
        for state, prefix in enumerate(prefixes[1:], 1):
            grown.setdefault(prefix[:-1], {})[prefix[-1]] = entry[prefix[-1]][state]
        # The longest suffix of s + (tag,) that is a prefix is, less its tag, a
        # suffix of s: so each state takes the moves of its suffixes, shortest
        # first, a longer one's overriding; any other tag goes back to the root.
        to_root = {tag: entry[tag][0] for tag in alphabet}
        automaton = []
        for s in prefixes:
            moves = dict(to_root)
            for n in range(len(s), -1, -1):
                moves.update(grown.get(s[n:], {}))
            automaton.append(moves)
        object.__setattr__(self, "automaton", tuple(automaton))


def parse_pattern_line(line: str) -> TagPattern:
    """Parse one pattern line, its ``# name=...`` comment included."""
    code, _, meta = line.partition("#")
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
            if not tok:
                raise ValueError(f"item {i + 1}: role marker :{role} has no tag")
        tags.append(_PENN_TAG.get(tok, tok))  # TagPattern rejects an unknown one
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
    return _parse_files(_parse_pattern_set, path)


def _parse_pattern_set(texts, paths) -> PatternSet:
    (path,) = paths
    patterns = []
    first_line: dict[tuple, int] = {}  # (tags, aspect, opinion) -> line
    for lineno, line in text_lines(texts[0], comments=True):
        try:
            p = parse_pattern_line(line)
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=lineno) from exc
        first = first_line.setdefault((p.tags, p.aspect_offset, p.opinion_offset), lineno)
        if first != lineno:
            raise ParseError(
                f"duplicate pattern {_written(p)} (first on line {first})",
                path=path, line=lineno,
            )
        patterns.append(p)
    return PatternSet(patterns=tuple(patterns))


@record
class AspectOpinionPair:
    """One extracted (aspect, opinion) pair anchored in its sentence.

    ``aspect_surface`` is the canonical dictionary form when the matched
    noun span is a known term, otherwise the raw lowercase span text;
    either way lowercase words joined by single spaces.  Under a
    dictionary whose canonicals map to themselves, it is no entry or an
    entry mapping to itself, which grouping takes as given.
    """

    aspect_surface: str
    opinion_surface: str
    orientation: str  # positive | negative
    sentence: TaggedSentence
    aspect_index: int
    opinion_index: int
    pattern_name: str
    aspect_end: int  # one past the last aspect token


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
    limit: int,
    entry: Callable[[str], str | None],
) -> tuple[int, str] | None:
    """``(n, canonical)`` of the longest dictionary entry equal to
    ``words_lower[start:start+n]``, given the bound ``get`` of the
    dictionary's ``entries``; only windows up to ``limit`` words, the
    first word's ``widest`` width, are tried.

    The words hold no whitespace (see :class:`~aspectminer.tagger.TaggedSentence`),
    so a window joined by single spaces is already a normalized key.
    """
    for n in range(min(limit, len(words_lower) - start), 0, -1):
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
    dictionary term (:func:`_longest_entry_at`) gives the term.  Only a
    word that ``widest`` (the bound ``get`` of the dictionary's
    ``widest``) knows can start one, so the windows are tried at those
    words alone, up to the width it gives.
    """
    for steps in (range(opinion_index - 1, -1, -1), range(opinion_index + 1, len(tags))):
        for j in steps:
            if tags[j] in NOUN_TAGS:
                return _aspect_at(tags, words_lower, j, entry)
            limit = widest(words_lower[j])
            if limit:
                hit = _longest_entry_at(words_lower, j, limit, entry)
                if hit is not None:
                    return j, j + hit[0], hit[1]
    return None


def extract_with_options(
    sentence: TaggedSentence,
    dictionary: AspectDictionary,
    lexicon: Mapping[str, str],
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
    lexicon: Mapping[str, str],
    pattern_set: PatternSet,
    *,
    fallback: bool = True,
    conjunction: bool = True,
) -> list[AspectOpinionPair]:
    """Extract the (aspect, opinion) pairs of each sentence, in sentence order.

    A candidate survives only if ``lexicon`` (the opinion lexicon, seed
    word -> orientation) gives its opinion word an orientation.
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

    The tags are scanned once, one move per token of
    ``pattern_set.automaton`` (:class:`PatternSet`), which gives the
    patterns that end at the token and whether its tag may hold an
    opinion.  Each hit is recorded as
    ``(rank, start, pattern)``, so sorting the hits gives the order of
    pass 1; the same scan records the opinion-role positions pass 2
    visits.  A sentence with neither hits nor (with ``fallback``) such
    positions yields no pairs; any other is lowercased once, for the
    polarity gate, the opinion surfaces and the aspect search.  Pass 1
    records the opinion indices it claims, for pass 2 to skip, and a
    sentence where no pass claims anything ends there.  Each sentence's
    pairs are ordered by token position.

    The automaton and the lookups of the lexicon and the dictionary are
    bound once per call, not once per sentence.
    """
    automaton = pattern_set.automaton
    polarity = lexicon.get
    entry = dictionary.entries.get
    widest = dictionary.widest.get
    pairs: list[AspectOpinionPair] = []
    for sentence in sentences:
        tags = sentence.tags
        hits: list[tuple[int, int, _Row]] = []
        opinion_positions: list[int] = []
        state = 0
        for i, tag in enumerate(tags):
            state, rows, opinion_role = automaton[state].get(tag, _MISS)
            if rows:
                for row in rows:
                    hits.append((row[0], i - row[1] + 1, row))
            if opinion_role:
                opinion_positions.append(i)
        if not hits and not (fallback and opinion_positions):
            continue
        if len(hits) > 1:
            hits.sort()
        words_lower = list(map(str.lower, sentence.surfaces))
        # (aspect start, opinion index) -> (surface, orientation, aspect end, pattern name)
        found: dict[tuple[int, int], tuple[str, str, int, str]] = {}
        claimed: set[int] = set()  # the opinion indices of found

        for _, start, (_, _, opinion_offset, aspect_offset, name) in hits:
            oi = start + opinion_offset
            orientation = polarity(words_lower[oi])
            if orientation is None:
                continue
            if aspect_offset is not None:
                span = _aspect_at(tags, words_lower, start + aspect_offset, entry)
            else:
                span = _nearest_aspect(tags, words_lower, oi, entry, widest)
                if span is None:
                    continue
            found.setdefault((span[0], oi), (span[2], orientation, span[1], name))
            claimed.add(oi)

        if fallback:
            for oi in opinion_positions:
                if oi in claimed:
                    continue
                orientation = polarity(words_lower[oi])
                if orientation is None:
                    continue
                span = _nearest_aspect(tags, words_lower, oi, entry, widest)
                if span is not None:
                    found.setdefault(
                        (span[0], oi), (span[2], orientation, span[1], FALLBACK_PATTERN_NAME)
                    )

        if not found:
            continue
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

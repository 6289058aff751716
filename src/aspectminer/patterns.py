"""Tag patterns: matching, pair extraction, and frequent tag-set mining.

A pattern is a short sequence of part-of-speech tags with two marked
roles: one position holding the opinion word and (usually) one holding
the aspect noun.  Patterns without an aspect position rely on
``nearest_aspect_search`` to locate the nearest noun or dictionary term.

Pattern file syntax, one pattern per line::

    NN:A VBZ JJ        # name=noun-is-adj

``:A`` marks the aspect position, ``:O`` the opinion position.  Order of
lines is precedence order: when two patterns produce a pair for the same
(aspect, opinion) token positions, the earlier pattern wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

from .errors import ParseError
from .lexicons import NONE, AspectDictionary, OpinionLexicon
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

    def __len__(self) -> int:
        return len(self.tags)


@dataclass(frozen=True)
class PatternSet:
    """Ordered collection of patterns; earlier patterns take precedence."""

    patterns: tuple[TagPattern, ...]

    def __post_init__(self):
        seen: set[tuple] = set()
        for p in self.patterns:
            key = (p.tags, p.aspect_offset, p.opinion_offset)
            if key in seen:
                raise ValueError(f"duplicate pattern {' '.join(p.tags)}")
            seen.add(key)

    def __iter__(self) -> Iterator[TagPattern]:
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)


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
    if not path.is_file():
        raise FileNotFoundError(str(path))
    patterns = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
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


@dataclass(frozen=True)
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
    aspect_end: int = -1  # one past the last aspect token

    def __post_init__(self):
        if self.aspect_end < 0:
            object.__setattr__(self, "aspect_end", self.aspect_index + 1)


class AspectSpan(NamedTuple):
    start: int
    end: int
    surface: str


def match_pattern(sentence: TaggedSentence, pattern: TagPattern) -> list[int]:
    """Start indices of every window whose tags equal the pattern's tags."""
    tags = sentence.tags()
    width = len(pattern.tags)
    want = pattern.tags
    return [
        start
        for start in range(len(tags) - width + 1)
        if tuple(tags[start : start + width]) == want
    ]


def _noun_run(sentence: TaggedSentence, index: int) -> tuple[int, int]:
    """Maximal run of noun-tagged tokens containing ``index``."""
    tokens = sentence.tokens
    if tokens[index].tag not in NOUN_TAGS:
        return index, index + 1
    start = index
    while start > 0 and tokens[start - 1].tag in NOUN_TAGS:
        start -= 1
    end = index + 1
    while end < len(tokens) and tokens[end].tag in NOUN_TAGS:
        end += 1
    return start, end


def resolve_aspect(
    sentence: TaggedSentence, index: int, dictionary: AspectDictionary
) -> AspectSpan:
    """Aspect span for the noun at ``index``: maximal noun run, canonicalized.

    The full span is looked up first; failing that, the anchor token
    alone.  Unknown spans keep their raw lowercase text.
    """
    start, end = _noun_run(sentence, index)
    words = [t.surface.lower() for t in sentence.tokens[start:end]]
    surface = " ".join(words)
    canonical = dictionary.lookup(surface)
    if canonical is None:
        canonical = dictionary.lookup(words[index - start])
    return AspectSpan(start=start, end=end, surface=canonical or surface)


def nearest_aspect_search(
    sentence: TaggedSentence, opinion_index: int, dictionary: AspectDictionary
) -> AspectSpan | None:
    """Nearest noun or dictionary term: backward first, then forward."""
    words_lower = [t.surface.lower() for t in sentence.tokens]

    def candidate(j: int) -> AspectSpan | None:
        if sentence.tokens[j].tag in NOUN_TAGS:
            return resolve_aspect(sentence, j, dictionary)
        hit = dictionary.match_at(words_lower, j)
        if hit is not None:
            n, canonical = hit
            return AspectSpan(start=j, end=j + n, surface=canonical)
        return None

    for j in range(opinion_index - 1, -1, -1):
        span = candidate(j)
        if span is not None:
            return span
    for j in range(opinion_index + 1, len(sentence.tokens)):
        span = candidate(j)
        if span is not None:
            return span
    return None


def extract_pairs(
    sentence: TaggedSentence,
    dictionary: AspectDictionary,
    lexicon: OpinionLexicon,
    pattern_set: PatternSet,
) -> list[AspectOpinionPair]:
    """Extract pairs by pattern matching.

    A candidate survives only if its opinion word has a known polarity.
    Duplicate (aspect position, opinion position) pairs keep the first
    pattern's result; output is ordered by token position.
    """
    tokens = sentence.tokens
    found: dict[tuple[int, int], AspectOpinionPair] = {}
    for pattern in pattern_set:
        for start in match_pattern(sentence, pattern):
            oi = start + pattern.opinion_offset
            orientation = lexicon.polarity(tokens[oi].surface)
            if orientation == NONE:
                continue
            if pattern.aspect_offset is not None:
                span = resolve_aspect(sentence, start + pattern.aspect_offset, dictionary)
            else:
                span = nearest_aspect_search(sentence, oi, dictionary)
                if span is None:
                    continue
            key = (span.start, oi)
            if key not in found:
                found[key] = AspectOpinionPair(
                    aspect_surface=span.surface,
                    opinion_surface=tokens[oi].surface.lower(),
                    orientation=orientation,
                    sentence=sentence,
                    aspect_index=span.start,
                    opinion_index=oi,
                    pattern_name=pattern.name,
                    aspect_end=span.end,
                )
    return sorted(found.values(), key=lambda p: (p.aspect_index, p.opinion_index))


def conjunction_expand(
    pair: AspectOpinionPair,
    sentence: TaggedSentence,
    dictionary: AspectDictionary,
) -> list[AspectOpinionPair]:
    """Copy the pair onto a second noun coordinated with the aspect.

    Fires when the token right after the aspect span is a coordinating
    conjunction followed by a noun; applied once, no chaining.
    """
    tokens = sentence.tokens
    after = pair.aspect_end
    if after + 1 >= len(tokens):
        return [pair]
    if tokens[after].tag != "CC" or tokens[after + 1].tag not in NOUN_TAGS:
        return [pair]
    span = resolve_aspect(sentence, after + 1, dictionary)
    extra = AspectOpinionPair(
        aspect_surface=span.surface,
        opinion_surface=pair.opinion_surface,
        orientation=pair.orientation,
        sentence=sentence,
        aspect_index=span.start,
        opinion_index=pair.opinion_index,
        pattern_name=pair.pattern_name,
        aspect_end=span.end,
    )
    return [pair, extra]


def extract_with_options(
    sentence: TaggedSentence,
    dictionary: AspectDictionary,
    lexicon: OpinionLexicon,
    pattern_set: PatternSet,
    *,
    fallback: bool = True,
    conjunction: bool = True,
) -> list[AspectOpinionPair]:
    """Full per-sentence extraction: patterns, optional nearest-aspect
    fallback for unclaimed opinion words, optional conjunction expansion.

    The fallback considers only tokens in adjective/adverb/participle
    positions so that common verbs in the seed lists do not spawn pairs.
    """
    pairs = extract_pairs(sentence, dictionary, lexicon, pattern_set)
    keys = {(p.aspect_index, p.opinion_index) for p in pairs}
    if fallback:
        claimed = {p.opinion_index for p in pairs}
        for i, token in enumerate(sentence.tokens):
            if i in claimed or token.tag not in OPINION_ROLE_TAGS:
                continue
            orientation = lexicon.polarity(token.surface)
            if orientation == NONE:
                continue
            span = nearest_aspect_search(sentence, i, dictionary)
            if span is None or (span.start, i) in keys:
                continue
            keys.add((span.start, i))
            pairs.append(
                AspectOpinionPair(
                    aspect_surface=span.surface,
                    opinion_surface=token.surface.lower(),
                    orientation=orientation,
                    sentence=sentence,
                    aspect_index=span.start,
                    opinion_index=i,
                    pattern_name=FALLBACK_PATTERN_NAME,
                    aspect_end=span.end,
                )
            )
    if conjunction:
        expanded: list[AspectOpinionPair] = []
        for pair in pairs:
            for out in conjunction_expand(pair, sentence, dictionary):
                key = (out.aspect_index, out.opinion_index)
                if out is pair or key not in keys:
                    keys.add(key)
                    expanded.append(out)
        pairs = expanded
    return sorted(pairs, key=lambda p: (p.aspect_index, p.opinion_index))


@dataclass(frozen=True)
class MinedPattern:
    """A frequent contiguous tag sequence with its sentence-level support."""

    tags: tuple[str, ...]
    support: int
    support_ratio: float


def _level_supports(
    sentence_tags: list[tuple[str, ...]],
    length: int,
    candidates: set[tuple[str, ...]] | None,
) -> dict[tuple[str, ...], int]:
    """Sentence-level support counts for tag n-grams of one length.

    ``candidates`` of None means count every n-gram present.
    """
    supports: dict[tuple[str, ...], int] = {}
    for tags in sentence_tags:
        seen: set[tuple[str, ...]] = set()
        for start in range(len(tags) - length + 1):
            gram = tags[start : start + length]
            if candidates is not None and gram not in candidates:
                continue
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
    no matter how often the n-gram repeats inside it.  Candidates of
    length L+1 are joined from frequent length-L grams sharing an
    (L-1)-overlap, which for contiguous sequences is exactly the
    anti-monotonicity prune.
    """
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    if not MIN_PATTERN_LEN <= max_len <= MAX_PATTERN_LEN:
        raise ValueError(
            f"max_len must be {MIN_PATTERN_LEN}..{MAX_PATTERN_LEN}, got {max_len}"
        )
    sentence_tags = [tuple(s.tags()) for s in corpus_tagged]
    total = len(sentence_tags)
    if total == 0:
        return []

    frequent: dict[tuple[str, ...], int] = {}
    level = {
        gram: sup
        for gram, sup in _level_supports(sentence_tags, MIN_PATTERN_LEN, None).items()
        if sup >= min_support
    }
    length = MIN_PATTERN_LEN
    while level:
        frequent.update(level)
        if length == max_len:
            break
        candidates = {
            left + (right[-1],)
            for left in level
            for right in level
            if left[1:] == right[:-1]
        }
        length += 1
        level = {
            gram: sup
            for gram, sup in _level_supports(sentence_tags, length, candidates).items()
            if sup >= min_support
        }

    mined = [
        MinedPattern(tags=gram, support=sup, support_ratio=sup / total)
        for gram, sup in frequent.items()
    ]
    mined.sort(key=lambda m: (-m.support, -len(m.tags), m.tags))
    return mined

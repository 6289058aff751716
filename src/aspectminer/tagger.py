"""Penn Treebank POS tagging: pretagged ingestion plus a rule/lexicon baseline.

The wire format for pretagged text is one sentence per line, tokens as
``word/TAG`` separated by single spaces; the last slash of each item is
the delimiter so surfaces containing slashes survive.  The baseline
tagger is deterministic and lexicon-driven; it makes no claim to match
a statistical tagger, and any component producing the same
:class:`TaggedSentence` shape can replace it: two parallel tuples,
``surfaces`` and ``tags``, one entry per token.  ``tokens`` is a
read-only view of them as ``(surface, tag)`` rows.

No surface contains a character for which ``str.isspace()`` is true:
the pretagged parser splits items on whitespace and ``corpus.tokenize``
splits words on it.  Extraction relies on this when it joins lowercased
surfaces by single spaces to probe the aspect dictionary.

Every tag this module hands out, from the pretagged parser, the tag
lexicon or the baseline tagger, is the one ``PENN_TAGS`` object for
that tag (``_PENN_TAG`` maps each tag to it), so a loaded corpus holds
one string per distinct tag however many tokens carry it.  A caller of
:func:`parse_pretagged` can pass one ``words`` table to all the lines of
a file so that equal surfaces are one string too.
"""

from __future__ import annotations

from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

from ._records import record
from .corpus import ReviewSentence
from .errors import ParseError, _parse_files, text_lines

# Penn Treebank word-level tags plus the punctuation tags.
PENN_TAGS = frozenset(
    {
        "CC", "CD", "DT", "EX", "FW", "IN", "JJ", "JJR", "JJS", "LS", "MD",
        "NN", "NNS", "NNP", "NNPS", "PDT", "POS", "PRP", "PRP$",
        "RB", "RBR", "RBS", "RP", "SYM", "TO", "UH",
        "VB", "VBD", "VBG", "VBN", "VBP", "VBZ",
        "WDT", "WP", "WP$", "WRB",
        "#", "$", "''", "(", ")", ",", ".", ":", "``", "-LRB-", "-RRB-",
    }
)

# tag -> its PENN_TAGS object; loaders store the value, so a tag is one string
_PENN_TAG = {tag: tag for tag in PENN_TAGS}

NOUN_TAGS = frozenset({"NN", "NNS", "NNP", "NNPS"})
VERB_TAGS = frozenset({"VB", "VBD", "VBG", "VBN", "VBP", "VBZ"})

_PUNCT_TAG = {
    ".": ".", "!": ".", "?": ".",
    ",": ",",
    ";": ":", ":": ":", "-": ":", "--": ":",
    "(": "(", "[": "(", "{": "(",
    ")": ")", "]": ")", "}": ")",
    '"': "''", "'": "''", "`": "``",
    "$": "$", "#": "#",
}


class Token(NamedTuple):
    """One row of :attr:`TaggedSentence.tokens`."""

    surface: str
    tag: str


@record
class TaggedSentence:
    """A sentence as two parallel columns: ``surfaces[i]`` carries ``tags[i]``.

    No surface contains a whitespace character (``str.isspace()``).
    """

    surfaces: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()
    source: ReviewSentence | None = None
    position: int = 0  # ordinal within the corpus, used for tie-breaking

    def __hash__(self) -> int:
        # Equal sentences have equal positions and surfaces, so this agrees
        # with the generated __eq__ without hashing the source ReviewSentence
        # and its gold.
        return hash((self.position, self.surfaces))

    @property
    def tokens(self) -> tuple[Token, ...]:
        """The columns as ``(surface, tag)`` rows, built on each access."""
        return tuple(map(Token, self.surfaces, self.tags))

    def text(self) -> str:
        if self.source is not None:
            return self.source.raw_text
        return " ".join(self.surfaces)


def parse_pretagged(
    line: str,
    source: ReviewSentence | None = None,
    position: int = 0,
    *,
    words: dict[str, str] | None = None,
) -> TaggedSentence:
    """Parse one ``word/TAG`` line; unknown tags are hard errors.

    Each surface is stored as ``words``' object for it, added when new,
    so lines parsed with one table share their repeated words.
    """
    share = ({} if words is None else words).setdefault
    # Both columns are built as lists: a tuple grown from a generator is
    # resized, and CPython's tuple free lists then keep up to 2,000 of
    # each length alive.
    surfaces = []
    tags = []
    for i, item in enumerate(line.split()):
        surface, sep, name = item.rpartition("/")
        if not sep:
            raise ParseError(f"item {i + 1} {item!r} has no '/' delimiter")
        if not surface:
            raise ParseError(f"item {i + 1} {item!r} has an empty word")
        tag = _PENN_TAG.get(name)
        if tag is None:
            raise ParseError(f"item {i + 1} {item!r}: unknown tag {name!r}")
        surfaces.append(share(surface, surface))
        tags.append(tag)
    if not surfaces:
        raise ParseError("empty pretagged line")
    return TaggedSentence(tuple(surfaces), tuple(tags), source, position)


def render_pretagged(sentence: TaggedSentence) -> str:
    """Inverse of :func:`parse_pretagged` (``source`` and ``position`` excepted)."""
    return " ".join(map("{}/{}".format, sentence.surfaces, sentence.tags))


def load_tag_lexicon(path: str | Path) -> Mapping[str, str]:
    """Load a ``word<TAB>TAG`` lexicon, read-only; first entry wins for
    duplicates.  Line and comment rules are README "File formats"."""
    return _parse_files(_parse_tag_lexicon, path)


def _parse_tag_lexicon(texts, paths) -> Mapping[str, str]:
    (path,) = paths
    lexicon: dict[str, str] = {}
    for lineno, line in text_lines(texts[0], comments=True):
        word, sep, name = line.partition("\t")
        if not sep or not word:
            raise ParseError("expected word<TAB>TAG", path=path, line=lineno)
        tag = _PENN_TAG.get(name)
        if tag is None:
            raise ParseError(f"unknown tag {name!r} for {word!r}", path=path, line=lineno)
        lexicon.setdefault(word, tag)
    return MappingProxyType(lexicon)


def base_form_candidates(word: str) -> list[str]:
    """Plausible base forms of an inflected verb, most specific first.

    Handles -s/-es/-ies, -ed/-ied, -ing, undoing consonant doubling
    (stopped -> stop) and restoring a dropped final e (advising -> advise).
    Shared by the tagger's -s rule and the sentence scorer's verb lookup.
    """
    w = word.lower()
    candidates = [w]

    def add(c: str) -> None:
        if len(c) >= 2 and c not in candidates:
            candidates.append(c)

    if w.endswith("ies") and len(w) > 4:
        add(w[:-3] + "y")
    if w.endswith("es") and len(w) > 3:
        add(w[:-2])
    if w.endswith("s") and not w.endswith("ss"):
        add(w[:-1])
    for suffix in ("ed", "ing"):
        if w.endswith(suffix) and len(w) > len(suffix) + 1:
            stem = w[: -len(suffix)]
            add(stem)
            add(stem + "e")
            if suffix == "ed" and stem.endswith("i"):
                add(stem[:-1] + "y")
            if len(stem) >= 3 and _doubled(stem) and stem[-1] != "s":
                add(stem[:-1])
    return candidates


class BaselineTagger:
    """Deterministic rule/lexicon tagger.

    Decision order per token: lexicon lookup (exact, then lowercased);
    punctuation-symbol mapping; suffix rules (-ly, -est, -er on a known
    adjectival stem, -ing, -ed, -s); hyphen compounds with an adjectival
    last part; capitalized non-initial words; default NN.  Digit tokens
    carry no rule of their own and fall through to the default.

    :meth:`tag_word` reads its index only as ``index > 0``, so
    :meth:`tag` remembers each word's tag in two memos, one for
    sentence-initial words and one for the rest, and applies the rules
    once per distinct (word, initial) pair over the tagger's life.  The
    tagger copies the lexicon it is given, unless it is a read-only
    ``MappingProxyType`` such as :func:`load_tag_lexicon` returns; the
    mapping behind such a view must not change.
    """

    def __init__(self, lexicon: Mapping[str, str] | None = None):
        if not isinstance(lexicon, MappingProxyType):
            lexicon = dict(lexicon) if lexicon else {}
        self.lexicon = lexicon
        self._initial_tags: dict[str, str] = {}
        self._later_tags: dict[str, str] = {}

    def tag_word(self, word: str, index: int) -> str:
        tag = self.lexicon.get(word)
        if tag is None:
            tag = self.lexicon.get(word.lower())
        if tag is not None:
            return tag
        if not any(ch.isalnum() for ch in word):
            return _PUNCT_TAG.get(word, "SYM")
        low = word.lower()
        if low.endswith("ly") and len(low) >= 5:
            return "RB"
        if low.endswith("est") and len(low) >= 5:
            return "JJS"
        if low.endswith("er") and len(low) >= 4:
            stem = low[:-2]
            for cand in (stem, stem + "e", stem[:-1] if _doubled(stem) else stem):
                if self.lexicon.get(cand) == "JJ":
                    return "JJR"
        if low.endswith("ing") and len(low) >= 5:
            return "VBG"
        if low.endswith("ed") and len(low) >= 4:
            return "VBD"
        if low.endswith("s") and len(low) >= 3 and not low.endswith("ss"):
            if any(self.lexicon.get(b) in ("VB", "VBP") for b in base_form_candidates(low)):
                return "VBZ"
            return "NNS"
        if "-" in word[1:-1]:
            last = word.rsplit("-", 1)[1].lower()
            if self.lexicon.get(last) == "JJ":
                return "JJ"
        if index > 0 and word[:1].isupper():
            return "NNP"
        return "NN"

    def tag(
        self,
        words: list[str],
        source: ReviewSentence | None = None,
        position: int = 0,
    ) -> TaggedSentence:
        if not words:
            raise ValueError("empty sentence")
        tags = []
        memo = self._initial_tags
        for i, word in enumerate(words):
            tag = memo.get(word)
            if tag is None:
                tag = memo[word] = self.tag_word(word, i)
            tags.append(tag)
            memo = self._later_tags
        return TaggedSentence(tuple(words), tuple(tags), source, position)


def _doubled(stem: str) -> bool:
    return len(stem) >= 2 and stem[-1] == stem[-2] and stem[-1] not in "aeiou"

"""Penn Treebank POS tagging: pretagged ingestion plus a rule/lexicon baseline.

The wire format for pretagged text is one sentence per line, tokens as
``word/TAG`` separated by single spaces; the last slash of each item is
the delimiter so surfaces containing slashes survive.  The baseline
tagger is deterministic and lexicon-driven; it makes no claim to match
a statistical tagger, and any component producing the same
:class:`TaggedSentence` shape can replace it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .corpus import ReviewSentence
from .errors import ParseError, read_text

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
    surface: str
    tag: str


@dataclass(frozen=True)
class TaggedSentence:
    tokens: tuple[Token, ...] = ()
    source: ReviewSentence | None = None
    position: int = 0  # ordinal within the corpus, used for tie-breaking

    def __hash__(self) -> int:
        # Equal sentences have equal positions and surfaces, so this agrees
        # with the generated __eq__ at a fifth of the cost of hashing every
        # Token and the source ReviewSentence with its gold.
        return hash((self.position, *[t.surface for t in self.tokens]))

    def tags(self) -> list[str]:
        return [t.tag for t in self.tokens]

    def text(self) -> str:
        if self.source is not None:
            return self.source.raw_text
        return " ".join(t.surface for t in self.tokens)


def parse_pretagged(
    line: str,
    source: ReviewSentence | None = None,
    position: int = 0,
) -> TaggedSentence:
    """Parse one ``word/TAG`` line; unknown tags are hard errors."""
    tokens = []
    for i, item in enumerate(line.split()):
        surface, sep, tag = item.rpartition("/")
        if not sep:
            raise ParseError(f"item {i + 1} {item!r} has no '/' delimiter")
        if not surface:
            raise ParseError(f"item {i + 1} {item!r} has an empty word")
        if tag not in PENN_TAGS:
            raise ParseError(f"item {i + 1} {item!r}: unknown tag {tag!r}")
        tokens.append(Token(surface, tag))
    if not tokens:
        raise ParseError("empty pretagged line")
    return TaggedSentence(tokens=tuple(tokens), source=source, position=position)


def render_pretagged(sentence: TaggedSentence) -> str:
    """Inverse of :func:`parse_pretagged` (``source`` and ``position`` excepted)."""
    return " ".join(f"{t.surface}/{t.tag}" for t in sentence.tokens)


def load_tag_lexicon(path: str | Path) -> dict[str, str]:
    """Load a ``word<TAB>TAG`` lexicon; first entry wins for duplicates."""
    path = Path(path)
    lexicon: dict[str, str] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.rstrip()
        if not line or line.startswith("#"):
            continue
        word, sep, tag = line.partition("\t")
        if not sep or not word or not tag:
            raise ParseError("expected word<TAB>TAG", path=path, line=lineno)
        if tag not in PENN_TAGS:
            raise ParseError(f"unknown tag {tag!r} for {word!r}", path=path, line=lineno)
        lexicon.setdefault(word, tag)
    return lexicon


def _strip_candidates(word: str) -> list[str]:
    """Stems to probe when deciding whether an -s form is a known verb."""
    stems = [word[:-1]]
    if word.endswith("es"):
        stems.append(word[:-2])
    if word.endswith("ies"):
        stems.append(word[:-3] + "y")
    return stems


class BaselineTagger:
    """Deterministic rule/lexicon tagger.

    Decision order per token: lexicon lookup (exact, then lowercased);
    punctuation-symbol mapping; suffix rules (-ly, -est, -er on a known
    adjectival stem, -ing, -ed, -s); hyphen compounds with an adjectival
    last part; capitalized non-initial words; default NN.  Digit tokens
    carry no rule of their own and fall through to the default.
    """

    def __init__(self, lexicon: dict[str, str] | None = None):
        self.lexicon = dict(lexicon) if lexicon else {}

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
            for stem in _strip_candidates(low):
                if self.lexicon.get(stem) in ("VB", "VBP"):
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
        tokens = tuple(Token(w, self.tag_word(w, i)) for i, w in enumerate(words))
        return TaggedSentence(tokens=tokens, source=source, position=position)


def _doubled(stem: str) -> bool:
    return len(stem) >= 2 and stem[-1] == stem[-2] and stem[-1] not in "aeiou"

"""Seeded review catalogs with the output each one should produce.

Every sentence is built from a template, and the template records the
(aspect, opinion, orientation, pattern) pairs the extractor yields for
it, plus the gold annotations a reviewer would write.  All templates but
one reproduce a line of the shipped sample (``src/aspectminer/data/
sample``) when filled with that line's words; ``GROUNDING`` lists them.  A
product is a run of reviews (a title line and nine body sentences, as in
the sample); its expectation holds the pairs, the summary totals and the
evaluation item counts.  The template mix and the rates below are counts
taken in the sample (see "Counted in the shipped sample");
bench/tests/test_bench_generator.py recounts them.

The generator reads the bundled resource files directly and never
imports the package, so expectations do not come from the code under
test.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "aspectminer" / "data"
SAMPLE = DATA / "sample"

POSITIVE = "positive"
NEGATIVE = "negative"

# A mention is a noun phrase written as a tuple of lowercase words.
Mention = tuple[str, ...]
# (sentence position, aspect surface, opinion word, orientation, pattern name)
Pair = tuple[int, str, str, str, str]

# Counted in the shipped sample: reviews.txt and minieval.txt, 3 titles,
# 52 body lines and 41 gold annotations.
BODY_LINES = 9  # body lines after each title: 9 in each of the 3 reviews
LITTLE_RATE = 1 / 3  # titles with "little": 1 of 3
POSITIVE_SHARE = 23 / 41  # gold annotations with a + sign
STRENGTHS = {1: 23, 2: 16, 3: 2}  # gold annotations per strength
# Flags on the 38 annotations whose flag no template fixes ([cc] x2 and
# [p] x1 come with two_clauses and implicit).
FLAGS = {"": 34, "[u]": 2, "[s]": 1, "[cs]": 1}
# Gold mentions of a term that has synonyms: 10, one written as the
# synonym ("the audio sounds great ..." annotated sound[+1]).
SYNONYM_RATE = 1 / 10
# Extracted pairs whose aspect no dictionary entry (or its plural) covers:
# 4 of 41 (purchase, choice, vacation, grip).  Used by the open vocabulary.
UNKNOWN_RATE = 4 / 41
# Adverbs before an opinion adjective: very x2, too x2, absolutely x1.
ADVERBS = ("very", "very", "too", "too", "absolutely")
# noun-is-adj lines: 15 of 17 start with "the"; their verbs.
NOUN_IS_ADJ_DET_RATE = 15 / 17
NOUN_IS_ADJ_VERBS = {"is": 14, "looks": 1, "dies": 1, "feels": 1}
# Products per block of sizes (see product_sizes).  0.5 * BLOCK and
# 0.9 * BLOCK fall mid-level, so p50 and p90 land inside one size level
# rather than on the boundary between two, whatever the block count.
BLOCK = 55
GOLDEN = 0.6180339887498949


def read_words(path: Path) -> list[str]:
    """One entry per line; ``;`` and ``#`` start comments (resource file rules)."""
    words = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith((";", "#")):
            words.append(" ".join(line.lower().split()))
    return words


def read_synonyms(path: Path) -> dict[str, list[str]]:
    synonyms: dict[str, list[str]] = {}
    for line in read_words(path):
        canonical, _, rest = line.partition(":")
        synonyms[canonical.strip()] = [s.strip() for s in rest.split(",") if s.strip()]
    return synonyms


def read_tag_lexicon(path: Path) -> dict[str, str]:
    lexicon: dict[str, str] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            word, _, tag = line.partition("\t")
            lexicon.setdefault(word, tag)
    return lexicon


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[tuple[str, str], ...]  # (word, Penn tag)
    pairs: tuple[tuple[str, str, str, str], ...]  # (aspect, opinion, orientation, pattern)
    gold: tuple[tuple[str, str], ...] = ()  # (term, annotation text)
    title: bool = False

    def raw(self) -> str:
        return " ".join(word for word, _ in self.tokens)

    def pretagged(self) -> str:
        return " ".join(f"{word}/{tag}" for word, tag in self.tokens)

    def corpus_line(self) -> str:
        if self.title:
            return "[t]" + self.raw()
        return ",".join(text for _, text in self.gold) + "##" + self.raw()


class Vocabulary:
    """Aspect dictionary, opinion words and the mention distribution.

    ``entries`` maps every dictionary surface to its canonical form, as
    the aspect dictionary file and synonym file define it.  ``raw_safe``
    keeps only words the baseline tagger tags as the templates assume,
    for catalogs that are tagged rather than pretagged.
    """

    def __init__(
        self,
        canonicals: list[str],
        synonyms: dict[str, list[str]],
        unknown: list[str],
        tag_lexicon: dict[str, str],
        raw_safe: bool,
    ):
        self.entries = {term: term for term in canonicals}
        for canonical, syns in synonyms.items():
            self.entries.update((syn, canonical) for syn in syns)
        self.raw_safe = raw_safe
        self.tag_lexicon = tag_lexicon

        def usable(mention: str) -> bool:
            return all(self._noun_ok(word) for word in mention.split())

        self.canonicals = [c for c in canonicals if usable(c)]
        self.synonyms = {
            c: [s for s in synonyms.get(c, ()) if usable(s)] for c in self.canonicals
        }
        self.unknown = [u for u in unknown if usable(u)]
        # Zipf-like popularity over the canonical terms, in file order (an
        # assumption: the sample is too small to show a popularity curve).
        weights = (1.0 / (rank + 2) ** 0.8 for rank in range(len(self.canonicals)))
        self._cum = list(accumulate(weights))

        # Plain adjectives only: the templates place them in JJ positions,
        # and the tokenizer splits hyphenated words.
        def adjectives(filename: str) -> list[str]:
            words = read_words(DATA / filename)
            return [w for w in words if tag_lexicon.get(w) == "JJ" and "-" not in w]

        self.positive = adjectives("positive-words.txt")
        self.negative = adjectives("negative-words.txt")

    def _noun_ok(self, word: str) -> bool:
        if not self.raw_safe:
            return True
        tag = self.tag_lexicon.get(word)
        if tag is not None:
            return tag == "NN"
        # Unlisted words: NN unless a suffix rule of the tagger claims them.
        return word.isalpha() and not word.endswith(("ly", "est", "er", "ing", "ed", "s"))

    def surface(self, words: Mention, anchor: int) -> str:
        """What the extractor reports for a noun run anchored at ``anchor``."""
        text = " ".join(words)
        return self.entries.get(text) or self.entries.get(words[anchor]) or text

    def mention(self, rng: random.Random, single: bool = False) -> Mention:
        while True:
            if self.unknown and rng.random() < UNKNOWN_RATE:
                text = rng.choice(self.unknown)
            else:
                canonical = self.canonicals[bisect(self._cum, rng.random() * self._cum[-1])]
                syns = self.synonyms[canonical]
                text = rng.choice(syns) if syns and rng.random() < SYNONYM_RATE else canonical
            words = tuple(text.split())
            if not single or len(words) == 1:
                return words

    def plural(self, rng: random.Random) -> str:
        while True:
            (word,) = self.mention(rng, single=True)
            plural = word + "s"
            if word.endswith("s"):
                continue
            if not self.raw_safe or self.tag_lexicon.get(plural) == "NNS":
                return plural

    def opinion(self, rng: random.Random) -> tuple[str, str]:
        """An opinion adjective with its orientation, positive at POSITIVE_SHARE."""
        if rng.random() < POSITIVE_SHARE:
            return rng.choice(self.positive), POSITIVE
        return rng.choice(self.negative), NEGATIVE


def annotation(rng: random.Random, term: str, orientation: str, flags: str = "") -> tuple[str, str]:
    (strength,) = rng.choices(list(STRENGTHS), list(STRENGTHS.values()))
    sign = "+" if orientation == POSITIVE else "-"
    if not flags:
        (flags,) = rng.choices(list(FLAGS), list(FLAGS.values()))
    return term, f"{term}[{sign}{strength}]{flags}"


def _nouns(words: Mention, tag: str = "NN") -> tuple[tuple[str, str], ...]:
    return tuple((w, tag) for w in words)


# Templates.  Each returns one Sentence; the docstring names the sample
# line it is grounded in (see GROUNDING).


def noun_is_adj(v: Vocabulary, x: Mention, o: str, orient: str, gold, det=True, verb="is"):
    """the sound is wonderful .  /  battery life is excellent .  /  the player looks nice .
    /  the battery dies quick .  /  the grip feels solid in hand ."""
    head = (("the", "DT"),) if det else ()
    tokens = head + _nouns(x) + ((verb, "VBZ"), (o, "JJ"), (".", "."))
    pair = (v.surface(x, len(x) - 1), o, orient, "noun-is-adj")
    return Sentence(tokens, (pair,), (gold(" ".join(x), orient),))


def noun_is_adv_adj(v: Vocabulary, x: Mention, r: str, o: str, orient: str, gold):
    """the software is absolutely terrible ."""
    tokens = (("the", "DT"),) + _nouns(x) + (("is", "VBZ"), (r, "RB"), (o, "JJ"), (".", "."))
    pair = (v.surface(x, len(x) - 1), o, orient, "noun-is-adv-adj")
    return Sentence(tokens, (pair,), (gold(" ".join(x), orient),))


def plural_are_adj(v: Vocabulary, xs: str, o: str, orient: str, gold):
    """pictures are razor-sharp ."""
    tokens = ((xs, "NNS"), ("are", "VBP"), (o, "JJ"), (".", "."))
    pair = (v.surface((xs,), 0), o, orient, "plural-are-adj")
    return Sentence(tokens, (pair,), (gold(xs, orient),))


def plural_are_adv(v: Vocabulary, xs: str, gold):
    """transfers are fast ."""
    tokens = ((xs, "NNS"), ("are", "VBP"), ("fast", "RB"), (".", "."))
    pair = (v.surface((xs,), 0), "fast", POSITIVE, "plural-are-adv")
    return Sentence(tokens, (pair,), (gold(xs, POSITIVE),))


def title(v: Vocabulary, o: str, orient: str, x: Mention, little=False):
    """great little player  /  disappointing purchase  (titles carry no gold)"""
    tokens = ((o, "JJ"),) + ((("little", "JJ"),) if little else ()) + _nouns(x)
    pair = (v.surface(x, 0), o, orient, "nearest-aspect")
    return Sentence(tokens, (pair,), title=True)


def adj_noun_pair(v: Vocabulary, o: str, orient: str, x: Mention, y: Mention, gold):
    """it has a decent size and weight .  (the conjunction copies the pair onto y;
    the sample's gold carries no [cc] here)"""
    tokens = (("it", "PRP"), ("has", "VBZ"), ("a", "DT"), (o, "JJ"))
    tokens += _nouns(x) + (("and", "CC"),) + _nouns(y) + ((".", "."),)
    pairs = (
        (v.surface(x, 0), o, orient, "adj-noun-pair"),
        (v.surface(y, 0), o, orient, "adj-noun-pair"),
    )
    return Sentence(tokens, pairs, (gold(" ".join(x), orient), gold(" ".join(y), orient)))


def adj_noun_of_noun(v: Vocabulary, o: str, orient: str, y: Mention, gold):
    """superior piece of equipment ."""
    tokens = ((o, "JJ"), ("piece", "NN"), ("of", "IN")) + _nouns(y) + ((".", "."),)
    pair = (v.surface(y, 0), o, orient, "adj-noun-of-noun")
    return Sentence(tokens, (pair,), (gold(" ".join(y), orient),))


def participle_noun(v: Vocabulary, x: Mention, gold):
    """improved interface .  (pretagged only: the baseline tagger reads JJ here)"""
    tokens = (("improved", "VBD"),) + _nouns(x) + ((".", "."),)
    pair = (v.surface(x, 0), "improved", POSITIVE, "participle-noun")
    return Sentence(tokens, (pair,), (gold(" ".join(x), POSITIVE),))


def adv_adj_infinitive(v: Vocabulary, r: str, o: str, orient: str, x: Mention, gold):
    """very confusing to start the program ."""
    tokens = ((r, "RB"), (o, "JJ"), ("to", "TO"), ("start", "VB"), ("the", "DT"))
    tokens += _nouns(x) + ((".", "."),)
    pair = (v.surface(x, 0), o, orient, "adv-adj-infinitive")
    return Sentence(tokens, (pair,), (gold(" ".join(x), orient),))


def two_clauses(v: Vocabulary, x: Mention, o, orient, ys: str, o2, orient2, gold):
    """the menu is confusing and the buttons are stiff ."""
    tokens = (("the", "DT"),) + _nouns(x) + (("is", "VBZ"), (o, "JJ"), ("and", "CC"), ("the", "DT"))
    tokens += ((ys, "NNS"), ("are", "VBP"), (o2, "JJ"), (".", "."))
    pairs = (
        (v.surface(x, len(x) - 1), o, orient, "noun-is-adj"),
        (v.surface((ys,), 0), o2, orient2, "plural-are-adj"),
    )
    golds = (gold(" ".join(x), orient, "[cc]"), gold(ys, orient2, "[cc]"))
    return Sentence(tokens, pairs, golds)


def adj_and_adj(v: Vocabulary, x: Mention, o: str, o2: str, orient: str, gold):
    """the X is O and O2 .  (the second adjective falls back to the nearest noun)

    Not a sample line, but the same pairs as "the audio sounds great
    through good headphones ." gives: noun-is-adj and the fallback on one
    aspect.
    """
    tokens = (("the", "DT"),) + _nouns(x)
    tokens += (("is", "VBZ"), (o, "JJ"), ("and", "CC"), (o2, "JJ"), (".", "."))
    surface = v.surface(x, len(x) - 1)
    pairs = ((surface, o, orient, "noun-is-adj"), (surface, o2, orient, "nearest-aspect"))
    return Sentence(tokens, pairs, (gold(" ".join(x), orient),))


def noun_dies_fast(v: Vocabulary, x: Mention, gold):
    """the battery dies fast .  (only the fallback fires; the gold reads it as negative)"""
    tokens = (("the", "DT"),) + _nouns(x) + (("dies", "VBZ"), ("fast", "RB"), (".", "."))
    pair = (v.surface(x, 0), "fast", POSITIVE, "nearest-aspect")
    return Sentence(tokens, (pair,), (gold(" ".join(x), NEGATIVE),))


def adj_gerund(v: Vocabulary, o: str, orient: str, x: Mention, gold):
    """great looking camera ."""
    tokens = ((o, "JJ"), ("looking", "VBG")) + _nouns(x) + ((".", "."),)
    pair = (v.surface(x, 0), o, orient, "adj-gerund")
    return Sentence(tokens, (pair,), (gold(" ".join(x), orient),))


NEUTRAL = (
    "i/PRP bought/VBD this/DT {x}/NN last/JJ week/NN ./.",
    "i/PRP called/VBD the/DT support/NN line/NN twice/RB ./.",
    "my/PRP$ old/JJ one/CD broke/VBD after/IN a/DT year/NN ./.",
)


def neutral_line(index: int, x: str):
    """i bought this player last week .  (no opinion word, no pair, no gold)"""
    line = NEUTRAL[index].format(x=x)
    return Sentence(tuple(tuple(item.rsplit("/", 1)) for item in line.split()), ())


def neutral(v: Vocabulary, rng: random.Random):
    return neutral_line(rng.randrange(len(NEUTRAL)), v.mention(rng, single=True)[0])


def implicit(gold, hand_tagged=True):
    """way too expensive for what you get .  (gold names an aspect no noun carries)

    The baseline tagger reads ``way`` as a noun and ``get`` as VB, so the
    version for tagged text drops ``way`` and carries the tagger's tag.
    """
    tokens = (("way", "RB"),) if hand_tagged else ()
    tokens += (("too", "RB"), ("expensive", "JJ"), ("for", "IN"), ("what", "WP"))
    tokens += (("you", "PRP"), ("get", "VBP" if hand_tagged else "VB"), (".", "."))
    return Sentence(tokens, (), (gold("price", NEGATIVE, "[p]"),))


def _label(term, orient, flags=""):
    return term, term


_R, _M, _P, _N = "reviews-pretagged.txt", "minieval-pretagged.txt", POSITIVE, NEGATIVE

# (sample file, line index, line also tagged so by the baseline tagger,
#  the template call that reproduces the line)
GROUNDING = (
    (_R, 0, True, lambda v: title(v, "great", _P, ("player",), True)),
    (_R, 1, True, lambda v: noun_is_adj(v, ("sound",), "wonderful", _P, _label)),
    (_R, 2, True, lambda v: noun_is_adj(v, ("battery", "life"), "excellent", _P, _label, False)),
    (_R, 3, True, lambda v: noun_is_adv_adj(v, ("software",), "absolutely", "terrible", _N,
                                            _label)),
    (_R, 4, True, lambda v: plural_are_adv(v, "transfers", _label)),
    (_R, 5, True, lambda v: adj_noun_pair(v, "decent", _P, ("size",), ("weight",), _label)),
    (_R, 6, True, lambda v: neutral_line(0, "player")),
    (_R, 7, True, lambda v: noun_is_adv_adj(v, ("earpiece",), "very", "comfortable", _P, _label)),
    (_R, 8, False, lambda v: participle_noun(v, ("interface",), _label)),
    (_R, 10, True, lambda v: title(v, "disappointing", _N, ("purchase",))),
    (_R, 11, True, lambda v: noun_is_adj(v, ("screen",), "awful", _N, _label)),
    (_R, 12, True, lambda v: adv_adj_infinitive(v, "very", "confusing", _N, ("program",), _label)),
    (_R, 13, True, lambda v: noun_is_adj(v, ("player",), "nice", _P, _label, verb="looks")),
    (_R, 15, True, lambda v: neutral_line(2, "")),
    (_R, 16, True, lambda v: adj_noun_of_noun(v, "superior", _P, ("equipment",), _label)),
    (_R, 18, True, lambda v: neutral_line(1, "")),
    (_R, 22, True, lambda v: adj_gerund(v, "great", _P, ("camera",), _label)),
    (_R, 23, True, lambda v: noun_dies_fast(v, ("battery",), _label)),
    (_M, 4, False, lambda v: plural_are_adj(v, "pictures", "razor-sharp", _P, _label)),
    (_M, 6, True, lambda v: two_clauses(v, ("menu",), "confusing", _N, "buttons", "stiff", _N,
                                        _label)),
    (_M, 9, False, lambda v: implicit(_label)),
)


# (template, weight, usable on text the baseline tagger tags).  A weight
# counts the sample's body lines on which the program fires the same
# patterns as the template and which carry gold exactly when it does.
# That covers 51 of the 52; the one left, "i took it on a lovely vacation
# ." (a fallback pair and no gold), has no template.
BODY_TEMPLATES = (
    ("noun_is_adj", 17, True),
    ("noun_is_adv_adj", 2, True),
    ("plural_are_adj", 4, True),
    ("plural_are_adv", 1, True),
    ("adj_noun_pair", 1, True),
    ("adj_noun_of_noun", 1, True),
    ("participle_noun", 1, False),
    ("adv_adj_infinitive", 1, True),
    ("two_clauses", 1, True),
    ("adj_and_adj", 1, True),
    ("noun_dies_fast", 3, True),
    ("adj_gerund", 1, True),
    ("neutral", 12, True),
    ("implicit", 5, True),
)


def body_sentence(v: Vocabulary, rng: random.Random, name: str) -> Sentence:
    def gold(term, orient, flags=""):
        return annotation(rng, term, orient, flags)

    if name == "noun_is_adj":
        o, orient = v.opinion(rng)
        det = rng.random() < NOUN_IS_ADJ_DET_RATE
        (verb,) = rng.choices(list(NOUN_IS_ADJ_VERBS), list(NOUN_IS_ADJ_VERBS.values()))
        return noun_is_adj(v, v.mention(rng), o, orient, gold, det=det, verb=verb)
    if name == "noun_is_adv_adj":
        o, orient = v.opinion(rng)
        return noun_is_adv_adj(v, v.mention(rng), rng.choice(ADVERBS), o, orient, gold)
    if name == "plural_are_adj":
        o, orient = v.opinion(rng)
        return plural_are_adj(v, v.plural(rng), o, orient, gold)
    if name == "plural_are_adv":
        return plural_are_adv(v, v.plural(rng), gold)
    if name == "adj_noun_pair":
        o, orient = v.opinion(rng)
        x = v.mention(rng, single=True)
        y = v.mention(rng)
        while y == x:
            y = v.mention(rng)
        return adj_noun_pair(v, o, orient, x, y, gold)
    if name == "adj_noun_of_noun":
        o, orient = v.opinion(rng)
        return adj_noun_of_noun(v, o, orient, v.mention(rng), gold)
    if name == "participle_noun":
        return participle_noun(v, v.mention(rng), gold)
    if name == "adv_adj_infinitive":
        o, orient = v.opinion(rng)
        return adv_adj_infinitive(v, rng.choice(ADVERBS), o, orient, v.mention(rng), gold)
    if name == "two_clauses":
        o, orient = v.opinion(rng)
        o2, orient2 = v.opinion(rng)
        x = v.mention(rng)
        ys = v.plural(rng)
        return two_clauses(v, x, o, orient, ys, o2, orient2, gold)
    if name == "adj_and_adj":
        o, orient = v.opinion(rng)
        words = v.positive if orient == POSITIVE else v.negative
        o2 = rng.choice([w for w in words if w != o])
        return adj_and_adj(v, v.mention(rng), o, o2, orient, gold)
    if name == "noun_dies_fast":
        return noun_dies_fast(v, v.mention(rng), gold)
    if name == "adj_gerund":
        o, orient = v.opinion(rng)
        return adj_gerund(v, o, orient, v.mention(rng), gold)
    if name == "neutral":
        return neutral(v, rng)
    if name == "implicit":
        return implicit(gold, hand_tagged=not v.raw_safe)
    raise ValueError(f"unknown template {name!r}")


def title_sentence(v: Vocabulary, rng: random.Random) -> Sentence:
    o, orient = v.opinion(rng)
    return title(v, o, orient, v.mention(rng), little=rng.random() < LITTLE_RATE)


@dataclass(frozen=True)
class Product:
    name: str
    sentences: tuple[Sentence, ...]

    def corpus_text(self) -> str:
        return "".join(s.corpus_line() + "\n" for s in self.sentences)

    def pretagged_text(self) -> str:
        return "".join(s.pretagged() + "\n" for s in self.sentences)

    def expectation(self) -> dict:
        """Pairs, summary totals and evaluation item counts this product must yield."""
        pairs: list[Pair] = []
        counts = dict.fromkeys(
            ("n_predicted_aspects", "n_predicted_opinions", "n_gold_aspects", "n_gold_opinions"), 0
        )
        for position, s in enumerate(self.sentences):
            pairs.extend((position,) + pair for pair in s.pairs)
            counts["n_predicted_aspects"] += len({a for a, _, _, _ in s.pairs})
            counts["n_predicted_opinions"] += len({(a, orient) for a, _, orient, _ in s.pairs})
            gold = {(term, text.split("[")[1][0]) for term, text in s.gold}
            counts["n_gold_aspects"] += len({term for term, _ in gold})
            counts["n_gold_opinions"] += len(gold)
        return {
            "product": self.name,
            "sentences": len(self.sentences),
            "pairs": sorted(pairs),
            "positive_total": sum(1 for p in pairs if p[3] == POSITIVE),
            "negative_total": sum(1 for p in pairs if p[3] == NEGATIVE),
            **counts,
        }


def make_product(v: Vocabulary, rng: random.Random, name: str, n_sentences: int) -> Product:
    """Reviews of a title and BODY_LINES body lines, up to ``n_sentences``.

    Body lines are dealt from a shuffled deck that holds each template
    as often as its weight, so any stretch of a few dozen lines has the
    sample's mix: products of one size differ in their words, not in how
    much work their templates make.
    """
    templates = [(t, w) for t, w, raw_ok in BODY_TEMPLATES if raw_ok or not v.raw_safe]
    deck: list[str] = []
    sentences: list[Sentence] = []
    while len(sentences) < n_sentences:
        sentences.append(title_sentence(v, rng))
        for _ in range(BODY_LINES):
            if not deck:
                deck = [t for t, w in templates for _ in range(w)]
                rng.shuffle(deck)
            sentences.append(body_sentence(v, rng, deck.pop()))
    return Product(name=name, sentences=tuple(sentences[:n_sentences]))


def bundled_vocabulary(raw_safe: bool) -> Vocabulary:
    return Vocabulary(
        canonicals=read_words(DATA / "aspects.txt"),
        synonyms=read_synonyms(DATA / "synonyms.txt"),
        unknown=[],
        tag_lexicon=read_tag_lexicon(DATA / "tag-lexicon.txt"),
        raw_safe=raw_safe,
    )


_ONSETS = "bdfgklmnprtvz"
_VOWELS = "aeiou"
_CODAS = "kmnprtv"


def nonce_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    """Distinct invented nouns; none ends in ``s``, so plurals never collide."""
    words: list[str] = []
    while len(words) < count:
        syllables = rng.choice((2, 2, 3))
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))
        word += rng.choice(_CODAS)
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def open_vocabulary(rng: random.Random, n_terms: int) -> tuple[Vocabulary, str, str]:
    """A generated dictionary of ``n_terms`` canonical terms with synonyms.

    It has the bundled dictionary's shape: the same share of two-word
    terms and of terms with synonyms, and synonym counts drawn from the
    bundled ones.  Returns the vocabulary and the aspect and synonym file
    contents.
    """
    bundled = read_words(DATA / "aspects.txt")
    bundled_synonyms = read_synonyms(DATA / "synonyms.txt")
    two_word_share = sum(" " in c for c in bundled) / len(bundled)
    synonym_share = len(bundled_synonyms) / len(bundled)
    synonym_counts = [len(s) for s in bundled_synonyms.values()]
    lexicon = read_tag_lexicon(DATA / "tag-lexicon.txt")
    taken = set(lexicon) | set(read_words(DATA / "positive-words.txt"))
    taken |= set(read_words(DATA / "negative-words.txt"))
    pool = nonce_words(rng, 2 * n_terms, taken)
    canonicals: list[str] = []
    for i in range(n_terms):
        if rng.random() < two_word_share:
            canonicals.append(f"{pool[i]} {rng.choice(pool[:n_terms])}")
        else:
            canonicals.append(pool[i])
    canonicals = list(dict.fromkeys(canonicals))
    extra = iter(pool[n_terms:])
    synonyms = {
        c: [next(extra) for _ in range(rng.choice(synonym_counts))]
        for c in canonicals
        if rng.random() < synonym_share
    }
    unknown = list(extra)
    vocabulary = Vocabulary(canonicals, synonyms, unknown, lexicon, raw_safe=False)
    aspects_text = "".join(c + "\n" for c in canonicals)
    synonyms_text = "".join(f"{c}: {', '.join(s)}\n" for c, s in synonyms.items())
    return vocabulary, aspects_text, synonyms_text


def product_sizes(count: int, smallest: int, largest: int, skew: float) -> list[int]:
    """Skewed sizes in blocks of BLOCK products: many small, a few large.

    Every block holds the same BLOCK sizes, one per quantile of the size
    curve, in the same order (large and small interleaved along the
    golden ratio).  A run that stops at the end of a block has seen each
    size equally often, so its percentiles fall on the same sizes for
    every seed and block count.  The seed changes only the words.
    """
    ratio = largest / smallest
    levels = [round(smallest * ratio ** (((k + 0.5) / BLOCK) ** skew)) for k in range(BLOCK)]
    order = sorted(range(BLOCK), key=lambda k: (k * GOLDEN) % 1.0)
    return [levels[order[j % BLOCK]] for j in range(count)]


def write_product(directory: Path, product: Product) -> dict:
    """Write corpus, pretagged and expectation files; return the catalog entry."""
    base = directory / product.name
    base.with_suffix(".txt").write_text(product.corpus_text(), encoding="utf-8")
    base.with_suffix(".pos").write_text(product.pretagged_text(), encoding="utf-8")
    expectation = product.expectation()
    base.with_suffix(".json").write_text(json.dumps(expectation), encoding="utf-8")
    return {"name": product.name, "sentences": len(product.sentences)}

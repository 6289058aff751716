"""Sentence weighting and top-sentence selection.

A sentence's weight is the sum of its adjective/adverb tag weights plus
one point per reinforcing verb and minus one per weakening verb, with
verbs reduced to base form by simple suffix stripping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .lexicons import TagWeightTable, VerbCategoryLexicon
from .tagger import VERB_TAGS, TaggedSentence

_VOWELS = "aeiou"


def base_form_candidates(word: str) -> list[str]:
    """Plausible base forms of an inflected verb, most specific first.

    Handles -s/-es/-ies, -ed/-ied, -ing, undoing consonant doubling
    (stopped -> stop) and restoring a dropped final e (advising -> advise).
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
            if (
                len(stem) >= 3
                and stem[-1] == stem[-2]
                and stem[-1] not in _VOWELS
                and stem[-1] != "s"
            ):
                add(stem[:-1])
    return candidates


@dataclass(frozen=True)
class SentenceScore:
    sentence: TaggedSentence
    adjective_adverb_points: int
    verb_points: int

    @property
    def total(self) -> int:
        return self.adjective_adverb_points + self.verb_points


def weight_sentence(
    sentence: TaggedSentence,
    weights: TagWeightTable,
    verbs: VerbCategoryLexicon,
) -> SentenceScore:
    """Score one sentence from its tags and verb categories."""
    adj_points = sum(weights.weight(token.tag) for token in sentence.tokens)
    verb_points = 0
    for token in sentence.tokens:
        if token.tag not in VERB_TAGS:
            continue
        for base in base_form_candidates(token.surface):
            orientation = verbs.orientation_of(base)
            if orientation != 0:
                verb_points += orientation
                break
    return SentenceScore(
        sentence=sentence,
        adjective_adverb_points=adj_points,
        verb_points=verb_points,
    )


def score_sentences(
    sentences: list[TaggedSentence],
    weights: TagWeightTable,
    verbs: VerbCategoryLexicon,
) -> dict[TaggedSentence, SentenceScore]:
    return {s: weight_sentence(s, weights, verbs) for s in sentences}


def rank_sentences(
    sentences: set[TaggedSentence] | list[TaggedSentence],
    scores: Mapping[TaggedSentence, SentenceScore],
    k: int,
) -> list[TaggedSentence]:
    """Top k sentences by weight; ties broken by corpus position."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ordered = sorted(
        set(sentences), key=lambda s: (-scores[s].total, s.position)
    )
    return ordered[:k]

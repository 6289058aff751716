"""Sentence weighting and top-sentence selection.

A sentence's weight is the sum of its adjective/adverb tag weights
(:data:`TAG_WEIGHTS`: plain 1, comparative 2, superlative 3, any other
tag 0) plus one point per reinforcing verb and minus one per weakening
verb, with verbs reduced to base form by the tagger's
``base_form_candidates`` once per distinct surface
(:meth:`VerbCategoryLexicon.orientation_of_surface`).
"""

from __future__ import annotations

from heapq import nsmallest
from itertools import repeat
from typing import Mapping

from ._records import record
from .lexicons import VerbCategoryLexicon
from .tagger import VERB_TAGS, TaggedSentence

TAG_WEIGHTS = {"JJ": 1, "JJR": 2, "JJS": 3, "RB": 1, "RBR": 2, "RBS": 3}


@record
class SentenceScore:
    sentence: TaggedSentence
    adjective_adverb_points: int
    verb_points: int

    @property
    def total(self) -> int:
        return self.adjective_adverb_points + self.verb_points


def weight_sentence(sentence: TaggedSentence, verbs: VerbCategoryLexicon) -> SentenceScore:
    """Score one sentence from its tags and verb categories."""
    tags = sentence.tags
    adj_points = sum(map(TAG_WEIGHTS.get, tags, repeat(0)))
    verb_points = 0
    for surface, tag in zip(sentence.surfaces, tags):
        if tag in VERB_TAGS:
            verb_points += verbs.orientation_of_surface(surface)
    return SentenceScore(sentence, adj_points, verb_points)


def score_sentences(
    sentences: list[TaggedSentence], verbs: VerbCategoryLexicon
) -> dict[TaggedSentence, SentenceScore]:
    return {s: weight_sentence(s, verbs) for s in sentences}


def rank_sentences(
    sentences: set[TaggedSentence] | list[TaggedSentence],
    scores: Mapping[TaggedSentence, SentenceScore],
    k: int,
) -> list[TaggedSentence]:
    """Top k sentences by weight; ties broken by corpus position.

    ``heapq.nsmallest`` gives ``sorted(...)[:k]`` without sorting the
    whole set.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return nsmallest(k, set(sentences), key=lambda s: (-scores[s].total, s.position))

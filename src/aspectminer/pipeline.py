"""End-to-end wiring: resource loading and corpus-level processing.

Bundled defaults live in the package ``data/`` directory; the
ASPECTMINER_DATA environment variable points resource resolution at a
different directory without touching individual path flags.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources as importlib_resources
from pathlib import Path

from .corpus import Corpus, tokenize
from .errors import ParseError
from .evaluation import ExtractionBreakdown, ExtractionScores, evaluate_extraction_detailed
from .grouping import AspectGroup, group_aspects
from .lexicons import (
    AspectDictionary,
    OpinionLexicon,
    TagWeightTable,
    VerbCategoryLexicon,
    load_aspect_dictionary,
    load_opinion_lexicon,
    load_verb_categories,
)
from .patterns import AspectOpinionPair, PatternSet, extract_with_options, load_pattern_set
from .scoring import SentenceScore, score_sentences
from .summary import Summary, generate_summary
from .tagger import BaselineTagger, TaggedSentence, load_tag_lexicon, parse_pretagged

DATA_ENV_VAR = "ASPECTMINER_DATA"

DEFAULT_FILES = {
    "patterns": "patterns.txt",
    "pos_lex": "positive-words.txt",
    "neg_lex": "negative-words.txt",
    "aspects": "aspects.txt",
    "synonyms": "synonyms.txt",
    "verbs": "verb-categories.txt",
    "tag_lexicon": "tag-lexicon.txt",
}


def data_dir() -> Path:
    """Bundled resource directory, overridable via ASPECTMINER_DATA."""
    override = os.environ.get(DATA_ENV_VAR)
    if override:
        return Path(override)
    return Path(str(importlib_resources.files("aspectminer").joinpath("data")))


def default_path(resource: str) -> Path:
    return data_dir() / DEFAULT_FILES[resource]


@dataclass(frozen=True)
class Resources:
    """All loaded knowledge needed to run extraction and summarization."""

    opinion_lexicon: OpinionLexicon
    aspect_dictionary: AspectDictionary
    verb_categories: VerbCategoryLexicon
    pattern_set: PatternSet
    tag_lexicon: dict[str, str]
    tag_weights: TagWeightTable

    def tagger(self) -> BaselineTagger:
        return BaselineTagger(self.tag_lexicon)


def load_resources(
    pos_lex: str | Path | None = None,
    neg_lex: str | Path | None = None,
    aspects: str | Path | None = None,
    synonyms: str | Path | None = None,
    verbs: str | Path | None = None,
    patterns: str | Path | None = None,
    tag_lexicon: str | Path | None = None,
) -> Resources:
    """Load every resource, falling back to the bundled defaults."""
    return Resources(
        opinion_lexicon=load_opinion_lexicon(
            pos_lex or default_path("pos_lex"), neg_lex or default_path("neg_lex")
        ),
        aspect_dictionary=load_aspect_dictionary(
            aspects or default_path("aspects"), synonyms or default_path("synonyms")
        ),
        verb_categories=load_verb_categories(verbs or default_path("verbs")),
        pattern_set=load_pattern_set(patterns or default_path("patterns")),
        tag_lexicon=load_tag_lexicon(tag_lexicon or default_path("tag_lexicon")),
        tag_weights=TagWeightTable(),
    )


def tag_corpus(
    corpus: Corpus, tagger: BaselineTagger, *, start: int = 0
) -> list[TaggedSentence]:
    """Tokenize and tag every corpus sentence, keeping corpus order.

    Positions count up from ``start``, so that several corpora tagged in
    turn number their sentences as one sequence.
    """
    tagged = []
    for position, sentence in enumerate(corpus.sentences, start):
        words = tokenize(sentence.raw_text)
        if words:
            ts = tagger.tag(words, source=sentence, position=position)
        else:
            ts = TaggedSentence(tokens=(), source=sentence, position=position)
        tagged.append(ts)
    return tagged


def load_pretagged_file(
    path: str | Path, corpus: Corpus | None = None, *, start: int = 0
) -> list[TaggedSentence]:
    """Read pretagged lines; with a corpus, align them one-to-one.

    Blank lines are skipped.  Alignment is positional: line i annotates
    corpus sentence i, and the counts must agree exactly.  Positions
    count up from ``start``, as in :func:`tag_corpus`.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(str(path))
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if l.strip()]
    if corpus is not None and len(lines) != len(corpus.sentences):
        raise ParseError(
            f"{len(lines)} pretagged lines for {len(corpus.sentences)} corpus sentences",
            path=path,
        )
    tagged = []
    for i, line in enumerate(lines):
        source = corpus.sentences[i] if corpus is not None else None
        try:
            tagged.append(parse_pretagged(line, source=source, position=start + i))
        except ParseError as exc:
            raise ParseError(exc.message, path=path, line=i + 1) from exc
    return tagged


def extract_corpus(
    tagged: list[TaggedSentence],
    res: Resources,
    *,
    fallback: bool = True,
    conjunction: bool = True,
) -> list[AspectOpinionPair]:
    """Run per-sentence extraction over the whole corpus, order preserved."""
    pairs: list[AspectOpinionPair] = []
    for sentence in tagged:
        pairs.extend(
            extract_with_options(
                sentence,
                res.aspect_dictionary,
                res.opinion_lexicon,
                res.pattern_set,
                fallback=fallback,
                conjunction=conjunction,
            )
        )
    return pairs


def summarize_corpus(
    tagged: list[TaggedSentence],
    res: Resources,
    top_k: int = 3,
    product_name: str = "",
    *,
    fallback: bool = True,
    conjunction: bool = True,
) -> tuple[Summary, list[AspectGroup], dict[TaggedSentence, SentenceScore]]:
    """extract -> group -> score -> summary for one tagged corpus."""
    pairs = extract_corpus(tagged, res, fallback=fallback, conjunction=conjunction)
    groups = group_aspects(pairs, res.aspect_dictionary)
    scores = score_sentences(tagged, res.tag_weights, res.verb_categories)
    summary = generate_summary(groups, scores, top_k, product_name=product_name)
    return summary, groups, scores


def evaluate_corpus(
    corpus: Corpus,
    tagged: list[TaggedSentence],
    res: Resources,
    *,
    fallback: bool = True,
    conjunction: bool = True,
) -> tuple[ExtractionScores, ExtractionBreakdown]:
    """Extract from the tagged sentences and score against the corpus gold."""
    pairs = extract_corpus(tagged, res, fallback=fallback, conjunction=conjunction)
    b = evaluate_extraction_detailed(pairs, corpus)
    scores = ExtractionScores.from_rates(
        corpus.product_name, b.aspect_p, b.aspect_r, b.opinion_p, b.opinion_r
    )
    return scores, b

"""End-to-end wiring: resource loading and corpus-level processing.

A run extracts a corpus's pairs once, with :func:`extract_corpus`, the
one function taking the extraction options, and hands the same pairs to
:func:`summarize_corpus` and :func:`evaluate_corpus`.

The evaluation stage is not loaded with this module, since summarizing
never calls it: :func:`evaluate_corpus` imports it on its first call.
This module still answers for ``evaluate_extraction_detailed``,
``ExtractionScores`` and ``ExtractionBreakdown``, importing the stage
on first access to one of them; the bench tracer patches
``evaluate_extraction_detailed`` here.

Bundled defaults live in the package ``data/`` directory; the
ASPECTMINER_DATA environment variable points resource resolution at a
different directory without touching individual path flags.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from .corpus import Corpus, ReviewSentence, tokenize
from .errors import ParseError, read_text, text_lines
from .grouping import AspectGroup, group_aspects
from .lexicons import (
    AspectDictionary,
    VerbCategoryLexicon,
    load_aspect_dictionary,
    load_opinion_lexicon,
    load_verb_categories,
)
from .patterns import AspectOpinionPair, PatternSet, extract_sentences, load_pattern_set
from .scoring import SentenceScore, score_sentences
from .summary import Summary, generate_summary
from .tagger import BaselineTagger, TaggedSentence, load_tag_lexicon, parse_pretagged

if TYPE_CHECKING:
    from .evaluation import ExtractionBreakdown, ExtractionScores

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
    return Path(__file__).parent / "data"


@dataclass(frozen=True)
class Resources:
    """All loaded knowledge needed to run extraction and summarization.

    The tag lexicon is read on first use and kept, so a run over
    pretagged input never parses it.
    """

    opinion_lexicon: Mapping[str, str]  # seed word -> POSITIVE | NEGATIVE
    aspect_dictionary: AspectDictionary
    verb_categories: VerbCategoryLexicon
    pattern_set: PatternSet
    tag_lexicon_path: str | Path

    @cached_property
    def tag_lexicon(self) -> Mapping[str, str]:
        return load_tag_lexicon(self.tag_lexicon_path)

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
    """Load every resource, falling back to the defaults in :func:`data_dir`,
    which is resolved once per call, for each path that is ``None``; an
    empty path is a missing file.

    The tag lexicon is only checked to be a file here; it is parsed by
    the first :meth:`Resources.tagger` call.
    """
    data = data_dir()

    def path(given: str | Path | None, resource: str) -> str | Path:
        return os.path.join(data, DEFAULT_FILES[resource]) if given is None else given

    tag_lexicon_path = path(tag_lexicon, "tag_lexicon")
    if not os.path.isfile(tag_lexicon_path):
        raise FileNotFoundError(str(tag_lexicon_path))
    return Resources(
        opinion_lexicon=load_opinion_lexicon(
            path(pos_lex, "pos_lex"), path(neg_lex, "neg_lex")
        ),
        aspect_dictionary=load_aspect_dictionary(
            path(aspects, "aspects"), path(synonyms, "synonyms")
        ),
        verb_categories=load_verb_categories(path(verbs, "verbs")),
        pattern_set=load_pattern_set(path(patterns, "patterns")),
        tag_lexicon_path=tag_lexicon_path,
    )


def tag_corpus(
    corpus: Corpus, tagger: BaselineTagger, *, start: int = 0
) -> list[TaggedSentence]:
    """Tokenize and tag every corpus sentence, keeping corpus order.

    Positions count up from ``start``, so that several corpora tagged in
    turn number their sentences as one sequence.  Equal surfaces within
    the call are one string, as in :func:`load_pretagged_file`, so the
    memory the surfaces take grows with the distinct words, not with
    the tokens.
    """
    tagged = []
    shared: dict[str, str] = {}
    for position, sentence in enumerate(corpus.sentences, start):
        words = tokenize(sentence.raw_text, shared)
        if words:
            ts = tagger.tag(words, source=sentence, position=position)
        else:
            ts = TaggedSentence(source=sentence, position=position)
        tagged.append(ts)
    return tagged


# Penn Treebank escapes that real taggers write for brackets and quotes.
_PENN_ESCAPES = {
    "-LRB-": "(", "-RRB-": ")", "-LSB-": "[", "-RSB-": "]", "-LCB-": "{", "-RCB-": "}",
    "``": '"', "''": '"',
}


def _spells(surfaces: tuple[str, ...], text: str) -> bool:
    """Whether each surface matches the next non-space characters of ``text``,
    as written or as the character its Penn escape stands for.

    Surfaces hold no whitespace, so a text that is its surfaces joined by
    single spaces, as aligned lines usually are, is accepted at once.
    """
    if " ".join(surfaces) == text:
        return True
    rest = "".join(text.split())
    at = 0
    for surface in surfaces:
        for form in (surface, _PENN_ESCAPES.get(surface)):
            if form is not None and rest.startswith(form, at):
                at += len(form)
                break
        else:
            return False
    return at == len(rest)


def load_pretagged_file(
    path: str | Path, corpus: Corpus | None = None, *, start: int = 0
) -> list[TaggedSentence]:
    """Read pretagged lines; with a corpus, align them one-to-one.

    Blank lines are skipped.  Alignment is positional: the lines annotate
    the corpus sentences that have text, in order, the counts must agree
    exactly, and each line's tokens must spell its sentence's text (see
    :func:`_spells`).  A corpus sentence without text (a bare ``##`` or
    ``[t]`` line, which ``tag`` prints as a blank line) takes no line and
    gets an empty :class:`TaggedSentence`.  Positions count up from
    ``start`` by corpus sentence, as in :func:`tag_corpus`.  Equal
    surfaces within the file are one string.
    """
    lines = text_lines(read_text(path))
    sources: Sequence[ReviewSentence | None] = [None] * len(lines)
    if corpus is not None:
        sources = corpus.sentences
        with_text = sum(1 for source in sources if source.raw_text)
        if len(lines) != with_text:
            without = len(sources) - with_text
            raise ParseError(
                f"{len(lines)} pretagged lines for {with_text} corpus sentences"
                + (f" (and {without} without text)" if without else ""),
                path=path,
            )
    tagged = []
    words: dict[str, str] = {}
    annotations = iter(lines)
    for i, source in enumerate(sources):
        if source is not None and not source.raw_text:
            tagged.append(TaggedSentence(source=source, position=start + i))
            continue
        lineno, line = next(annotations)
        try:
            sentence = parse_pretagged(line, source, start + i, words=words)
        except ParseError as exc:
            raise ParseError(exc.message, path=path, line=lineno) from exc
        if source is not None and not _spells(sentence.surfaces, source.raw_text):
            raise ParseError(
                f"tokens do not spell corpus sentence {i + 1}: {source.raw_text!r}",
                path=path,
                line=lineno,
            )
        tagged.append(sentence)
    return tagged


def extract_corpus(
    tagged: list[TaggedSentence],
    res: Resources,
    *,
    fallback: bool = True,
    conjunction: bool = True,
) -> list[AspectOpinionPair]:
    """Extract the pairs of the whole corpus in one
    :func:`~aspectminer.patterns.extract_sentences` call, order preserved."""
    return extract_sentences(
        tagged,
        res.aspect_dictionary,
        res.opinion_lexicon,
        res.pattern_set,
        fallback=fallback,
        conjunction=conjunction,
    )


def summarize_corpus(
    tagged: list[TaggedSentence],
    res: Resources,
    top_k: int = 3,
    product_name: str = "",
    pairs: list[AspectOpinionPair] | None = None,
) -> tuple[Summary, list[AspectGroup], dict[TaggedSentence, SentenceScore]]:
    """group -> score -> summary for one tagged corpus and its ``pairs``,
    extracted with the default options when not given."""
    if pairs is None:
        pairs = extract_corpus(tagged, res)
    groups = group_aspects(pairs, res.aspect_dictionary)
    scores = score_sentences(tagged, res.verb_categories)
    summary = generate_summary(groups, scores, top_k, product_name=product_name)
    return summary, groups, scores


def evaluate_corpus(
    corpus: Corpus, pairs: list[AspectOpinionPair]
) -> tuple[ExtractionScores, ExtractionBreakdown]:
    """Score pairs extracted from the corpus against its gold."""
    from . import evaluation

    b = evaluation.evaluate_extraction_detailed(pairs, corpus)
    scores = evaluation.ExtractionScores.from_rates(
        corpus.product_name, b.aspect_p, b.aspect_r, b.opinion_p, b.opinion_r
    )
    return scores, b


_EVALUATION_NAMES = ("evaluate_extraction_detailed", "ExtractionScores", "ExtractionBreakdown")


def __getattr__(name: str):
    """The evaluation stage's names in ``_EVALUATION_NAMES``, imported on
    first access (PEP 562)."""
    if name in _EVALUATION_NAMES:
        from . import evaluation

        return getattr(evaluation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Pros/cons summary assembly and rendering.

Three renderings share one Summary value: a human-readable text report,
a line-oriented machine format for external tooling, and an ASCII
histogram of positive versus negative opinion shares.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from ._records import record
from .grouping import AspectGroup
from .lexicons import NEGATIVE, POSITIVE
from .scoring import SentenceScore, rank_sentences
from .tagger import TaggedSentence

FORMATS = ("text", "machine", "histogram")

HISTOGRAM_SCALE = 50  # columns for a 100% bar


@record
class SummaryEntry:
    sentence: TaggedSentence
    weight: int

    @property
    def text(self) -> str:
        return self.sentence.text()


@record
class SummaryGroup:
    label: str
    positive_count: int
    negative_count: int
    pros: tuple[SummaryEntry, ...]
    cons: tuple[SummaryEntry, ...]


@dataclass(frozen=True)
class Summary:
    product_name: str
    groups: tuple[SummaryGroup, ...]
    positive_total: int
    negative_total: int
    positive_pct: int
    negative_pct: int

    @property
    def total(self) -> int:
        return self.positive_total + self.negative_total


def _percentages(positive: int, negative: int) -> tuple[int, int]:
    """Integer percents; negative is the complement so they sum to 100.

    ``(200 * positive + total) // (2 * total)`` is ``100 * positive /
    total`` rounded half up, in integers.
    """
    total = positive + negative
    if total == 0:
        return 0, 0
    pos = (200 * positive + total) // (2 * total)
    return pos, 100 - pos


def _top_entries(
    sentences: list[TaggedSentence],
    scores: Mapping[TaggedSentence, SentenceScore],
    top_k: int,
) -> tuple[SummaryEntry, ...]:
    """A side's entries; a list of fewer than two sentences needs no ranking."""
    if len(sentences) > 1:
        ranked = rank_sentences(sentences, scores, top_k)
        return tuple([SummaryEntry(s, scores[s].total) for s in ranked])
    if sentences:
        s = sentences[0]
        return (SummaryEntry(s, scores[s].total),)
    return ()


def generate_summary(
    groups: list[AspectGroup],
    scores: Mapping[TaggedSentence, SentenceScore],
    top_k: int,
    product_name: str = "",
) -> Summary:
    """Build the summary: per-group top pros/cons plus overall shares.

    Groups are ordered by total pair count descending, label ascending.
    A sentence carrying both polarities for a group appears in both its
    pros and cons lists.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    # one walk per group: each pair's sentence, listed under its polarity,
    # behind the group's (-count, label, input index) sort key
    split = []
    for index, group in enumerate(groups):
        pos_sents: list[TaggedSentence] = []
        neg_sents: list[TaggedSentence] = []
        for p in group.pairs:
            if p.orientation == POSITIVE:
                pos_sents.append(p.sentence)
            elif p.orientation == NEGATIVE:
                neg_sents.append(p.sentence)
        label = group.canonical_label
        split.append((-len(pos_sents) - len(neg_sents), label, index, pos_sents, neg_sents))
    split.sort()
    rendered = tuple([
        SummaryGroup(
            label,
            len(pos_sents),
            len(neg_sents),
            _top_entries(pos_sents, scores, top_k),
            _top_entries(neg_sents, scores, top_k),
        )
        for _, label, _, pos_sents, neg_sents in split
    ])
    positive_total = sum(g.positive_count for g in rendered)
    negative_total = sum(g.negative_count for g in rendered)
    pos_pct, neg_pct = _percentages(positive_total, negative_total)
    return Summary(
        product_name=product_name,
        groups=rendered,
        positive_total=positive_total,
        negative_total=negative_total,
        positive_pct=pos_pct,
        negative_pct=neg_pct,
    )


def _entry_lines(entries: tuple[SummaryEntry, ...]) -> str:
    if len(entries) == 1:  # most lists of an open vocabulary
        e = entries[0]
        return f"    [{e.weight}] {e.text}\n"
    return "".join([f"    [{e.weight}] {e.text}\n" for e in entries]) or "    (none)\n"


def _render_text(summary: Summary) -> str:
    parts = [
        f"pros and cons: {summary.product_name or 'reviews'}\n"
        f"opinions: {summary.total} "
        f"({summary.positive_pct}% positive, {summary.negative_pct}% negative)\n"
    ]
    for group in summary.groups:
        parts.append(
            f"\n{group.label} ({group.positive_count} positive, "
            f"{group.negative_count} negative)\n"
            f"  pros:\n{_entry_lines(group.pros)}  cons:\n{_entry_lines(group.cons)}"
        )
    return "".join(parts)


def _one_line(text: str) -> str:
    """``text`` with each whitespace run (a tab or a line separator too) as
    one space, so that its machine row stays one line.  Every whitespace
    character but the space is unprintable, so most texts pass as they are."""
    return re.sub(r"\s+", " ", text) if "  " in text or not text.isprintable() else text


def _render_machine(summary: Summary) -> str:
    parts = [
        f"summary\t{_one_line(summary.product_name or 'reviews')}\t{summary.total}\t"
        f"{summary.positive_pct}\t{summary.negative_pct}\n"
    ]
    parts += [
        f"group\t{group.label}\t{group.positive_count}\t{group.negative_count}\n"
        for group in summary.groups
    ]
    for group in summary.groups:
        label = group.label
        for e in group.pros:
            parts.append(f"sentence\t{label}\tpositive\t{e.weight}\t{_one_line(e.text)}\n")
        for e in group.cons:
            parts.append(f"sentence\t{label}\tnegative\t{e.weight}\t{_one_line(e.text)}\n")
    return "".join(parts)


# A histogram row after its label column, by percent: the bar is
# pct / 2 columns, rounded half up, in a HISTOGRAM_SCALE-wide frame.
# Dicts, not tuples, so that a percent outside 0..100 raises KeyError.
_POS_BARS = {
    pct: f" + [{'+' * ((pct + 1) // 2):<{HISTOGRAM_SCALE}}] {pct:>3}%\n" for pct in range(101)
}
_NEG_BARS = {
    pct: f" - [{'-' * ((pct + 1) // 2):<{HISTOGRAM_SCALE}}] {pct:>3}%\n" for pct in range(101)
}


def _render_histogram(summary: Summary) -> str:
    """Two rows per group; a percent outside 0..100 raises KeyError."""
    width = max([len("overall")] + [len(g.label) for g in summary.groups])
    pad = " " * width
    parts = [
        f"{'overall'.ljust(width)}{_POS_BARS[summary.positive_pct]}"
        f"{pad}{_NEG_BARS[summary.negative_pct]}"
    ]
    for group in summary.groups:
        pos_pct, neg_pct = _percentages(group.positive_count, group.negative_count)
        parts.append(f"{group.label.ljust(width)}{_POS_BARS[pos_pct]}{pad}{_NEG_BARS[neg_pct]}")
    return "".join(parts)


def render(summary: Summary, format: str = "text") -> str:
    """Render the summary; every format ends with one trailing newline."""
    if format == "text":
        return _render_text(summary)
    if format == "machine":
        return _render_machine(summary)
    if format == "histogram":
        return _render_histogram(summary)
    raise ValueError(f"unknown format {format!r}; expected one of {', '.join(FORMATS)}")

"""Pros/cons summary assembly and rendering.

Three renderings share one Summary value: a human-readable text report,
a line-oriented machine format for external tooling, and an ASCII
histogram of positive versus negative opinion shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .grouping import AspectGroup
from .lexicons import NEGATIVE, POSITIVE
from .scoring import SentenceScore, rank_sentences
from .tagger import TaggedSentence

FORMATS = ("text", "machine", "histogram")

HISTOGRAM_SCALE = 50  # columns for a 100% bar


def _half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class SummaryEntry:
    sentence: TaggedSentence
    weight: int

    @property
    def text(self) -> str:
        return self.sentence.text()


@dataclass(frozen=True)
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
    """Integer percents; negative is the complement so they sum to 100."""
    total = positive + negative
    if total == 0:
        return 0, 0
    pos = _half_up(100.0 * positive / total)
    return pos, 100 - pos


def _top_entries(
    sentences: list[TaggedSentence],
    scores: Mapping[TaggedSentence, SentenceScore],
    top_k: int,
) -> tuple[SummaryEntry, ...]:
    """A nonempty side's entries; one sentence needs no ranking."""
    if len(sentences) > 1:
        sentences = rank_sentences(sentences, scores, top_k)
    return tuple([SummaryEntry(s, scores[s].total) for s in sentences])


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
    rendered: list[SummaryGroup] = []
    # one walk per group: each pair's sentence, listed under its polarity
    split = []
    for group in groups:
        pos_sents: list[TaggedSentence] = []
        neg_sents: list[TaggedSentence] = []
        for p in group.pairs:
            if p.orientation == POSITIVE:
                pos_sents.append(p.sentence)
            elif p.orientation == NEGATIVE:
                neg_sents.append(p.sentence)
        split.append((group, pos_sents, neg_sents))
    split.sort(key=lambda c: (-(len(c[1]) + len(c[2])), c[0].canonical_label))
    for group, pos_sents, neg_sents in split:
        rendered.append(
            SummaryGroup(
                label=group.canonical_label,
                positive_count=len(pos_sents),
                negative_count=len(neg_sents),
                pros=_top_entries(pos_sents, scores, top_k) if pos_sents else (),
                cons=_top_entries(neg_sents, scores, top_k) if neg_sents else (),
            )
        )
    positive_total = sum(g.positive_count for g in rendered)
    negative_total = sum(g.negative_count for g in rendered)
    pos_pct, neg_pct = _percentages(positive_total, negative_total)
    return Summary(
        product_name=product_name,
        groups=tuple(rendered),
        positive_total=positive_total,
        negative_total=negative_total,
        positive_pct=pos_pct,
        negative_pct=neg_pct,
    )


def _render_text(summary: Summary) -> str:
    lines = [f"pros and cons: {summary.product_name or 'reviews'}"]
    lines.append(
        f"opinions: {summary.total} "
        f"({summary.positive_pct}% positive, {summary.negative_pct}% negative)"
    )
    for group in summary.groups:
        lines.append("")
        lines.append(
            f"{group.label} "
            f"({group.positive_count} positive, {group.negative_count} negative)"
        )
        lines.append("  pros:")
        if group.pros:
            lines.extend(f"    [{e.weight}] {e.text}" for e in group.pros)
        else:
            lines.append("    (none)")
        lines.append("  cons:")
        if group.cons:
            lines.extend(f"    [{e.weight}] {e.text}" for e in group.cons)
        else:
            lines.append("    (none)")
    return "\n".join(lines) + "\n"


def _render_machine(summary: Summary) -> str:
    lines = [
        "summary\t{}\t{}\t{}\t{}".format(
            summary.product_name or "reviews",
            summary.total,
            summary.positive_pct,
            summary.negative_pct,
        )
    ]
    for group in summary.groups:
        lines.append(
            f"group\t{group.label}\t{group.positive_count}\t{group.negative_count}"
        )
    for group in summary.groups:
        for entry in group.pros:
            lines.append(
                f"sentence\t{group.label}\tpositive\t{entry.weight}\t{entry.text}"
            )
        for entry in group.cons:
            lines.append(
                f"sentence\t{group.label}\tnegative\t{entry.weight}\t{entry.text}"
            )
    return "\n".join(lines) + "\n"


def _bar_pair(label: str, pos_pct: int, neg_pct: int, width: int) -> list[str]:
    # (pct + 1) // 2 is pct / 2 rounded half up, for integer pct
    pos_bar = "+" * ((pos_pct + 1) // 2)
    neg_bar = "-" * ((neg_pct + 1) // 2)
    return [
        f"{label:<{width}} + [{pos_bar:<{HISTOGRAM_SCALE}}] {pos_pct:>3}%",
        f"{'':<{width}} - [{neg_bar:<{HISTOGRAM_SCALE}}] {neg_pct:>3}%",
    ]


def _render_histogram(summary: Summary) -> str:
    width = max([len("overall")] + [len(g.label) for g in summary.groups])
    lines = _bar_pair("overall", summary.positive_pct, summary.negative_pct, width)
    for group in summary.groups:
        pos_pct, neg_pct = _percentages(group.positive_count, group.negative_count)
        lines.extend(_bar_pair(group.label, pos_pct, neg_pct, width))
    return "\n".join(lines) + "\n"


def render(summary: Summary, format: str = "text") -> str:
    """Render the summary; every format ends with one trailing newline."""
    if format == "text":
        return _render_text(summary)
    if format == "machine":
        return _render_machine(summary)
    if format == "histogram":
        return _render_histogram(summary)
    raise ValueError(f"unknown format {format!r}; expected one of {', '.join(FORMATS)}")

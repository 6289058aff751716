"""Tests for summary assembly and the three output formats.

Oracles kept here, each the code the current one replaced:

* ``ranked_summary``: ``generate_summary`` when every pros/cons list went
  through ranking, compared on random groups and weights with the one
  that ranks only lists of two or more sentences.
* ``_render_text``, ``_render_machine``, ``_render_histogram`` and
  ``_float_percentages``: the renders before the bar tables and the
  one-string-per-group output, and the float half-up percentages.
  ``render`` is compared with them on random summaries (empty and very
  wide labels, 0, 50 and 100 percent, negative weights, empty pros or
  cons, no groups), and ``_percentages`` on every count pair up to a
  total of 1,000.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectminer.grouping import AspectGroup
from aspectminer.lexicons import NEGATIVE, POSITIVE, VerbCategoryLexicon
from aspectminer.patterns import AspectOpinionPair
from aspectminer.scoring import SentenceScore, rank_sentences, score_sentences
from aspectminer.summary import (
    FORMATS,
    HISTOGRAM_SCALE,
    Summary,
    SummaryGroup,
    _percentages,
    generate_summary,
    render,
)
from aspectminer.tagger import TaggedSentence, parse_pretagged

NO_VERBS = VerbCategoryLexicon()


def sent(pretagged, position=0):
    return parse_pretagged(pretagged, position=position)


def pair(aspect, orientation, sentence):
    return AspectOpinionPair(
        aspect_surface=aspect,
        opinion_surface="x",
        orientation=orientation,
        sentence=sentence,
        aspect_index=0,
        opinion_index=1,
        pattern_name="test",
        aspect_end=1,
    )


def group_of(label, pairs):
    return AspectGroup(canonical_label=label, pairs=tuple(pairs))


class TestPercentages:
    def test_simple_shares(self):
        assert _percentages(17, 6) == (74, 26)
        assert _percentages(2, 1) == (67, 33)
        assert _percentages(1, 3) == (25, 75)
        assert _percentages(1, 1) == (50, 50)

    def test_all_one_side(self):
        assert _percentages(5, 0) == (100, 0)
        assert _percentages(0, 5) == (0, 100)

    def test_zero_total(self):
        assert _percentages(0, 0) == (0, 0)

    def test_halves_round_up_and_complement(self):
        # 100*1/200 = 0.5 rounds to 1; the complement keeps the sum at 100
        assert _percentages(1, 199) == (1, 99)
        assert _percentages(199, 1) == (100, 0)

    def test_sum_is_always_100(self):
        for p in range(0, 12):
            for n in range(0, 12):
                if p + n == 0:
                    continue
                a, b = _percentages(p, n)
                assert a + b == 100


class TestGenerateSummary:
    def build(self):
        s_pos = sent("the/DT sound/NN is/VBZ wonderful/JJ ./.", position=0)
        s_neg = sent("the/DT sound/NN is/VBZ awful/JJ ./.", position=1)
        s_scr = sent("the/DT screen/NN is/VBZ very/RB nice/JJ ./.", position=2)
        groups = [
            group_of("screen", [pair("screen", "positive", s_scr)]),
            group_of(
                "sound",
                [
                    pair("sound", "positive", s_pos),
                    pair("sound", "positive", s_pos),
                    pair("sound", "negative", s_neg),
                ],
            ),
        ]
        scores = score_sentences([s_pos, s_neg, s_scr], NO_VERBS)
        return groups, scores, (s_pos, s_neg, s_scr)

    def test_totals_and_percentages(self):
        groups, scores, _ = self.build()
        summary = generate_summary(groups, scores, top_k=3, product_name="player")
        assert summary.positive_total == 3
        assert summary.negative_total == 1
        assert summary.total == 4
        assert (summary.positive_pct, summary.negative_pct) == (75, 25)
        assert summary.product_name == "player"

    def test_groups_ordered_by_total_then_label(self):
        groups, scores, _ = self.build()
        summary = generate_summary(groups, scores, top_k=3)
        assert [g.label for g in summary.groups] == ["sound", "screen"]

    def test_label_tiebreak(self):
        s = sent("nice/JJ thing/NN ./.")
        groups = [
            group_of("zoom", [pair("zoom", "positive", s)]),
            group_of("battery", [pair("battery", "positive", s)]),
        ]
        scores = score_sentences([s], NO_VERBS)
        summary = generate_summary(groups, scores, top_k=1)
        assert [g.label for g in summary.groups] == ["battery", "zoom"]

    def test_pros_and_cons_split_by_orientation(self):
        groups, scores, (s_pos, s_neg, _) = self.build()
        summary = generate_summary(groups, scores, top_k=3)
        sound = summary.groups[0]
        assert [e.sentence for e in sound.pros] == [s_pos]
        assert [e.sentence for e in sound.cons] == [s_neg]
        assert sound.positive_count == 2
        assert sound.negative_count == 1

    def test_entry_weight_is_sentence_weight(self):
        groups, scores, (_, _, s_scr) = self.build()
        summary = generate_summary(groups, scores, top_k=3)
        screen = summary.groups[1]
        # "very" RB + "nice" JJ
        assert screen.pros[0].total == 2

    def test_top_k_limits_each_list(self):
        sents = [
            sent("nice/JJ sound/NN ./.", position=i) for i in range(5)
        ]
        groups = [group_of("sound", [pair("sound", "positive", s) for s in sents])]
        scores = score_sentences(sents, NO_VERBS)
        summary = generate_summary(groups, scores, top_k=2)
        assert len(summary.groups[0].pros) == 2

    def test_sentence_with_both_polarities_in_both_lists(self):
        s = sent("good/JJ sound/NN bad/JJ price/NN ./.")
        groups = [
            group_of(
                "sound",
                [pair("sound", "positive", s), pair("sound", "negative", s)],
            )
        ]
        scores = score_sentences([s], NO_VERBS)
        summary = generate_summary(groups, scores, top_k=3)
        g = summary.groups[0]
        assert [e.sentence for e in g.pros] == [s]
        assert [e.sentence for e in g.cons] == [s]

    def test_top_k_validated(self):
        with pytest.raises(ValueError):
            generate_summary([], {}, top_k=0)

    def test_empty_groups(self):
        summary = generate_summary([], {}, top_k=3)
        assert summary.total == 0
        assert summary.groups == ()
        assert (summary.positive_pct, summary.negative_pct) == (0, 0)


class TestTextFormat:
    def test_exact_rendering(self):
        s = sent("the/DT sound/NN is/VBZ wonderful/JJ ./.")
        entry = SentenceScore(s, 1, 0)
        summary = Summary(
            product_name="mp3 player",
            groups=(
                SummaryGroup(
                    label="sound",
                    positive_count=2,
                    negative_count=1,
                    pros=(entry,),
                    cons=(),
                ),
            ),
            positive_total=2,
            negative_total=1,
            positive_pct=67,
            negative_pct=33,
        )
        assert render(summary, "text") == (
            "pros and cons: mp3 player\n"
            "opinions: 3 (67% positive, 33% negative)\n"
            "\n"
            "sound (2 positive, 1 negative)\n"
            "  pros:\n"
            "    [1] the sound is wonderful .\n"
            "  cons:\n"
            "    (none)\n"
        )

    def test_default_product_name(self):
        summary = Summary(
            product_name="",
            groups=(),
            positive_total=0,
            negative_total=0,
            positive_pct=0,
            negative_pct=0,
        )
        text = render(summary, "text")
        assert text.startswith("pros and cons: reviews\n")


class TestMachineFormat:
    def test_exact_rendering(self):
        s1 = sent("great/JJ sound/NN ./.")
        s2 = sent("bad/JJ sound/NN ./.")
        summary = Summary(
            product_name="mp3 player",
            groups=(
                SummaryGroup(
                    label="sound",
                    positive_count=1,
                    negative_count=1,
                    pros=(SentenceScore(s1, 1, 0),),
                    cons=(SentenceScore(s2, 1, 0),),
                ),
            ),
            positive_total=1,
            negative_total=1,
            positive_pct=50,
            negative_pct=50,
        )
        assert render(summary, "machine") == (
            "summary\tmp3 player\t2\t50\t50\n"
            "group\tsound\t1\t1\n"
            "sentence\tsound\tpositive\t1\tgreat sound .\n"
            "sentence\tsound\tnegative\t1\tbad sound .\n"
        )

    def test_empty_summary_is_header_only(self):
        summary = Summary(
            product_name="",
            groups=(),
            positive_total=0,
            negative_total=0,
            positive_pct=0,
            negative_pct=0,
        )
        assert render(summary, "machine") == "summary\treviews\t0\t0\t0\n"

    def test_group_lines_precede_sentence_lines(self):
        s = sent("ok/JJ zoom/NN ./.")
        summary = Summary(
            product_name="cam",
            groups=(
                SummaryGroup(
                    label="a",
                    positive_count=1,
                    negative_count=0,
                    pros=(SentenceScore(s, 1, 0),),
                    cons=(),
                ),
                SummaryGroup(
                    label="b",
                    positive_count=0,
                    negative_count=1,
                    pros=(),
                    cons=(SentenceScore(s, 1, 0),),
                ),
            ),
            positive_total=1,
            negative_total=1,
            positive_pct=50,
            negative_pct=50,
        )
        kinds = [line.split("\t")[0] for line in render(summary, "machine").splitlines()]
        assert kinds == ["summary", "group", "group", "sentence", "sentence"]


class TestHistogramFormat:
    def test_exact_rendering(self):
        summary = Summary(
            product_name="player",
            groups=(
                SummaryGroup(
                    label="sound",
                    positive_count=2,
                    negative_count=1,
                    pros=(),
                    cons=(),
                ),
            ),
            positive_total=2,
            negative_total=1,
            positive_pct=67,
            negative_pct=33,
        )
        # 67% -> 34 plus signs, 33% -> 17 minus signs, label column 7 wide
        expected = (
            f"overall + [{'+' * 34:<50}]  67%\n"
            f"        - [{'-' * 17:<50}]  33%\n"
            f"sound   + [{'+' * 34:<50}]  67%\n"
            f"        - [{'-' * 17:<50}]  33%\n"
        )
        assert render(summary, "histogram") == expected

    def test_bar_lengths_bounded_by_scale(self):
        summary = Summary(
            product_name="",
            groups=(),
            positive_total=10,
            negative_total=0,
            positive_pct=100,
            negative_pct=0,
        )
        out = render(summary, "histogram")
        bar = out.splitlines()[0].split("[")[1].split("]")[0]
        assert len(bar) == HISTOGRAM_SCALE
        assert bar == "+" * 50

    @pytest.mark.parametrize("pct", [-1, 101])
    def test_percent_outside_0_to_100_is_refused(self, pct):
        summary = Summary("", (), 1, 0, pct, 0)
        with pytest.raises(KeyError):
            render(summary, "histogram")

    def test_label_column_width_follows_longest_label(self):
        summary = Summary(
            product_name="",
            groups=(
                SummaryGroup(
                    label="battery charger",
                    positive_count=1,
                    negative_count=0,
                    pros=(),
                    cons=(),
                ),
            ),
            positive_total=1,
            negative_total=0,
            positive_pct=100,
            negative_pct=0,
        )
        lines = render(summary, "histogram").splitlines()
        assert lines[0].startswith("overall         + [")
        assert lines[2].startswith("battery charger + [")


class TestRenderDispatch:
    def test_formats_tuple(self):
        assert FORMATS == ("text", "machine", "histogram")

    def test_unknown_format(self):
        summary = Summary(
            product_name="",
            groups=(),
            positive_total=0,
            negative_total=0,
            positive_pct=0,
            negative_pct=0,
        )
        with pytest.raises(ValueError):
            render(summary, "json")

    def test_every_format_ends_with_newline(self):
        summary = Summary(
            product_name="p",
            groups=(),
            positive_total=1,
            negative_total=1,
            positive_pct=50,
            negative_pct=50,
        )
        for fmt in FORMATS:
            out = render(summary, fmt)
            assert out.endswith("\n")
            assert not out.endswith("\n\n")


def ranked_summary(groups, scores, top_k, product_name=""):
    """Reference summary that sends every pros/cons list through ranking.

    This is ``generate_summary`` as it was before lists of 0 or 1
    sentences skipped ``rank_sentences``; it is kept here only to check
    that the shortcut gives the same summary.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    split = []
    for group in groups:
        pos_sents = [p.sentence for p in group.pairs if p.orientation == POSITIVE]
        neg_sents = [p.sentence for p in group.pairs if p.orientation == NEGATIVE]
        split.append((group, pos_sents, neg_sents))
    split.sort(key=lambda c: (-(len(c[1]) + len(c[2])), c[0].canonical_label))
    rendered = tuple(
        SummaryGroup(
            label=group.canonical_label,
            positive_count=len(pos_sents),
            negative_count=len(neg_sents),
            pros=tuple(scores[s] for s in rank_sentences(pos_sents, scores, top_k)),
            cons=tuple(scores[s] for s in rank_sentences(neg_sents, scores, top_k)),
        )
        for group, pos_sents, neg_sents in split
    )
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


# Weights from a range of three, so that many sentences tie and rank by position.
WEIGHTS = st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=6)
# Each group's pairs as (sentence index, orientation); drawing one index
# twice under one orientation repeats a sentence within one side.
GROUPS = st.lists(
    st.tuples(
        st.sampled_from(["battery", "price", "screen", "sound"]),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=5), st.sampled_from([POSITIVE, NEGATIVE])),
            max_size=6,
        ),
    ),
    max_size=6,
)


class TestShortListsAgainstRankingOracle:
    @given(WEIGHTS, GROUPS, st.integers(min_value=1, max_value=4))
    @settings(max_examples=400, deadline=None)
    def test_summary_equals_oracle(self, weights, drawn, top_k):
        sentences = [
            TaggedSentence(surfaces=(f"s{i}",), tags=("NN",), position=i)
            for i in range(len(weights))
        ]
        scores = {s: SentenceScore(s, w, 0) for s, w in zip(sentences, weights)}
        groups = [
            group_of(
                label,
                [
                    pair(label, orientation, sentences[i % len(sentences)])
                    for i, orientation in pairs
                ],
            )
            for label, pairs in drawn
        ]
        assert generate_summary(groups, scores, top_k, "p") == ranked_summary(
            groups, scores, top_k, "p"
        )

    @pytest.mark.parametrize("count", [1, 2])
    def test_unscored_sentence_raises_key_error(self, count):
        s = sent("nice/JJ sound/NN ./.")
        groups = [group_of("sound", [pair("sound", "positive", s)] * count)]
        for build in (generate_summary, ranked_summary):
            with pytest.raises(KeyError):
                build(groups, {}, top_k=3)

    def test_bar_pair_equals_float_halving(self):
        def float_halving(label, pos_pct, neg_pct, width):
            pos_bar = "+" * _half_up(pos_pct / 2)
            neg_bar = "-" * _half_up(neg_pct / 2)
            return [
                f"{label:<{width}} + [{pos_bar:<{HISTOGRAM_SCALE}}] {pos_pct:>3}%",
                f"{'':<{width}} - [{neg_bar:<{HISTOGRAM_SCALE}}] {neg_pct:>3}%",
            ]

        for pos in range(101):
            assert _bar_pair("sound", pos, 100 - pos, 7) == float_halving(
                "sound", pos, 100 - pos, 7
            )
            # the group's counts give it the same share as the overall row
            group = SummaryGroup("sound", pos, 100 - pos, (), ())
            summary = Summary("", (group,), 0, 0, pos, 100 - pos)
            assert render(summary, "histogram").splitlines() == float_halving(
                "overall", pos, 100 - pos, 7
            ) + float_halving("sound", pos, 100 - pos, 7)


# The renders and percentages as they were before the bar tables and
# one-string-per-group renders; kept here only as oracles for ``render``
# and ``_percentages``.


def _half_up(x):
    return int(math.floor(x + 0.5))


def _float_percentages(positive, negative):
    total = positive + negative
    if total == 0:
        return 0, 0
    pos = _half_up(100.0 * positive / total)
    return pos, 100 - pos


def _render_text(summary):
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
            lines.extend(f"    [{e.total}] {e.sentence.text()}" for e in group.pros)
        else:
            lines.append("    (none)")
        lines.append("  cons:")
        if group.cons:
            lines.extend(f"    [{e.total}] {e.sentence.text()}" for e in group.cons)
        else:
            lines.append("    (none)")
    return "\n".join(lines) + "\n"


def _render_machine(summary):
    # free text with each whitespace run as one space, so a row stays one line
    def one_line(text):
        chars, after_space = [], False
        for ch in text:
            if not (ch.isspace() and after_space):
                chars.append(" " if ch.isspace() else ch)
            after_space = ch.isspace()
        return "".join(chars)

    lines = [
        "summary\t{}\t{}\t{}\t{}".format(
            one_line(summary.product_name or "reviews"),
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
                f"sentence\t{group.label}\tpositive\t{entry.total}\t"
                f"{one_line(entry.sentence.text())}"
            )
        for entry in group.cons:
            lines.append(
                f"sentence\t{group.label}\tnegative\t{entry.total}\t"
                f"{one_line(entry.sentence.text())}"
            )
    return "\n".join(lines) + "\n"


def _bar_pair(label, pos_pct, neg_pct, width):
    # (pct + 1) // 2 is pct / 2 rounded half up, for integer pct
    pos_bar = "+" * ((pos_pct + 1) // 2)
    neg_bar = "-" * ((neg_pct + 1) // 2)
    return [
        f"{label:<{width}} + [{pos_bar:<{HISTOGRAM_SCALE}}] {pos_pct:>3}%",
        f"{'':<{width}} - [{neg_bar:<{HISTOGRAM_SCALE}}] {neg_pct:>3}%",
    ]


def _render_histogram(summary):
    width = max([len("overall")] + [len(g.label) for g in summary.groups])
    lines = _bar_pair("overall", summary.positive_pct, summary.negative_pct, width)
    for group in summary.groups:
        pos_pct, neg_pct = _float_percentages(group.positive_count, group.negative_count)
        lines.extend(_bar_pair(group.label, pos_pct, neg_pct, width))
    return "\n".join(lines) + "\n"


ORACLES = {"text": _render_text, "machine": _render_machine, "histogram": _render_histogram}

# Empty, one-character and very wide labels and names
LABELS = st.sampled_from(["", "x", "sound", "w" * 120]) | st.text(max_size=12)
PERCENTS = st.sampled_from([0, 50, 100]) | st.integers(min_value=0, max_value=100)
COUNTS = st.sampled_from([0, 1, 2]) | st.integers(min_value=0, max_value=500)
ENTRIES = st.lists(
    st.builds(
        SentenceScore,
        st.builds(
            TaggedSentence,
            st.lists(st.text(max_size=6), max_size=4).map(tuple),
            st.just(()),
        ),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=-20, max_value=20),
    ),
    max_size=3,
).map(tuple)
SUMMARIES = st.builds(
    Summary,
    LABELS,
    st.lists(
        st.builds(SummaryGroup, LABELS, COUNTS, COUNTS, ENTRIES, ENTRIES), max_size=5
    ).map(tuple),
    COUNTS,
    COUNTS,
    PERCENTS,
    PERCENTS,
)


class TestRendersAgainstOracles:
    @given(SUMMARIES)
    @settings(max_examples=300, deadline=None)
    def test_render_equals_oracle(self, summary):
        for fmt in FORMATS:
            assert render(summary, fmt) == ORACLES[fmt](summary)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_no_groups(self, fmt):
        for pos, neg in ((0, 0), (0, 100), (50, 50), (100, 0)):
            summary = Summary("", (), pos + neg, 0, pos, neg)
            assert render(summary, fmt) == ORACLES[fmt](summary)

    def test_integer_percentages_equal_float_half_up(self):
        for total in range(1, 1_001):
            for positive in range(total + 1):
                assert _percentages(positive, total - positive) == _float_percentages(
                    positive, total - positive
                )
        assert _percentages(0, 0) == _float_percentages(0, 0)

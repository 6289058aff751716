"""Tests for summary assembly and the three output formats."""

import pytest

from aspectminer.grouping import AspectGroup
from aspectminer.lexicons import VerbCategoryLexicon
from aspectminer.patterns import AspectOpinionPair
from aspectminer.scoring import score_sentences
from aspectminer.summary import (
    FORMATS,
    HISTOGRAM_SCALE,
    Summary,
    SummaryEntry,
    SummaryGroup,
    _percentages,
    generate_summary,
    render,
)
from aspectminer.tagger import parse_pretagged

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
    return AspectGroup(
        canonical_label=label,
        members=frozenset({label}),
        pairs=tuple(pairs),
    )


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
        assert screen.pros[0].weight == 2

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
        entry = SummaryEntry(sentence=s, weight=1)
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
                    pros=(SummaryEntry(sentence=s1, weight=1),),
                    cons=(SummaryEntry(sentence=s2, weight=1),),
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
                    pros=(SummaryEntry(sentence=s, weight=1),),
                    cons=(),
                ),
                SummaryGroup(
                    label="b",
                    positive_count=0,
                    negative_count=1,
                    pros=(),
                    cons=(SummaryEntry(sentence=s, weight=1),),
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

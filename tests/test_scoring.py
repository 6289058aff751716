"""Tests for sentence weighting, verb base forms, and top-k selection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectminer.grouping import AspectGroup
from aspectminer.lexicons import VerbCategoryLexicon
from aspectminer.patterns import AspectOpinionPair
from aspectminer.scoring import (
    TAG_WEIGHTS,
    SentenceScore,
    rank_sentences,
    score_sentences,
    weight_sentence,
)
from aspectminer.tagger import TaggedSentence, base_form_candidates, parse_pretagged

NO_VERBS = VerbCategoryLexicon()


def sent(pretagged, position=0):
    return parse_pretagged(pretagged, position=position)


class TestBaseFormCandidates:
    def test_word_itself_first(self):
        assert base_form_candidates("warn")[0] == "warn"

    def test_third_person_s(self):
        assert "warn" in base_form_candidates("warns")
        assert "advise" in base_form_candidates("advises")

    def test_ies(self):
        assert "carry" in base_form_candidates("carries")

    def test_ed_with_e_restore(self):
        assert "advise" in base_form_candidates("advised")
        assert "warn" in base_form_candidates("warned")

    def test_ied_to_y(self):
        assert "carry" in base_form_candidates("carried")

    def test_ing_with_e_restore(self):
        assert "advise" in base_form_candidates("advising")
        assert "warn" in base_form_candidates("warning")

    def test_consonant_doubling_undone(self):
        assert "stop" in base_form_candidates("stopped")
        assert "chat" in base_form_candidates("chatting")

    def test_double_s_not_stripped(self):
        candidates = base_form_candidates("miss")
        assert "mis" not in candidates

    def test_lowercases(self):
        assert base_form_candidates("Warned")[0] == "warned"

    def test_no_duplicates(self):
        for word in ("advised", "stopped", "carries", "warning"):
            candidates = base_form_candidates(word)
            assert len(candidates) == len(set(candidates))


class TestWeightSentence:
    def test_tag_weights(self):
        assert TAG_WEIGHTS == {"JJ": 1, "JJR": 2, "JJS": 3, "RB": 1, "RBR": 2, "RBS": 3}
        for tag in ("NN", "VBD"):
            assert weight_sentence(sent(f"x/{tag}"), NO_VERBS).total == 0

    def test_adjective_counts_one(self):
        score = weight_sentence(
            sent("the/DT sound/NN is/VBZ wonderful/JJ ./."), NO_VERBS
        )
        assert score.adjective_adverb_points == 1
        assert score.verb_points == 0
        assert score.total == 1

    def test_comparative_and_superlative(self):
        assert weight_sentence(
            sent("this/DT is/VBZ better/JJR ./."), NO_VERBS
        ).total == 2
        assert weight_sentence(
            sent("this/DT is/VBZ the/DT best/JJS one/CD ./."), NO_VERBS
        ).total == 3

    def test_adverb_scale(self):
        assert weight_sentence(
            sent("it/PRP runs/VBZ smoothly/RB ./."), NO_VERBS
        ).total == 1
        assert weight_sentence(
            sent("it/PRP runs/VBZ more/RBR smoothly/RB ./."), NO_VERBS
        ).total == 3

    def test_points_add_up(self):
        # two JJ at 1 plus one RB at 1
        score = weight_sentence(
            sent("a/DT really/RB nice/JJ little/JJ player/NN ./."),
            NO_VERBS,
        )
        assert score.adjective_adverb_points == 3

    def test_reference_phrase_weighs_two(self):
        # "very" (RB) and "comfortable" (JJ) contribute one point each
        score = weight_sentence(
            sent("the/DT earpiece/NN is/VBZ very/RB comfortable/JJ ./."),
            NO_VERBS,
        )
        assert score.total == 2

    def test_reinforcing_verb_adds_one(self):
        verbs = VerbCategoryLexicon(orientations={"recommend": 1})
        score = weight_sentence(
            sent("i/PRP recommend/VBP it/PRP ./."), verbs
        )
        assert score.verb_points == 1
        assert score.adjective_adverb_points == 0

    def test_weakening_verb_subtracts_one(self):
        verbs = VerbCategoryLexicon(orientations={"warn": -1})
        score = weight_sentence(
            sent("i/PRP must/MD warn/VB you/PRP ./."), verbs
        )
        assert score.verb_points == -1

    def test_inflected_verb_matches_category(self):
        verbs = VerbCategoryLexicon(orientations={"warn": -1})
        for form, tag in (("warns", "VBZ"), ("warned", "VBD"), ("warning", "VBG")):
            score = weight_sentence(
                sent(f"he/PRP {form}/{tag} us/PRP ./."), verbs
            )
            assert score.verb_points == -1, form

    def test_category_word_outside_verb_tag_ignored(self):
        verbs = VerbCategoryLexicon(orientations={"warning": -1})
        score = weight_sentence(
            sent("a/DT warning/NN label/NN ./."), verbs
        )
        assert score.verb_points == 0

    def test_one_point_per_verb_hit(self):
        verbs = VerbCategoryLexicon(orientations={"recommend": 1, "advise": 1})
        score = weight_sentence(
            sent("i/PRP recommend/VBP and/CC advise/VBP it/PRP ./."),
            verbs,
        )
        assert score.verb_points == 2

    def test_empty_sentence(self):
        from aspectminer.tagger import TaggedSentence

        score = weight_sentence(TaggedSentence(), NO_VERBS)
        assert score.total == 0


class TestRanking:
    def make_scored(self):
        sentences = [
            sent("plain/JJ text/NN ./.", position=0),               # 1
            sent("the/DT best/JJS sound/NN ever/RB ./.", position=1),  # 4
            sent("a/DT better/JJR price/NN ./.", position=2),       # 2
            sent("it/PRP works/VBZ ./.", position=3),               # 0
        ]
        scores = score_sentences(sentences, NO_VERBS)
        return sentences, scores

    def test_orders_by_total_descending(self):
        sentences, scores = self.make_scored()
        top = rank_sentences(sentences, scores, k=4)
        assert [scores[s].total for s in top] == [4, 2, 1, 0]

    def test_k_truncates(self):
        sentences, scores = self.make_scored()
        top = rank_sentences(sentences, scores, k=2)
        assert len(top) == 2
        assert scores[top[0]].total == 4

    def test_k_beyond_population(self):
        sentences, scores = self.make_scored()
        assert len(rank_sentences(sentences, scores, k=99)) == 4

    def test_k_must_be_positive(self):
        sentences, scores = self.make_scored()
        with pytest.raises(ValueError):
            rank_sentences(sentences, scores, k=0)

    def test_ties_broken_by_position(self):
        a = sent("nice/JJ sound/NN ./.", position=5)
        b = sent("good/JJ price/NN ./.", position=2)
        scores = score_sentences([a, b], NO_VERBS)
        top = rank_sentences([a, b], scores, k=2)
        assert top == [b, a]

    def test_duplicates_collapsed(self):
        a = sent("nice/JJ sound/NN ./.", position=0)
        scores = score_sentences([a], NO_VERBS)
        assert rank_sentences([a, a, a], scores, k=3) == [a]

    @given(
        st.lists(st.tuples(st.integers(0, 30), st.integers(-3, 3)), max_size=25),
        st.integers(1, 30),
    )
    @settings(max_examples=200, deadline=None)
    def test_top_k_equals_full_sort_prefix(self, drawn, k):
        # Repeated positions and totals, so ties on both keys are common.
        scores = {}
        for i, (position, total) in enumerate(drawn):
            s = TaggedSentence(surfaces=(f"w{i}",), tags=("NN",), position=position)
            scores[s] = SentenceScore(s, total, 0)
        sentences = list(scores)
        ranked = sorted(set(sentences), key=lambda s: (-scores[s].total, s.position))
        assert rank_sentences(sentences, scores, k) == ranked[:k]

    def test_rank_sentences_of_group(self):
        strong = sent("the/DT best/JJS sound/NN ./.", position=0)
        weak = sent("nice/JJ sound/NN ./.", position=1)
        scores = score_sentences([strong, weak], NO_VERBS)

        def mk(sentence):
            return AspectOpinionPair(
                aspect_surface="sound",
                opinion_surface="x",
                orientation="positive",
                sentence=sentence,
                aspect_index=0,
                opinion_index=1,
                pattern_name="test",
                aspect_end=1,
            )

        group = AspectGroup(canonical_label="sound", pairs=(mk(strong), mk(weak), mk(weak)))
        group_sentences = {p.sentence for p in group.pairs}
        top = rank_sentences(group_sentences, scores, k=1)
        assert top == [strong]
        both = rank_sentences(group_sentences, scores, k=5)
        assert both == [strong, weak]


class TestSentenceScoreValue:
    def test_total_property(self):
        s = sent("x/NN ./.")
        score = SentenceScore(sentence=s, adjective_adverb_points=3, verb_points=-1)
        assert score.total == 2

"""Tests for aspect grouping by head key."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectminer.grouping import AspectGroup, group_aspects, head_key
from aspectminer.lexicons import AspectDictionary
from aspectminer.patterns import AspectOpinionPair
from aspectminer.pipeline import extract_corpus, tag_corpus
from aspectminer.tagger import TaggedSentence


def pair(aspect, opinion="good", orientation="positive", position=0):
    return AspectOpinionPair(
        aspect_surface=aspect,
        opinion_surface=opinion,
        orientation=orientation,
        sentence=TaggedSentence(position=position),
        aspect_index=0,
        opinion_index=1,
        pattern_name="test",
        aspect_end=1,
    )


def surfaces_of(group):
    """The distinct aspect surfaces of a group's pairs."""
    return {p.aspect_surface for p in group.pairs}


class TestHeadKey:
    def test_first_word_default(self):
        assert head_key("battery life") == "battery"
        assert head_key("Battery") == "battery"

    def test_plural_strip(self):
        assert head_key("batteries") == "batterie"  # naive strip, by design
        assert head_key("pictures") == "picture"
        assert head_key("transfers") == "transfer"

    def test_short_words_not_stripped(self):
        assert head_key("gas") == "gas"
        assert head_key("its") == "its"

    def test_double_s_not_stripped(self):
        assert head_key("glass") == "glass"

    def test_empty_term(self):
        assert head_key("") == ""
        assert head_key("   ") == ""


class TestGroupAspects:
    def test_singular_and_plural_merge(self):
        pairs = [pair("picture"), pair("pictures")]
        groups = group_aspects(pairs, AspectDictionary())
        assert len(groups) == 1
        assert surfaces_of(groups[0]) == {"picture", "pictures"}

    def test_head_word_merge(self):
        pairs = [pair("battery life"), pair("battery charger"), pair("battery")]
        groups = group_aspects(pairs, AspectDictionary())
        assert len(groups) == 1
        assert surfaces_of(groups[0]) == {"battery life", "battery charger", "battery"}

    def test_unrelated_surfaces_stay_apart(self):
        pairs = [pair("screen"), pair("sound")]
        groups = group_aspects(pairs, AspectDictionary())
        assert len(groups) == 2

    def test_label_prefers_shortest_canonical(self):
        d = AspectDictionary(
            entries={"battery": "battery", "battery life": "battery life"}
        )
        pairs = [pair("battery life"), pair("battery")]
        groups = group_aspects(pairs, d)
        assert len(groups) == 1
        assert groups[0].canonical_label == "battery"

    def test_label_falls_back_to_shortest_member(self):
        pairs = [pair("straps"), pair("strap pad"), pair("strap")]
        groups = group_aspects(pairs, AspectDictionary())
        assert [(g.canonical_label, surfaces_of(g)) for g in groups] == [
            ("strap", {"strap", "straps", "strap pad"})
        ]

    def test_label_prefers_a_dictionary_term_over_a_shorter_member(self):
        pairs = [pair("straps"), pair("strap pad"), pair("strap")]
        d = AspectDictionary(entries={"strap pad": "strap pad"})
        groups = group_aspects(pairs, d)
        assert [(g.canonical_label, surfaces_of(g)) for g in groups] == [
            ("strap pad", {"strap", "straps", "strap pad"})
        ]

    def test_pairs_preserved_and_counted(self):
        pairs = [
            pair("screen", "great", "positive"),
            pair("screen", "awful", "negative"),
            pair("screens", "big", "positive"),
        ]
        groups = group_aspects(pairs, AspectDictionary())
        assert len(groups) == 1
        g = groups[0]
        assert sorted(p.orientation for p in g.pairs) == ["negative", "positive", "positive"]

    def test_every_pair_lands_in_exactly_one_group(self):
        pairs = [
            pair("battery"),
            pair("battery life"),
            pair("sound"),
            pair("sound quality"),
            pair("screen"),
        ]
        groups = group_aspects(pairs, AspectDictionary())
        total = sum(len(g.pairs) for g in groups)
        assert total == len(pairs)
        all_members = [m for g in groups for m in surfaces_of(g)]
        assert len(all_members) == len(set(all_members))

    def test_groups_sorted_by_label(self):
        pairs = [pair("zoom"), pair("battery"), pair("screen")]
        groups = group_aspects(pairs, AspectDictionary())
        labels = [g.canonical_label for g in groups]
        assert labels == sorted(labels)

    def test_empty_input(self):
        assert group_aspects([], AspectDictionary()) == []

    def test_idempotent_on_labels(self):
        # regrouping the produced labels must not split or merge anything;
        # "audio" reaches grouping as its canonical "sound"
        d = AspectDictionary(
            entries={"sound": "sound", "audio": "sound", "screen": "screen"}
        )
        pairs = [pair("sound"), pair("sound quality"), pair("screens"), pair("screen")]
        first = group_aspects(pairs, d)
        assert [g.canonical_label for g in first] == ["screen", "sound"]
        relabeled = [pair(g.canonical_label) for g in first]
        second = group_aspects(relabeled, d)
        assert [g.canonical_label for g in second] == ["screen", "sound"]

    def test_group_is_value_object(self):
        g = AspectGroup(canonical_label="screen", pairs=())
        assert g.pairs == ()


def per_cluster_scan_groups(pairs, dictionary):
    """Reference grouping that rebuilds each group by scanning all pairs.

    This is the per-cluster pair filter ``group_aspects`` used before it
    assigned pairs to clusters in one pass, and its union-find over the
    head keys of each surface and of its canonical, from before surfaces
    arrived canonical from extraction; it is kept here only to check that
    the one-pass partition by head key gives the same groups.
    """

    def lookup(term):
        return dictionary.entries.get(" ".join(term.split()))

    surfaces = []
    seen = set()
    for p in pairs:
        s = p.aspect_surface.lower()
        if s not in seen:
            seen.add(s)
            surfaces.append(s)

    parent = {}

    def find(item):
        parent.setdefault(item, item)
        while parent[item] != item:
            item = parent[item]
        return item

    key_owner = {}
    for surface in surfaces:
        find(surface)
        keys = {head_key(surface)}
        canonical = lookup(surface)
        if canonical is not None:
            keys.add(head_key(canonical))
        keys.discard("")
        for k in keys:
            owner = key_owner.setdefault(k, surface)
            root_owner, root_surface = find(owner), find(surface)
            if root_owner != root_surface:
                parent[root_surface] = root_owner

    clusters = {}
    for surface in surfaces:
        clusters.setdefault(find(surface), []).append(surface)

    groups = []
    for members in clusters.values():
        member_set = frozenset(members)
        canonicals = sorted(
            {c for m in members if (c := lookup(m)) is not None},
            key=lambda c: (len(c), c),
        )
        if canonicals:
            label = canonicals[0]
        else:
            label = min(members, key=lambda m: (len(m), m))
        group_pairs = tuple(p for p in pairs if p.aspect_surface.lower() in member_set)
        groups.append(AspectGroup(canonical_label=label, pairs=group_pairs))
    groups.sort(key=lambda g: (g.canonical_label, sorted(surfaces_of(g))))
    return groups


# Surfaces that merge by plural strip and by shared head word, or through
# dictionary canonicals once extraction has canonicalized them; the entries
# map synonyms to canonicals.
DIFF_SURFACES = [
    "battery", "batteries", "Battery", "battery life", "life", "sound",
    "sound quality", "audio", "screen", "screens", "display", "price",
    "cost", "glass", "glasses", "size", "zoom",
]
DIFF_ENTRIES = [
    ("battery life", "battery life"), ("life", "battery life"), ("sound", "sound"),
    ("audio", "sound"), ("screen", "screen"), ("display", "screen"),
    ("price", "price"), ("cost", "price"),
]


def group_shape(groups):
    """Labels, surfaces and the identity and order of each group's pairs."""
    return [(g.canonical_label, surfaces_of(g), [id(p) for p in g.pairs]) for g in groups]


def closed_entries(drawn):
    """The drawn entries plus each drawn canonical as its own entry, as the
    loader builds a dictionary."""
    entries = dict(drawn)
    entries.update((canonical, canonical) for canonical in list(entries.values()))
    return entries


def as_extracted(surface, dictionary):
    """``surface`` as extraction writes it: lowercase, then canonical when
    it is a dictionary term."""
    surface = surface.lower()
    return dictionary.entries.get(surface, surface)


class TestOnePassGroupingAgainstScanOracle:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(DIFF_SURFACES), st.sampled_from(["positive", "negative"])
            ),
            max_size=25,
        ),
        st.sets(st.sampled_from(DIFF_ENTRIES)),
    )
    @settings(max_examples=400, deadline=None)
    def test_groups_equal_oracle(self, drawn, entries):
        d = AspectDictionary(entries=closed_entries(entries))
        pairs = [
            pair(as_extracted(surface, d), orientation=orientation, position=i)
            for i, (surface, orientation) in enumerate(drawn)
        ]
        assert group_shape(group_aspects(pairs, d)) == group_shape(
            per_cluster_scan_groups(pairs, d)
        )

    @pytest.mark.parametrize("tagging", ["pretagged", "baseline"])
    @pytest.mark.parametrize("sample", ["sample", "minieval"])
    def test_groups_equal_oracle_on_shipped_samples(self, request, resources, sample, tagging):
        corpus = request.getfixturevalue(f"{sample}_corpus")
        if tagging == "pretagged":
            tagged = request.getfixturevalue(f"{sample}_tagged")
        else:
            tagged = tag_corpus(corpus, resources.tagger())
        d = resources.aspect_dictionary
        for fallback in (True, False):
            for conjunction in (True, False):
                pairs = extract_corpus(
                    tagged, resources, fallback=fallback, conjunction=conjunction
                )
                assert pairs
                assert group_shape(group_aspects(pairs, d)) == group_shape(
                    per_cluster_scan_groups(pairs, d)
                )


class TestLabelsOrderTheGroups:
    @given(
        st.lists(st.sampled_from(DIFF_SURFACES), max_size=25),
        st.sets(st.sampled_from(DIFF_ENTRIES)),
    )
    @settings(max_examples=300, deadline=None)
    def test_labels_are_distinct_and_ascending(self, surfaces, entries):
        d = AspectDictionary(entries=closed_entries(entries))
        pairs = [pair(as_extracted(s, d), position=i) for i, s in enumerate(surfaces)]
        labels = [g.canonical_label for g in group_aspects(pairs, d)]
        assert labels == sorted(set(labels))

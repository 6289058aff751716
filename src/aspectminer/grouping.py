"""Grouping of extracted aspect surfaces into aspect groups.

Two surfaces land in the same group when they share a dictionary
canonical or when their head words match after a light plural strip.
Merging is transitive (union-find), so "battery life" and "battery
charger" pull "batteries" into the same group via the shared head.
"""

from __future__ import annotations

from ._records import record
from .lexicons import AspectDictionary
from .patterns import AspectOpinionPair


def head_key(term: str) -> str:
    """Grouping key: first word of the term, lowercased, plural-stripped."""
    words = term.lower().split()
    if not words:
        return ""
    word = words[0]
    if len(word) > 3 and word.endswith("s") and not word.endswith("ss"):
        word = word[:-1]
    return word


@record
class AspectGroup:
    """One group of co-referring aspect surfaces and their pairs."""

    canonical_label: str
    members: frozenset[str]
    pairs: tuple[AspectOpinionPair, ...]


def group_aspects(
    pairs: list[AspectOpinionPair],
    dictionary: AspectDictionary,
) -> list[AspectGroup]:
    """Partition pairs into groups by canonical identity and head words.

    Keys for a surface are its own head word plus, when the dictionary
    knows it, the head word of its canonical form, making the grouping
    stable when re-applied to already-canonicalized labels.
    """
    # distinct surfaces in first-seen order, each with its canonical
    canonical_of: dict[str, str | None] = {}
    lowered = [p.aspect_surface.lower() for p in pairs]
    for s in lowered:
        if s not in canonical_of:
            canonical_of[s] = dictionary.lookup(s)

    # union-find over the surfaces that share a key with an earlier one;
    # a surface absent from parent is its own root
    parent: dict[str, str] = {}

    def find(item: str) -> str:
        root = item
        while root in parent:
            root = parent[root]
        while item != root:  # path compression
            parent[item], item = root, parent[item]
        return root

    key_owner: dict[str, str] = {}
    for surface, canonical in canonical_of.items():
        key = head_key(surface)
        keys = (key,) if key else ()
        if canonical is not None:
            other = head_key(canonical)
            if other and other != key:
                keys += (other,)
        for k in keys:
            owner = key_owner.setdefault(k, surface)
            if owner != surface:
                ra, rb = find(owner), find(surface)
                if ra != rb:
                    parent[rb] = ra

    root_of = {s: find(s) for s in parent}
    clusters: dict[str, list[str]] = {}
    for surface in canonical_of:
        clusters.setdefault(root_of.get(surface, surface), []).append(surface)
    cluster_pairs: dict[str, list[AspectOpinionPair]] = {root: [] for root in clusters}
    for p, s in zip(pairs, lowered):
        cluster_pairs[root_of.get(s, s)].append(p)

    keyed = []
    for root, members in clusters.items():
        if len(members) == 1:
            member = members[0]
            label = canonical_of[member]
            if label is None:
                label = member
            key = (label, members)
        else:
            # the shortest canonical, else the shortest member; ties alphabetical
            canonicals = {c for m in members if (c := canonical_of[m]) is not None}
            label = min(canonicals or members, key=lambda t: (len(t), t))
            key = (label, sorted(members))
        keyed.append((key, AspectGroup(label, frozenset(members), tuple(cluster_pairs[root]))))
    # keys are distinct (clusters are disjoint), so no two groups are compared
    keyed.sort()
    return [group for _, group in keyed]

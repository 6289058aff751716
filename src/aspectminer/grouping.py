"""Grouping of extracted aspect surfaces into aspect groups.

Two surfaces land in the same group when they share a dictionary
canonical or when their head words match after a light plural strip.
Merging is transitive (union-find), so "battery life" and "battery
charger" pull "batteries" into the same group via the shared head.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class AspectGroup:
    """One group of co-referring aspect surfaces and their pairs."""

    canonical_label: str
    members: frozenset[str]
    pairs: tuple[AspectOpinionPair, ...]


class _UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, item: str) -> str:
        self.parent.setdefault(item, item)
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:  # path compression
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


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

    uf = _UnionFind()
    key_owner: dict[str, str] = {}
    for surface, canonical in canonical_of.items():
        uf.find(surface)
        keys = {head_key(surface)}
        if canonical is not None:
            keys.add(head_key(canonical))
        keys.discard("")
        for k in keys:
            owner = key_owner.setdefault(k, surface)
            if owner != surface:
                uf.union(owner, surface)

    root_of = {surface: uf.find(surface) for surface in canonical_of}
    clusters: dict[str, list[str]] = {}
    for surface, root in root_of.items():
        clusters.setdefault(root, []).append(surface)
    cluster_pairs: dict[str, list[AspectOpinionPair]] = {root: [] for root in clusters}
    for p, s in zip(pairs, lowered):
        cluster_pairs[root_of[s]].append(p)

    groups = []
    for root, members in clusters.items():
        if len(members) == 1:
            member = members[0]
            label = canonical_of[member]
            if label is None:
                label = member
        else:
            # the shortest canonical, else the shortest member; ties alphabetical
            canonicals = {c for m in members if (c := canonical_of[m]) is not None}
            label = min(canonicals or members, key=lambda t: (len(t), t))
        groups.append(
            AspectGroup(
                canonical_label=label,
                members=frozenset(members),
                pairs=tuple(cluster_pairs[root]),
            )
        )
    groups.sort(key=lambda g: (g.canonical_label, sorted(g.members)))
    return groups

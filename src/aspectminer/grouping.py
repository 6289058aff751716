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

    @property
    def positive_count(self) -> int:
        return sum(1 for p in self.pairs if p.orientation == "positive")

    @property
    def negative_count(self) -> int:
        return sum(1 for p in self.pairs if p.orientation == "negative")


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
    surfaces: list[str] = []
    seen: set[str] = set()
    for p in pairs:
        s = p.aspect_surface.lower()
        if s not in seen:
            seen.add(s)
            surfaces.append(s)

    uf = _UnionFind()
    key_owner: dict[str, str] = {}
    for surface in surfaces:
        uf.find(surface)
        keys = {head_key(surface)}
        canonical = dictionary.lookup(surface)
        if canonical is not None:
            keys.add(head_key(canonical))
        keys.discard("")
        for k in keys:
            owner = key_owner.setdefault(k, surface)
            if owner != surface:
                uf.union(owner, surface)

    clusters: dict[str, list[str]] = {}
    for surface in surfaces:
        clusters.setdefault(uf.find(surface), []).append(surface)

    groups = []
    for members in clusters.values():
        member_set = frozenset(members)
        canonicals = sorted(
            {c for m in members if (c := dictionary.lookup(m)) is not None},
            key=lambda c: (len(c), c),
        )
        if canonicals:
            label = canonicals[0]
        else:
            label = min(members, key=lambda m: (len(m), m))
        group_pairs = tuple(p for p in pairs if p.aspect_surface.lower() in member_set)
        groups.append(
            AspectGroup(canonical_label=label, members=member_set, pairs=group_pairs)
        )
    groups.sort(key=lambda g: (g.canonical_label, sorted(g.members)))
    return groups

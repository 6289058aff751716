"""Grouping of extracted aspect surfaces into aspect groups.

Extraction writes each dictionary term as its canonical, so synonyms
("audio" and "sound") already arrive as one surface.  Grouping then
partitions the surfaces by head key, their first word after a light
plural strip: "battery", "battery life" and "battery charger" share the
key "battery" and form one group, while "batteries" keys as "batterie"
and stays apart.
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
    """Partition pairs into groups by the head key of their aspect surface.

    Surfaces must be as extraction writes them: lowercase words joined
    by single spaces, and canonical when they are dictionary terms.
    Synonyms then already share a surface, so the head key alone decides
    the group.  One member labels its group; a larger group takes its
    shortest member that is a dictionary term, else its shortest member,
    ties alphabetical.  Groups are ordered by label, then members.
    """
    # distinct surfaces in first-seen order, each with its head key
    key_of = {s: head_key(s) for s in dict.fromkeys(p.aspect_surface for p in pairs)}
    clusters: dict[str, list[str]] = {}
    for surface, key in key_of.items():
        clusters.setdefault(key, []).append(surface)
    cluster_pairs: dict[str, list[AspectOpinionPair]] = {key: [] for key in clusters}
    for p in pairs:
        cluster_pairs[key_of[p.aspect_surface]].append(p)

    entries = dictionary.entries
    keyed = []
    for key, members in clusters.items():
        if len(members) == 1:
            label = members[0]
            order = (label, members)
        else:
            terms = [m for m in members if m in entries]
            label = min(terms or members, key=lambda t: (len(t), t))
            order = (label, sorted(members))
        keyed.append((order, AspectGroup(label, frozenset(members), tuple(cluster_pairs[key]))))
    # orders are distinct (clusters are disjoint), so no two groups are compared
    keyed.sort()
    return [group for _, group in keyed]

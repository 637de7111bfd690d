"""Exact walk counting, the walk-preference order, and iterated
most-walks filters.

A walk of length L is a vertex sequence v0..vL with consecutive vertices
adjacent.  All counts are exact arbitrary-precision integers: totals grow
like rho(G)^L and overflow fixed-width words within a few dozen levels even
for small graphs, and the comparisons below certify strict inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import GraphError

__all__ = [
    "WalkProfile",
    "Ordering",
    "ComparisonCertificate",
    "walk_profile",
    "walk_totals",
    "walk_compare",
    "ex_filter",
    "ex_infinity",
]


@dataclass(frozen=True)
class WalkProfile:
    """Per-vertex and total walk counts for levels 1..L.

    ``per_vertex[i-1][u]`` counts walks of length i starting at u;
    ``totals[i-1]`` sums over all start vertices.  Level-1 counts are the
    degrees, and each next level sums the previous level over neighbors.
    """

    per_vertex: tuple
    totals: tuple

    @property
    def depth(self):
        return len(self.totals)

    def counts(self, level):
        """Per-vertex counts at a 1-based level."""
        return self.per_vertex[level - 1]

    def total(self, level):
        return self.totals[level - 1]


def _level_iter(g):
    """Yields per-vertex count lists for levels 1, 2, ... indefinitely."""
    nbrs = g.neighbor_lists
    cur = [int(d) for d in g.degrees]
    while True:
        yield cur
        cur = [sum(cur[v] for v in nbrs[u]) for u in range(g.n)]


def walk_profile(g, depth):
    """Exact walk counts of g for all levels 1..depth."""
    if depth < 1:
        raise GraphError("depth must be at least 1")
    levels = []
    it = _level_iter(g)
    for _ in range(depth):
        levels.append(tuple(next(it)))
    return WalkProfile(
        per_vertex=tuple(levels),
        totals=tuple(sum(lv) for lv in levels),
    )


def walk_totals(g, depth):
    """Total walk counts [W_1, ..., W_depth] without storing per-vertex data."""
    if depth < 0:
        raise GraphError("depth must be nonnegative")
    out = []
    it = _level_iter(g)
    for _ in range(depth):
        out.append(sum(next(it)))
    return out


class Ordering(Enum):
    GREATER = "greater"
    EQUAL = "equal"
    LESS = "less"


@dataclass(frozen=True)
class ComparisonCertificate:
    """Outcome of the lexicographic comparison of total-walk sequences.

    ``witness_index`` is the least level where the totals differ (None when
    equal); ``bound_used`` is n1 + n2, after which level the comparison is
    exact (see :func:`walk_compare`), whichever level decided it.
    """

    ordering: Ordering
    witness_index: int | None
    bound_used: int


def walk_compare(g1, g2):
    """Compare two graphs by their total-walk sequences (W_1, W_2, ...).

    The comparison is decided exactly after n1 + n2 levels: each total-walk
    sequence is a sum of at most n geometric terms in the adjacency
    eigenvalues, so it satisfies a linear recurrence of order at most n, and
    the difference sequence one of order at most n1 + n2.  A difference
    sequence that vanishes on its first n1 + n2 terms is identically zero,
    so agreement up to that bound means agreement everywhere.
    """
    bound = g1.n + g2.n
    it1, it2 = _level_iter(g1), _level_iter(g2)
    for level in range(1, bound + 1):
        w1, w2 = sum(next(it1)), sum(next(it2))
        if w1 != w2:
            ordering = Ordering.GREATER if w1 > w2 else Ordering.LESS
            return ComparisonCertificate(ordering, level, bound)
    return ComparisonCertificate(Ordering.EQUAL, None, bound)


def ex_filter(family, level):
    """Survivors of `level` rounds of iterated argmax filtering.

    Round i keeps, among the survivors of round i-1, exactly the graphs with
    the maximum total count of i-walks.  Ties are kept; the input order is
    preserved.  Deduplication by canonical form is the caller's choice.
    Rounds past 2 * max order discard nothing (see :func:`ex_infinity`), so
    they are not run.
    """
    family = list(family)
    if not family:
        raise GraphError("family must be nonempty")
    if level < 1:
        raise GraphError("level must be at least 1")
    survivors = [(g, _level_iter(g)) for g in family]
    for _ in range(min(level, 2 * max(g.n for g in family))):
        scored = [(g, it, sum(next(it))) for g, it in survivors]
        top = max(w for _, _, w in scored)
        survivors = [(g, it) for g, it, w in scored if w == top]
    return [g for g, _ in survivors]


def ex_infinity(family):
    """The most walk-preferable graphs: survivors of every filter level.

    Filtering stabilizes by level 2 * max order: all survivors of a level
    share every total counted so far, and two graphs whose totals agree up
    to the sum of their orders agree at every level (see walk_compare), so
    no later round can discard anything.
    """
    return ex_filter(family, math.inf)

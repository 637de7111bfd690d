"""Shared test oracles: independent routes to the quantities under test."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from walkspectra import Graph
from walkspectra.walks import walk_totals

# A shared machine's speed drifts by tens of percent, so a per-example
# deadline would measure the machine rather than the code.
settings.register_profile("walkspectra", deadline=None)
settings.load_profile("walkspectra")


def naive_walk_totals(g, depth):
    """Walk totals via exact integer matrix powers: W_L = 1^T A^L 1.

    Independent of the per-vertex recurrence used by the library.
    """
    n = g.n
    a = [[int(g.adj[i, j]) for j in range(n)] for i in range(n)]
    cur = [row[:] for row in a]
    totals = []
    for _ in range(depth):
        totals.append(sum(sum(row) for row in cur))
        cur = [
            [sum(cur[i][k] * a[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return totals


def dfs_walk_count(g, u, length):
    """Walks of a given length starting at u, counted by direct enumeration."""
    if length == 0:
        return 1
    return sum(dfs_walk_count(g, v, length - 1) for v in g.neighbor_lists[u])


def eig_rho(g):
    """Spectral radius via the library eigensolver (LAPACK), used as a third
    oracle distinct from both in-package solvers."""
    if g.n == 0:
        return 0.0
    return float(np.linalg.eigvalsh(g.adjacency(float)).max())


def random_graph(rng, n, p):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edge_list(n, edges)


def edgeless_graph6(order, body=True):
    """The graph6 string of the edgeless graph of ``order`` vertices, written
    out byte by byte: the size block, then the body (all '?') unless
    ``body`` is false."""
    shifts = (0,) if order <= 62 else (12, 6, 0) if order <= 258047 else (30, 24, 18, 12, 6, 0)
    head = "~" * (len(shifts) // 3) + "".join(chr(((order >> s) & 63) + 63) for s in shifts)
    return head + "?" * ((order * (order - 1) // 2 + 5) // 6 if body else 0)


def random_connected_graph(rng, n, p):
    """Random graph plus a random spanning tree to force connectivity."""
    g = random_graph(rng, n, p)
    order = list(range(n))
    rng.shuffle(order)
    tree = [(order[i - 1], order[i]) for i in range(1, n)]
    return g.with_edges(tree)


def exact_inner_fraction(host, x, depth):
    """Sum_{i=1..depth} W_i(host) / x^(i+1) as an exact rational (num, den).

    The float x is taken at its exact binary value, so the comparison against
    certified float bounds is exact integer arithmetic.
    """
    p, q = float(x).as_integer_ratio()
    assert p > 0 and q > 0
    totals = walk_totals(host, depth)
    ppow = [1] * (depth + 2)
    qpow = [1] * (depth + 2)
    for i in range(1, depth + 2):
        ppow[i] = ppow[i - 1] * p
        qpow[i] = qpow[i - 1] * q
    num = 0
    for i in range(1, depth + 1):
        num += totals[i - 1] * qpow[i + 1] * ppow[depth - i]
    return num, ppow[depth + 1]


def frac_leq(num, den, bound):
    """num/den <= bound, exactly (bound is a finite float)."""
    bp, bq = float(bound).as_integer_ratio()
    if bq < 0:
        bp, bq = -bp, -bq
    return num * bq <= bp * den


def frac_geq(num, den, bound):
    bp, bq = float(bound).as_integer_ratio()
    if bq < 0:
        bp, bq = -bp, -bq
    return num * bq >= bp * den


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def exact_denominator(size, host, x):
    """1 + n_s/x + sum_{i>=1} W_i(host)/x^(i+1) summed to infinity, as an
    exact Fraction: 1 + (n_s - n_H)/x + 1^T y with (xI - A_H) y = 1 solved by
    exact Gaussian elimination."""
    x = Fraction(float(x))
    k = 0 if host is None else host.n
    m = [
        [(x if i == j else 0) - int(host.adj[i, j]) for j in range(k)] + [Fraction(1)]
        for i in range(k)
    ]
    for c in range(k):
        p = next(i for i in range(c, k) if m[i][c] != 0)
        m[c], m[p] = m[p], m[c]
        for i in range(k):
            if i != c and m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return 1 + (size - k) / x + sum(m[i][k] / m[i][i] for i in range(k))


def exact_part_sum(embedding, x):
    """The part-sum f(x) with every inner series summed to infinity, as an
    exact Fraction."""
    return sum(
        1 / exact_denominator(size, host, x)
        for size, host in zip(embedding.part_sizes, embedding.hosts)
    )

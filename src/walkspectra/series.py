"""Certified evaluation of the walk-count series attached to multipartite
embeddings.

Two series are handled.  For a host graph H with max degree D and a value
x > D, the per-vertex entry series

    1 + sum_{i>=1} w_i(u) / x^i

reconstructs the Perron entry of u when the host sits fully joined inside a
larger graph and x is that graph's spectral radius (normalizing the joined
set's entries to sum to x).  The per-part denominator series

    1 + n_s/x + sum_{i>=1} W_i(H_s) / x^{i+1}

drives the spectral-radius equation: summing its reciprocals over all parts
equals r - 1 exactly at x = rho.  Every truncation, lead + sum_{j<=J}
c_j / x^j, is bounded by one tail rule: walk counts grow by at most a
factor D per level (W_{i+1} = sum_v d(v) w_i(v) <= D W_i), so the dropped
terms sum to at most c_J D / (x^J (x - D)).  ``tail_bound`` is the same
rule with W_L <= |V| D^L.  A float x is a dyadic a/b, so each truncated
sum with its tail is an exact rational, rounded once per end
(``inner_series`` returns the two as an :class:`Ival`).

The solver sums the denominator series to infinity instead: for x > D it is
1 + (n_s - n_H)/x + 1^T (xI - A_H)^{-1} 1, a linear solve on the host's few
vertices.  A float solve is certified by an interval residual and Varah's
bound ||(xI - A_H)^{-1}||_inf <= 1/(x - D) for the strictly diagonally
dominant matrix xI - A_H (Varah 1975, Linear Algebra Appl. 11).  Its
probe rounds float pairs outward per operation, to :class:`Ival`'s bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisNotMet, SeriesError
from .intervals import Ival
from .spectral import SpectralResult
from .walks import walk_profile, walk_totals

__all__ = [
    "EntrySeries",
    "SeriesEvaluation",
    "entry_series",
    "tail_bound",
    "inner_series",
    "f_eval",
    "f_resolvent",
    "solve_rho_series",
]

SOLVE_TOL = 1e-10  # the width of the bracket solve_rho_series returns


@dataclass(frozen=True)
class EntrySeries:
    """Certified bracket [lower, upper] for one Perron entry."""

    vertex: int
    rho: float
    depth: int
    lower: float
    upper: float

    @property
    def width(self):
        return self.upper - self.lower


@dataclass(frozen=True)
class SeriesEvaluation:
    """Certified enclosure of the part-sum f at one evaluation point."""

    x: float
    depth: int
    value_lo: float
    value_hi: float
    tail_bound: float

    @property
    def width(self):
        return self.value_hi - self.value_lo


_INF = math.inf
_NEG_INF = -math.inf
_next = math.nextafter


def _ratio(x):
    """x as an exact pair (a, b) with x = a/b.  Infinity is (1, 0): then
    every term w / x^j with j >= 1 has numerator 0, its limit."""
    return (1, 0) if x == _INF else x.as_integer_ratio()


def _add(s, t):
    """The sum of two exact pairs (num, den)."""
    return s[0] * t[1] + t[0] * s[1], s[1] * t[1]


def _round(num, den, up):
    """The float next to num/den (den > 0) on one side: the smallest at or
    above it if ``up``, else the largest at or below it."""
    f = num / den  # int / int is correctly rounded to nearest
    p, q = f.as_integer_ratio()
    if p * den != num * q and (p * den < num * q) == up:
        f = _next(f, _INF if up else _NEG_INF)
    return f


def _checked(x, delta, depth, what):
    """float(x), once depth is at least 1 and x exceeds the max host degree
    delta (a nan x does not)."""
    if depth < 1:
        raise SeriesError("depth must be at least 1")
    x = float(x)
    if not x > delta:
        raise HypothesisNotMet(f"{what} needs x > max host degree ({x} <= {delta})")
    return x


def _truncated(lead, counts, x, delta):
    """lead + sum_{j=1..J} c_j / x^j for counts (c_1, ..., c_J), and that
    sum plus its tail bound c_J * delta / (x^J (x - delta)), as exact pairs
    (num, den).

    The tail is geometric: it dominates sum_{j>J} c_j / x^j whenever each
    dropped count is at most delta times the one before, as walk counts
    are in a host of max degree delta (W_{i+1} = sum_v d(v) w_i(v) <=
    delta W_i), and x > delta.
    """
    a, b = _ratio(x)
    c, d = _ratio(delta)
    num, bp = lead, 1
    for w in counts:  # Horner: num / a^j = lead + sum_{i<=j} c_i / x^i
        bp *= b
        num = num * a + w * bp
    den = a ** len(counts)
    gap = a * d - c * b  # (x - delta) * b * d
    return (num, den), (num * gap + counts[-1] * c * bp * b, den * gap)


def entry_series(host, vertex, rho, depth):
    """Certified bracket for the Perron entry of ``vertex``.

    Valid whenever rho exceeds the host's max degree D: the truncated sum
    1 + sum_{i<=depth} w_i(u) / rho^i is the lower end, and the upper end
    adds :func:`_truncated`'s tail, w_depth(u) D / (rho^depth (rho - D)).
    """
    if not 0 <= vertex < host.n:
        raise SeriesError(f"vertex {vertex} not in host of order {host.n}")
    delta = host.max_degree()
    rho = _checked(rho, delta, depth, "entry series")
    if host.degree(vertex):
        counts = [level[vertex] for level in walk_profile(host, depth).per_vertex]
    else:  # walks never leave the vertex's component: none start here
        counts = [0] * depth
    lo, hi = _truncated(1, counts, rho, delta)
    return EntrySeries(vertex, rho, depth, _round(*lo, up=False), _round(*hi, up=True))


def tail_bound(host_order, delta, x, depth):
    """Upper bound on the dropped part sum_{i>depth} W_i / x^{i+1} of a
    host's inner series, knowing only its order |V| and max degree delta.

    :func:`_truncated`'s tail with W_depth <= |V| * delta^depth:
    |V| * delta^(depth+1) / (x^(depth+1) * (x - delta)), formed exactly and
    rounded up once.
    """
    if host_order < 0:
        raise SeriesError("host order must be nonnegative")
    delta = float(delta)
    x = _checked(x, delta, depth, "tail bound")
    c, d = _ratio(delta)  # |V| * delta^depth = |V| c^depth / d^depth
    (sn, sd), (tn, td) = _truncated(0, [0] * depth + [host_order * c**depth], x, delta)
    return _round(tn * sd - sn * td, td * sd * d**depth, up=True)


def inner_series(host, x, depth):
    """Certified enclosure of sum_{i>=1} W_i(host) / x^{i+1}: the sum to
    ``depth`` and that sum plus :func:`_truncated`'s tail,
    W_depth D / (x^{depth+1} (x - D)).

    An empty host has every total zero, so its series is exactly 0.
    """
    delta = 0 if host is None else host.max_degree()
    x = _checked(x, delta, depth, "inner series")
    totals = [0] * depth if host is None else walk_totals(host, depth)
    lo, hi = _truncated(0, [0] + totals, x, delta)
    return Ival(_round(*lo, up=False), _round(*hi, up=True))


def f_eval(embedding, x, depth):
    """Certified enclosure of the part-sum f(x) for an embedding.

    f(x) sums, over the parts, the reciprocals of
    1 + n_s/x + sum_i W_i(H_s)/x^{i+1}; it is strictly increasing for
    x above the max host degree and equals r - 1 exactly at the spectral
    radius of the realized graph.  Each part's denominator is truncated
    with the tail of its own host's max degree (see :func:`_truncated`).
    Each end is one exact rational over all parts, rounded once, and so
    is the reported sum of tail bounds.
    """
    x = _checked(x, embedding.delta, depth, "series evaluation")
    lo = hi = tails = (0, 1)
    for size, host in zip(embedding.part_sizes, embedding.hosts):
        delta = 0 if host is None else host.max_degree()
        totals = [0] * depth if host is None else walk_totals(host, depth)
        (sn, sd), (tn, td) = _truncated(1, [size] + totals, x, delta)
        lo = _add(lo, (td, tn))
        hi = _add(hi, (sd, sn))
        tails = _add(tails, (tn * sd - sn * td, td * sd))
    return SeriesEvaluation(
        x, depth, _round(*lo, up=False), _round(*hi, up=True), _round(*tails, up=True)
    )


def _probe_plan(embedding):
    """The embedding's max host degree and a :func:`_part_plan` per part:
    what every probe reads, built once per solve."""
    return embedding.delta, tuple(map(_part_plan, embedding.part_sizes, embedding.hosts))


def _part_plan(size, host):
    """``(float(n_s - n_H), host)``, with the host given as -A_H in floats,
    the solve's right-hand side, its neighbour lists, float(D_H) and
    float(n_H); an edgeless host counts as none."""
    if host is None or host.num_edges == 0:
        return float(size), None
    k = host.n
    return float(size - k), (
        0.0 - host.adj, np.ones(k), host.neighbor_lists, float(host.max_degree()), float(k)
    )


def _resolvent_denominator(part, x):
    """Certified enclosure ``(lo, hi)`` of 1 + n_s/x + sum_{i>=1}
    W_i(H)/x^{i+1}, the series summed to infinity, for a :func:`_part_plan`
    at a float x above the host's max degree D.

    sum_{i>=0} W_i / x^{i+1} = 1^T y with (xI - A_H) y = 1, so the
    denominator is 1 + (n_s - n_H)/x + sum(y).  y is solved in floats; for
    x > D the matrix is strictly diagonally dominant with row margin at
    least x - D, so |y - y_hat|_inf <= |1 - (xI - A_H) y_hat|_inf / (x - D)
    (Varah's bound), with the residual evaluated in interval arithmetic.

    Rounding rule, the whole probe's (see :func:`_resolvent_probe`): the
    head 1 + (n_s - n_H)/x, the per-vertex residuals, the running sum of
    y, Varah's error term and the head plus the sum are each a pair of
    float endpoints.  Each operation rounds to nearest and then steps its
    low end down and its high end up by one ``math.nextafter``: the
    operations :class:`Ival` performs, in the same order, so the result has
    Ival's bits.  ``TestDenominatorKernel`` and ``TestProbeKernel`` in
    ``tests/test_series.py`` pin the two together.  A nan x raises
    ValueError and a non-positive one ZeroDivisionError, as Ival does.
    (Ival's x = inf branch needs none here: (n_s - n_H)/inf is 0 already.
    At x = inf, y = 0 and x * y is nan where Ival reads 0; that residual is
    dropped, but Varah's term is 0 either way and the bits agree.)
    """
    rest, host = part
    if not x > 0.0:
        if x != x:
            raise ValueError(f"invalid interval [{x}, {x}]")
        raise ZeroDivisionError("interval division requires a positive divisor")
    q = rest / x
    head_lo = _next(1.0 + _next(q, _NEG_INF), _NEG_INF)
    head_hi = _next(1.0 + _next(q, _INF), _INF)
    if host is None:
        return head_lo, head_hi
    neg_adj, ones, neighbor_lists, delta, k = host
    m = neg_adj.copy()
    np.fill_diagonal(m, x)  # xI - A_H
    y = np.linalg.solve(m, ones).tolist()
    res_norm = 0.0
    sum_lo = sum_hi = 0.0
    for u, nbrs in enumerate(neighbor_lists):
        yu = y[u]
        p = x * yu
        res_lo = _next(1.0 - _next(p, _INF), _NEG_INF)
        res_hi = _next(1.0 - _next(p, _NEG_INF), _INF)
        for v in nbrs:
            yv = y[v]
            res_lo = _next(res_lo + yv, _NEG_INF)
            res_hi = _next(res_hi + yv, _INF)
        res_norm = max(res_norm, -res_lo, res_hi)
        sum_lo = _next(sum_lo + yu, _NEG_INF)
        sum_hi = _next(sum_hi + yu, _INF)
    err = _next(_next(res_norm / _next(x - delta, _NEG_INF), _INF) * k, _INF)
    return (
        _next(head_lo + _next(sum_lo - err, _NEG_INF), _NEG_INF),
        _next(head_hi + _next(sum_hi + err, _INF), _INF),
    )


def f_resolvent(embedding, x):
    """Certified enclosure of the part-sum f(x) with every inner series
    summed to infinity in closed form: no truncation, so depth and tail
    bound are both reported as 0.

    The endpoints are :func:`_resolvent_probe`'s: every operation of the
    probe runs on float endpoint pairs, rounded to nearest and then outward
    by one ``math.nextafter`` per endpoint, in :class:`Ival`'s order, so
    they have Ival's bits; ``TestProbeKernel`` in ``tests/test_series.py``
    pins them.
    """
    x = float(x)
    lo, hi = _resolvent_probe(_probe_plan(embedding), x)
    return SeriesEvaluation(x=x, depth=0, value_lo=lo, value_hi=hi, tail_bound=0.0)


def _resolvent_probe(plan, x):
    """:func:`f_resolvent` at a float x for a :func:`_probe_plan`, as a
    ``(lo, hi)`` pair: the sum over the parts of 1/D_s, D_s each part's
    :func:`_resolvent_denominator`.

    Rounding rule for the whole probe: every interval in it - each part's
    head, residuals, sum, Varah term and D_s (see
    :func:`_resolvent_denominator`), each reciprocal 1/D_s and the running
    sum over the parts, from 0 - is a pair of float endpoints.  Each
    operation rounds to nearest and then steps its low end down and its
    high end up by one ``math.nextafter``, as :class:`Ival` rounds
    ``Ival(0.0) + Ival(1.0) / D_1 + ...``, so the result has Ival's bits;
    ``TestProbeKernel`` in ``tests/test_series.py`` pins them.  (Ival's
    branch for an infinite D_s needs none here: 1/inf is 0 already.)  A
    nan x raises HypothesisNotMet, and a D_s whose low end is not positive
    ZeroDivisionError.
    """
    delta, parts = plan
    if not x > delta:
        raise HypothesisNotMet(
            f"series evaluation needs x > max host degree ({x} <= {delta})"
        )
    lo = hi = 0.0
    for part in parts:
        d_lo, d_hi = _resolvent_denominator(part, x)
        if d_lo <= 0.0:
            raise ZeroDivisionError("interval division requires a positive divisor")
        lo = _next(lo + _next(1.0 / d_hi, _NEG_INF), _NEG_INF)
        hi = _next(hi + _next(1.0 / d_lo, _INF), _INF)
    return lo, hi


def solve_rho_series(embedding):
    """Spectral radius of the realized embedding via the series equation.

    Bisects the strictly increasing map x -> f(x) against r - 1 on the
    bracket (D, D(G)], where D is the max host degree and D(G), the max
    degree of the realized graph, bounds rho from above, until the bracket
    is at most ``SOLVE_TOL`` = 1e-10 wide.  Each probe is the certified
    closed-form enclosure of :func:`f_resolvent`, and moves an endpoint
    only when it separates from r - 1.  A probe whose enclosure contains
    r - 1 lies within resolution of rho: the points SOLVE_TOL/4 either side
    of it are probed once and the bracket they certify is returned.
    """
    target = float(embedding.r - 1)
    plan = _probe_plan(embedding)
    delta = plan[0]
    a = float(delta)
    b = float(max(
        embedding.n - size + (0 if host is None else host.max_degree())
        for size, host in zip(embedding.part_sizes, embedding.hosts)
    ))
    a_certified = False
    steps = 0
    while b - a > SOLVE_TOL:
        x = 0.5 * (a + b)
        if not a < x < b:
            break
        steps += 1
        lo, hi = _resolvent_probe(plan, x)
        if hi < target:
            a, a_certified = x, True
        elif lo > target:
            b = x
        else:
            q = 0.25 * SOLVE_TOL
            if _resolvent_probe(plan, x - q)[1] < target:
                a, a_certified = x - q, True
            if _resolvent_probe(plan, x + q)[0] > target:
                b = x + q
            break
    if not a_certified:
        raise HypothesisNotMet(
            f"bracket low end {a:.6g} is not certified above max host degree "
            f"{delta}; the series equation is not certified here"
        )
    return SpectralResult(
        rho=0.5 * (a + b),
        vector=None,
        residual=b - a,
        iterations=steps,
        method="series",
        converged=b - a <= SOLVE_TOL,
        bracket=(a, b),
        depth=0,
    )

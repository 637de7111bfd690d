"""Isomorph-free enumeration of small graph families and executable
verifiers for the walk/spectral-radius statements this package targets.

Families:
  * all graphs with m edges and no isolated vertices (m <= 7),
  * the same classes padded with isolated vertices to a fixed order,
  * balanced complete-multipartite graphs with t extra edges embedded into
    their parts, up to part symmetry (t <= 5).

Verifiers return :class:`VerificationReport` records rather than raising,
so callers can scan parameter ranges and observe onset thresholds.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import FormatError, GraphError, SeriesError, SpectralError, indices
from .graphio import graph6_lines, graph6_record, to_graph6, write_graph6
from .graphs import (
    MultipartiteEmbedding,
    canonical_form,
    complete,
    star,
    turan_part_sizes,
)
from .series import f_resolvent, solve_rho_series
from .spectral import MAX_ITERATIONS, collatz_wielandt, power_radius
from .walks import Ordering, ex_filter, ex_infinity, walk_compare

__all__ = [
    "EnumerationFamily",
    "VerificationReport",
    "enumerate_m_edge",
    "enumerate_m_edge_order",
    "enumerate_embeddings",
    "sample_embedding",
    "spex",
    "verify_lemma_2degree",
    "verify_corollary_2inf",
    "verify_one_set",
    "verify_multi_set",
    "verify_corollary_tnrk",
]

M_EDGE_LIMIT = 7
# Isomorphism classes of m-edge graphs without isolated vertices, m = 1..7
# (OEIS A000664); a cache file of any other length is rejected.
M_EDGE_COUNTS = (1, 2, 5, 11, 26, 68, 177)
EMBED_EDGE_LIMIT = 5
SPEX_TIE_TOL = 1e-9
MULTI_SET_TOL = 1e-8  # the largest identity and solver gaps of a multi-set pass
SAMPLE_TRIES = 200

# Power steps of the screen that brackets every spex member before any
# member that may win or be the runner-up is run to convergence.
_SCREEN_STEPS = 8


@dataclass
class EnumerationFamily:
    """A deduplicated family of graphs or embeddings."""

    descriptor: str
    members: list

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


@dataclass(slots=True)
class VerificationReport:
    theorem: str
    parameters: dict
    verdict: str  # "pass" | "fail" | "inapplicable"
    witnesses: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.verdict == "pass"

    def as_dict(self):
        return {
            "theorem": self.theorem,
            "parameters": dict(self.parameters),
            "verdict": self.verdict,
            "witnesses": list(self.witnesses),
            "details": dict(self.details),
        }


# ---- enumeration -----------------------------------------------------------


def _extensions(g):
    """All one-edge extensions of g that keep minimum degree >= 1."""
    out = []
    n = g.n
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v):
                out.append(g.with_edges([(u, v)]))
    padded = g.add_isolated(1)
    for u in range(n):
        out.append(padded.with_edges([(u, n)]))
    out.append(g.add_isolated(2).with_edges([(n, n + 1)]))
    return out


def enumerate_m_edge(m, cache_dir=None):
    """All isomorphism classes with exactly m edges and no isolated vertices.

    Grown edge by edge: deleting any edge of such a graph and stripping the
    (at most two) vertices it isolates leaves a smaller graph of the same
    kind, so extending every (m-1)-class by one edge in all ways - between
    existing vertices, to one new vertex, or as a fresh disjoint edge -
    reaches every m-class.  Classes are deduplicated by canonical form and
    returned in canonical-byte order.
    """
    if not 1 <= m <= M_EDGE_LIMIT:
        raise GraphError(f"edge count must be in 1..{M_EDGE_LIMIT}, got {m}")

    path = None if cache_dir is None else os.path.join(cache_dir, f"m_edge_{m}.g6")
    if path is not None and os.path.exists(path):
        generated = _GENERATED.get(m)
        # A damaged file, or one that differs from the classes this process
        # generated, is rewritten below.
        members = []
        try:
            records = graph6_lines(path)
            if generated is None:
                members = [graph6_record(r, lineno, path) for lineno, r in records]
            elif [r for _, r in records] == [to_graph6(g) for g in generated]:
                # The file holds exactly the generated classes: return those,
                # which carry their canonical forms, without decoding a record.
                return EnumerationFamily(f"m-edge:m={m}", list(generated))
        except FormatError:
            pass
        if len(members) == M_EDGE_COUNTS[m - 1] and all(
            g.num_edges == m and min(g.degrees) > 0 for g in members
        ):
            return EnumerationFamily(f"m-edge:m={m}", members)

    members = list(_m_edge_classes(m))
    if path is not None:
        # Write beside the target and rename, so a reader never sees a
        # partly written file.
        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        write_graph6(members, tmp)
        os.replace(tmp, path)
    return EnumerationFamily(f"m-edge:m={m}", members)


_GENERATED = {}  # m -> the m-edge classes this process generated


def _m_edge_classes(m):
    """The m-edge classes in canonical-byte order, generated once per
    process; graphs are immutable, so callers share them."""
    if m in _GENERATED:
        return _GENERATED[m]
    level = {}
    seed = complete(2)
    level[canonical_form(seed).data] = seed
    for _ in range(m - 1):
        nxt = {}
        for g in level.values():
            for h in _extensions(g):
                key = canonical_form(h).data
                if key not in nxt:
                    nxt[key] = h
        level = nxt
    classes = _GENERATED[m] = tuple(level[k] for k in sorted(level))
    return classes


def enumerate_m_edge_order(n, m, cache_dir=None):
    """All isomorphism classes of order n with m edges (isolated vertices
    allowed): the m-edge classes that fit, padded to order n."""
    if n < 2:
        raise GraphError("order must be at least 2")
    base = enumerate_m_edge(m, cache_dir=cache_dir)
    members = [g.add_isolated(n - g.n) for g in base.members if g.n <= n]
    if not members:
        raise GraphError(f"no graph with {m} edges fits in order {n}")
    return EnumerationFamily(f"order-m-edge:n={n},m={m}", members)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def enumerate_embeddings(n, r, t, cache_dir=None):
    """All inequivalent ways to embed t edges into the parts of the balanced
    complete r-partite graph of order n.

    Per part, the embedded subgraph is an m-edge class without isolated
    vertices; parts of equal size are interchangeable, and placement inside
    a part carries no labels, so equivalence is decided by the multiset of
    (part size, host class) pairs.
    """
    if r < 2:
        raise GraphError("need at least two parts")
    if not 1 <= t <= EMBED_EDGE_LIMIT:
        raise GraphError(f"embedded edge count must be in 1..{EMBED_EDGE_LIMIT}")
    sizes = turan_part_sizes(n, r)
    hosts_by_count = {0: [None]}
    for c in range(1, t + 1):
        hosts_by_count[c] = list(enumerate_m_edge(c, cache_dir=cache_dir).members)

    seen = {}
    for comp in _compositions(t, r):
        slots = []
        for c, size in zip(comp, sizes):
            fits = [h for h in hosts_by_count[c] if h is None or h.n <= size]
            if not fits:
                slots = None
                break
            slots.append(fits)
        if slots is None:
            continue
        for hosts in product(*slots):
            emb = MultipartiteEmbedding(sizes, hosts)
            key = emb.key()
            if key not in seen:
                seen[key] = emb
    if not seen:
        raise GraphError(
            f"no embedding of {t} edges fits the parts of order {n} with {r} parts"
        )
    members = [seen[k] for k in sorted(seen)]
    return EnumerationFamily(f"turan-embedding:n={n},r={r},t={t}", members)


def sample_embedding(
    rng,
    r_range=(2, 4),
    part_range=(3, 30),
    t_range=(1, 5),
    cache_dir=None,
):
    """Random embedding: r parts with sizes in part_range and t embedded
    edges split uniformly over the parts, each part's host drawn from the
    classes that fit.  Resamples until every assigned edge count fits.
    Each edge count's family is enumerated (or read from the cache) at most
    once per call."""
    families = {}
    for _ in range(SAMPLE_TRIES):
        r = rng.randint(*r_range)
        sizes = [rng.randint(*part_range) for _ in range(r)]
        t = rng.randint(*t_range)
        counts = [0] * r
        for _ in range(t):
            counts[rng.randrange(r)] += 1
        hosts = []
        ok = True
        for c, size in zip(counts, sizes):
            if c == 0:
                hosts.append(None)
                continue
            if c not in families:
                families[c] = enumerate_m_edge(c, cache_dir=cache_dir).members
            fits = [h for h in families[c] if h.n <= size]
            if not fits:
                ok = False
                break
            hosts.append(rng.choice(fits))
        if ok:
            return MultipartiteEmbedding(sizes, hosts)
    raise GraphError("could not sample a fitting embedding")


# ---- spectral argmax -------------------------------------------------------


def _blocks(member):
    """``(a, sizes, blocks)``: the matrix the power iteration runs on (an
    embedding's twin-class quotient, a graph's adjacency matrix), its class
    sizes, and a ``(B, root, index)`` per block.  B is the integer quotient,
    B[i][j] the number of class-j neighbours of a class-i vertex, similar to
    the symmetric one and bracketed at z = x[index]/root.  A graph's radius
    is its largest component radius: each component with an edge is a block.
    """
    if isinstance(member, MultipartiteEmbedding):
        a, sizes = member.quotient()
        # An embedding's quotient is connected: one block.
        return a, sizes, [((a > 0) * sizes, np.sqrt(sizes), slice(None))]
    a = member.adjacency(float)
    blocks = [(a[np.ix_(c, c)], 1.0, c) for c in member.components() if len(c) > 1]
    return a, [1] * member.n, blocks


def _radius(member, steps=MAX_ITERATIONS):
    """Power-iteration radius of a graph or embedding after at most
    ``steps`` steps, and the certified Collatz-Wielandt bracket of its last
    iterate (``(-inf, inf)`` when that iterate gives no certificate)."""
    return _blocks_radius(_blocks(member), steps)


def _blocks_radius(member_blocks, steps=MAX_ITERATIONS):
    """:func:`_radius` from a member's :func:`_blocks`; the bracket is the
    maximum of the blocks' brackets.  Raises when a full run does not
    converge, and when a converged value lies outside its bracket, so
    neither feeds a verdict."""
    a, sizes, blocks = member_blocks
    res = power_radius(a, sizes, max_iterations=steps)
    if not res.converged and steps == MAX_ITERATIONS:
        raise SpectralError(
            f"power iteration did not converge on a matrix of order {len(a)} "
            f"(residual {res.residual:.3e} after {res.iterations} iterations)"
        )
    lo = hi = 0.0
    for b, root, idx in blocks:
        block = collatz_wielandt(b, res.vector[idx] / root)
        if block is None:
            lo, hi = -math.inf, math.inf
            break
        lo, hi = max(lo, block[0]), max(hi, block[1])
    if res.converged and not lo <= res.rho <= hi:
        raise SpectralError(
            f"power value {res.rho!r} lies outside its certified bracket "
            f"[{lo!r}, {hi!r}] on a matrix of order {len(a)}"
        )
    return res, (lo, hi)


@dataclass
class _SpexDetail:
    top: float
    winners: list
    runner_up: float | None


def _spex_detail(members):
    tol = SPEX_TIE_TOL
    members = list(members)
    if not members:
        raise ValueError("family must be nonempty")
    blocks = [_blocks(m) for m in members]
    screens = [_blocks_radius(b, _SCREEN_STEPS) for b in blocks]
    converged = {}  # member index -> (rho, bracket low end)
    bar = -math.inf
    for i in sorted(range(len(members)), key=lambda i: -screens[i][1][1]):
        res, (lo, hi) = screens[i]
        if not res.converged:
            # bar: the top's lower bound minus tol, and the lower bound of
            # a converged non-winner, whichever is less.  A member whose
            # upper bound is below it can neither win nor be the runner-up.
            if hi < bar:
                continue
            res, (lo, hi) = _blocks_radius(blocks[i])
        converged[i] = (res.rho, lo)
        lead, lead_lo = max(converged.values(), key=lambda v: v[0])
        below = [low for rho, low in converged.values() if rho < lead - tol]
        bar = min(lead_lo - tol, max(below, default=-math.inf))
    top = max(rho for rho, _ in converged.values())
    winners = [m for i, m in enumerate(members) if i in converged and converged[i][0] >= top - tol]
    runner_up = max((rho for rho, _ in converged.values() if rho < top - tol), default=None)
    return _SpexDetail(top=top, winners=winners, runner_up=runner_up)


def spex(family):
    """Members of maximum spectral radius, ties within tol = SPEX_TIE_TOL kept.

    Radii come from power iteration on each embedding's twin-class quotient
    (a graph's adjacency matrix), each iterate bracketed by a certified
    Collatz-Wielandt bound.  A short screen brackets every member; then, in
    descending order of upper bounds, each member is run to convergence
    unless its screened upper bound is below both the top's lower bound
    minus tol and the lower bound of a converged member that does not win.
    So every member not certified below the top minus tol is converged, and
    the winners are the converged members within tol of the largest
    converged value.  Each converged value must lie in its bracket, or
    :class:`SpectralError` is raised.  Ties are not decided on brackets
    alone: a converged graph bracket can be far wider than tol.
    """
    members = family.members if isinstance(family, EnumerationFamily) else family
    return _spex_detail(members).winners


# ---- verifiers -------------------------------------------------------------


def _canon_set(graphs):
    return {canonical_form(g).data for g in graphs}


def _inapplicable(theorem, params, reason, **details):
    """An ``inapplicable`` report; ``reason`` comes first in its details."""
    return VerificationReport(
        theorem, params, "inapplicable", details={"reason": reason, **details}
    )


def verify_lemma_2degree(n, m, cache_dir=None):
    """Second-level filter of the order-n m-edge family: the star plus
    isolated vertices, with the triangle tying exactly at m = 3.  The family
    is read from, or written to, ``cache_dir`` when one is given."""
    params = {"n": n, "m": m}
    if not 1 <= m <= 6:
        return _inapplicable("lemma-2degree", params, "m out of verified range 1..6")
    if not (m + 2 <= n <= 14):
        return _inapplicable("lemma-2degree", params, "n out of verified range m+2..14")
    family = enumerate_m_edge_order(n, m, cache_dir=cache_dir)
    survivors = ex_filter(family.members, 2)
    expected = [star(m + 1).add_isolated(n - m - 1)]
    if m == 3:
        expected.append(complete(3).add_isolated(n - 3))
    verdict = "pass" if _canon_set(survivors) == _canon_set(expected) else "fail"
    return VerificationReport(
        theorem="lemma-2degree",
        parameters=params,
        verdict=verdict,
        witnesses=sorted(to_graph6(g) for g in survivors),
        details={
            "family_size": len(family),
            "expected": sorted(to_graph6(g) for g in expected),
        },
    )


def verify_corollary_2inf(m, cache_dir=None):
    """Filter levels 2, 3, and the stable limit on the m-edge family:
    level 2 keeps the star (plus the triangle at m = 3), level 3 onward is a
    singleton, and level 3 already equals the stable limit.  The family is
    read from, or written to, ``cache_dir`` when one is given."""
    if not 1 <= m <= 6:
        return _inapplicable("cor-2inf", {"m": m}, "m out of verified range 1..6")
    family = enumerate_m_edge(m, cache_dir=cache_dir)
    lvl2 = ex_filter(family.members, 2)
    lvl3 = ex_filter(family.members, 3)
    stable = ex_infinity(family.members)
    if m == 3:
        expected2 = [star(4), complete(3)]
        expected3 = [complete(3)]
    else:
        expected2 = [star(m + 1)]
        expected3 = [star(m + 1)]
    ok = (
        _canon_set(lvl2) == _canon_set(expected2)
        and _canon_set(lvl3) == _canon_set(expected3)
        and _canon_set(stable) == _canon_set(lvl3)
    )
    return VerificationReport(
        theorem="cor-2inf",
        parameters={"m": m},
        verdict="pass" if ok else "fail",
        witnesses=sorted(to_graph6(g) for g in stable),
        details={
            "family_size": len(family),
            "level2": sorted(to_graph6(g) for g in lvl2),
            "level3": sorted(to_graph6(g) for g in lvl3),
            "stable": sorted(to_graph6(g) for g in stable),
        },
    )


def verify_one_set(s_size, t_size, host1, host2, n_range):
    """Check that the walk comparison of two hosts predicts the ordering of
    the spectral radii of their embeddings, once the ambient graph is large.

    The ambient graph of order n is a clique of ``s_size`` vertices joined
    to an independent set; each host's edges are placed on the first
    ``t_size`` independent vertices: the complete (s_size+1)-partite
    embedding with single-vertex parts and the host in the last part, whose
    radius is taken on its quotient, of order s_size + t_size + 1 at any n.
    Reports the least tested n from which the radius order matches the
    certificate for all larger tested n (the observed onset).  The order
    at n is known only when the two certified brackets are disjoint, so an
    overlap, as at a tie, never matches an order; an EQUAL certificate
    fails at any n whose brackets are disjoint.

    Each host's quotient is built once and updated per n
    (:func:`_one_set_radius`), so radii, brackets and diffs keep every bit
    of a fresh embedding at each n (``TestOneSetQuotient``,
    ``TestPowerKernel``).
    """
    if s_size < 1:
        raise GraphError("clique side must have at least one vertex")
    if host1.n > t_size or host2.n > t_size:
        raise GraphError("hosts must fit in the designated vertex set")
    h1 = host1.add_isolated(t_size - host1.n)
    h2 = host2.add_isolated(t_size - host2.n)
    cert = walk_compare(h1, h2)

    ns = sorted(set(indices(n_range, GraphError, "n values")))
    if not ns:
        raise GraphError("empty n range")
    if ns[0] < s_size + t_size:
        raise GraphError(
            f"n must be at least s_size + t_size = {s_size + t_size}"
        )

    kept = {}
    diffs, signs = [], []
    for n in ns:
        (res1, (lo1, hi1)), (res2, (lo2, hi2)) = (
            _one_set_radius(s_size, h, n, kept) for h in (h1, h2)
        )
        diffs.append((n, res1.rho - res2.rho))
        signs.append(1 if lo1 > hi2 else -1 if hi1 < lo2 else 0)

    if cert.ordering is Ordering.EQUAL:
        onset = None if any(signs) else ns[0]
    else:
        want = 1 if cert.ordering is Ordering.GREATER else -1
        onset = None
        for n, sign in zip(reversed(ns), reversed(signs)):
            if sign != want:
                break
            onset = n
    verdict = "pass" if onset is not None else "fail"

    # A scan keeps one report per window, so the report is kept small:
    # tuples, and one interned encoding per host, shared by both fields.
    code1, code2 = sys.intern(to_graph6(h1)), sys.intern(to_graph6(h2))
    return VerificationReport(
        theorem="one-set",
        parameters={
            "s_size": s_size,
            "t_size": t_size,
            "host1": code1,
            "host2": code2,
            "n_min": ns[0],
            "n_max": ns[-1],
        },
        verdict=verdict,
        witnesses=(code1, code2),
        details={
            "ordering": cert.ordering.value,
            "witness_index": cert.witness_index,
            "onset": onset,
            "diffs": tuple(diffs),
        },
    )


def _one_set_radius(s_size, host, n, kept):
    """:func:`_radius` of the one-set embedding of ``host`` at order n.

    ``kept`` maps a host to the :func:`_blocks` its first call with a twin
    class (n > s_size + host.n) built; later calls rewrite the entries that
    depend on n: the twin class's size, B column and root, and q's clique
    row and column, sqrt(n - s_size - host.n) as np.sqrt(np.outer(sizes,
    sizes)) gives it (the other factor is 1.0).  With no twin class the
    blocks are built for that n alone.
    """
    m = n - s_size - host.n
    blocks = kept.get(host) if m else None
    if blocks is None:
        parts = (1,) * s_size + (n - s_size,)
        blocks = _blocks(MultipartiteEmbedding(parts, (None,) * s_size + (host,)))
        if m:
            kept[host] = blocks
    else:
        q, sizes, ((b, root, _),) = blocks
        sizes[-1] = b[:s_size, -1] = m
        root[-1] = q[:s_size, -1] = q[-1, :s_size] = math.sqrt(m)
    return _blocks_radius(blocks)


def verify_multi_set(embedding):
    """Check the series identity at the measured spectral radius and the
    agreement of the series solver with power iteration, which runs on the
    embedding's twin-class quotient: both gaps must be at most
    ``MULTI_SET_TOL`` = 1e-8.

    Inapplicable (not a failure) when the radius does not exceed the max
    host degree: the identity is only asserted above it.
    """
    measured, _ = _radius(embedding)
    target = float(embedding.r - 1)
    params = {
        "parts": embedding.part_sizes,  # immutable; shared, not copied
        "t": embedding.t,
        "delta": embedding.delta,
    }
    if not measured.rho > embedding.delta:
        reason = "spectral radius does not exceed max host degree"
        return _inapplicable("multi-set", params, reason, rho_power=measured.rho)
    try:
        ev = f_resolvent(embedding, measured.rho)
        solved = solve_rho_series(embedding)
    except SeriesError as exc:  # includes HypothesisNotMet
        return _inapplicable("multi-set", params, str(exc), rho_power=measured.rho)
    gap = max(0.0, ev.value_lo - target, target - ev.value_hi)
    identity_ok = gap <= MULTI_SET_TOL
    solver_ok = solved.converged and abs(solved.rho - measured.rho) <= MULTI_SET_TOL
    return VerificationReport(
        theorem="multi-set",
        parameters=params,
        verdict="pass" if identity_ok and solver_ok else "fail",
        # A scan keeps one report per sample, so the report is kept small:
        # tuples, and interned encodings of the few hosts that recur.
        witnesses=tuple(sys.intern(to_graph6(h)) for h in embedding.hosts if h is not None),
        details={
            "rho_power": measured.rho,
            "rho_series": solved.rho,
            "depth": ev.depth,
            "interval": (ev.value_lo, ev.value_hi),
            "interval_width": ev.width,
            "identity_gap": gap,
            "solver_gap": abs(solved.rho - measured.rho),
        },
    )


@functools.cache
def _expected_tnrk_host(k):
    """The expected host for k, built once, so its canonical form and
    encoding are kept on it."""
    return complete(3) if k == 4 else star(k)


def verify_corollary_tnrk(n, r, k, cache_dir=None):
    """Check that the unique spectral-radius maximizer among t = k-1 embedded
    edges is the expected host (triangle at k = 4, star otherwise) placed in
    a smallest part.

    Inapplicable when the expected host does not fit a smallest part, which
    happens only below n = r*k.  The host classes are read from, or written
    to, ``cache_dir`` when one is given.
    """
    if r < 2 or not 2 <= k <= 6:
        return _inapplicable(
            "cor-tnrk", {"n": n, "r": r, "k": k}, "parameters out of verified range"
        )
    t = k - 1
    sizes = turan_part_sizes(n, r)
    expected_host = _expected_tnrk_host(k)
    params = {"n": n, "r": r, "k": k, "part_sizes": list(sizes)}
    if expected_host.n > sizes[0]:
        return _inapplicable("cor-tnrk", params, "expected host does not fit a smallest part")
    family = enumerate_embeddings(n, r, t, cache_dir=cache_dir)
    detail = _spex_detail(family.members)

    hosts = [None] * r
    hosts[0] = expected_host
    expected_key = MultipartiteEmbedding(sizes, hosts).key()
    winners = detail.winners
    ok = len(winners) == 1 and winners[0].key() == expected_key
    return VerificationReport(
        theorem="cor-tnrk",
        parameters=params,
        verdict="pass" if ok else "fail",
        witnesses=[sys.intern(repr(w)) for w in winners],
        details={
            "family_size": len(family),
            "rho_max": detail.top,
            "margin": None if detail.runner_up is None else detail.top - detail.runner_up,
            # A scan keeps one report per n, and the same few hosts recur.
            "winner_hosts": [
                [sys.intern(to_graph6(h)) for h in w.hosts if h is not None] for w in winners
            ],
            "expected_host": sys.intern(to_graph6(expected_host)),
        },
    )

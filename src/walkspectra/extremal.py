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
import os
import sys
from dataclasses import dataclass, field
from itertools import product

from .errors import FormatError, GraphError, SeriesError, SpectralError
from .graphio import read_graph6, to_graph6, write_graph6
from .graphs import (
    MultipartiteEmbedding,
    canonical_form,
    complete,
    star,
    turan_part_sizes,
)
from .series import f_resolvent, solve_rho_series
from .spectral import dense_radius, power_radius
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
ORACLE_AGREEMENT = 1e-9

# Jacobi sweeps are Python loops, so only candidates this close to the
# maximum, the ones that can influence the argmax decision, are checked.
_CROSS_CHECK_WINDOW = 1e-7


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


def _cache_path(cache_dir, name):
    if cache_dir is None:
        return None
    os.makedirs(cache_dir, exist_ok=True)
    return os.path.join(cache_dir, name)


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

    path = _cache_path(cache_dir, f"m_edge_{m}.g6")
    if path is not None and os.path.exists(path):
        try:
            members = read_graph6(path)
        except (FormatError, UnicodeDecodeError):
            members = []  # damaged cache; regenerate below
        if len(members) == M_EDGE_COUNTS[m - 1] and all(
            g.num_edges == m and min(g.degrees) > 0 for g in members
        ):
            return EnumerationFamily(f"m-edge:m={m}", members)

    members = list(_m_edge_classes(m))
    if path is not None:
        # Write beside the target and rename, so a reader never sees a
        # partly written file.
        tmp = f"{path}.{os.getpid()}.tmp"
        write_graph6(members, tmp)
        os.replace(tmp, path)
    return EnumerationFamily(f"m-edge:m={m}", members)


@functools.cache
def _m_edge_classes(m):
    """The m-edge classes in canonical-byte order, generated once per
    process; graphs are immutable, so callers share them."""
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
    return tuple(level[k] for k in sorted(level))


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
    max_tries=200,
):
    """Random embedding: r parts with sizes in part_range and t embedded
    edges split uniformly over the parts, each part's host drawn from the
    classes that fit.  Resamples until every assigned edge count fits."""
    for _ in range(max_tries):
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
            fits = [
                h
                for h in enumerate_m_edge(c, cache_dir=cache_dir).members
                if h.n <= size
            ]
            if not fits:
                ok = False
                break
            hosts.append(rng.choice(fits))
        if ok:
            return MultipartiteEmbedding(sizes, hosts)
    raise GraphError("could not sample a fitting embedding")


# ---- spectral argmax -------------------------------------------------------


def _radius(member):
    """Power-iteration radius of an embedding's quotient (a graph's adjacency
    matrix) and that matrix; an unconverged run never feeds a verdict."""
    if isinstance(member, MultipartiteEmbedding):
        a, sizes = member.quotient()
    else:
        a, sizes = member.adjacency(float), [1] * member.n
    res = power_radius(a, sizes, tol=1e-12)
    if not res.converged:
        raise SpectralError(
            f"power iteration did not converge on a matrix of order {len(a)} "
            f"(residual {res.residual:.3e} after {res.iterations} iterations)"
        )
    return res, a


@dataclass
class _SpexDetail:
    members: list
    rhos: list
    top: float
    winners: list


def _spex_detail(members, tol=SPEX_TIE_TOL):
    members = list(members)
    if not members:
        raise ValueError("family must be nonempty")
    radii = [_radius(m) for m in members]
    rhos = [res.rho for res, _ in radii]
    top = max(rhos)
    window = max(_CROSS_CHECK_WINDOW, 10 * tol)
    for res, a in radii:
        if res.rho >= top - window:
            other = dense_radius(a)
            if abs(other - res.rho) > ORACLE_AGREEMENT:
                raise SpectralError(
                    f"spectral oracles disagree by {abs(other - res.rho):.3e} "
                    f"on a matrix of order {len(a)}"
                )
    winners = [m for m, rho in zip(members, rhos) if rho >= top - tol]
    return _SpexDetail(members=members, rhos=rhos, top=top, winners=winners)


def spex(family, tol=SPEX_TIE_TOL):
    """Members of maximum spectral radius, ties within tol kept.

    Radii come from power iteration on each embedding's twin-class quotient
    (a graph's adjacency matrix); candidates near the maximum are
    cross-checked by the Jacobi solver on the same matrix.
    """
    members = family.members if isinstance(family, EnumerationFamily) else family
    return _spex_detail(members, tol=tol).winners


# ---- verifiers -------------------------------------------------------------


def _canon_set(graphs):
    return {canonical_form(g).data for g in graphs}


def verify_lemma_2degree(n, m, cache_dir=None):
    """Second-level filter of the order-n m-edge family: the star plus
    isolated vertices, with the triangle tying exactly at m = 3.  The family
    is read from, or written to, ``cache_dir`` when one is given."""
    if not 1 <= m <= 6:
        return VerificationReport(
            "lemma-2degree", {"n": n, "m": m}, "inapplicable",
            details={"reason": "m out of verified range 1..6"},
        )
    if not (m + 2 <= n <= 14):
        return VerificationReport(
            "lemma-2degree", {"n": n, "m": m}, "inapplicable",
            details={"reason": "n out of verified range m+2..14"},
        )
    family = enumerate_m_edge_order(n, m, cache_dir=cache_dir)
    survivors = ex_filter(family.members, 2)
    expected = [star(m + 1).add_isolated(n - m - 1)]
    if m == 3:
        expected.append(complete(3).add_isolated(n - 3))
    verdict = "pass" if _canon_set(survivors) == _canon_set(expected) else "fail"
    return VerificationReport(
        theorem="lemma-2degree",
        parameters={"n": n, "m": m},
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
        return VerificationReport(
            "cor-2inf", {"m": m}, "inapplicable",
            details={"reason": "m out of verified range 1..6"},
        )
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


def verify_one_set(s_size, t_size, host1, host2, n_range, tol=ORACLE_AGREEMENT):
    """Check that the walk comparison of two hosts predicts the ordering of
    the spectral radii of their embeddings, once the ambient graph is large.

    The ambient graph of order n is a clique of ``s_size`` vertices joined
    to an independent set; each host's edges are placed on the first
    ``t_size`` independent vertices: the complete (s_size+1)-partite
    embedding with single-vertex parts and the host in the last part, whose
    radius is taken on its quotient, of order s_size + t_size + 1 at any n.
    Reports the least tested n from which the sign of the radius difference
    matches the certificate for all larger tested n (the observed onset); a
    difference within ``tol`` of zero may be a tie, so it never matches.
    """
    if s_size < 1:
        raise GraphError("clique side must have at least one vertex")
    if host1.n > t_size or host2.n > t_size:
        raise GraphError("hosts must fit in the designated vertex set")
    h1 = host1.add_isolated(t_size - host1.n)
    h2 = host2.add_isolated(t_size - host2.n)
    cert = walk_compare(h1, h2)

    ns = sorted(set(int(n) for n in n_range))
    if not ns:
        raise GraphError("empty n range")
    if ns[0] < s_size + t_size:
        raise GraphError(
            f"n must be at least s_size + t_size = {s_size + t_size}"
        )

    def radius(host, n):
        parts = (1,) * s_size + (n - s_size,)
        return _radius(MultipartiteEmbedding(parts, (None,) * s_size + (host,)))[0].rho

    diffs = [(n, radius(h1, n) - radius(h2, n)) for n in ns]

    if cert.ordering is Ordering.EQUAL:
        ok_all = all(abs(d) <= tol for _, d in diffs)
        onset = ns[0] if ok_all else None
        verdict = "pass" if ok_all else "fail"
    else:
        want = 1.0 if cert.ordering is Ordering.GREATER else -1.0
        onset = None
        for n, d in reversed(diffs):
            if d * want <= tol:
                break
            onset = n
        verdict = "pass" if onset is not None else "fail"

    return VerificationReport(
        theorem="one-set",
        parameters={
            "s_size": s_size,
            "t_size": t_size,
            "host1": to_graph6(h1),
            "host2": to_graph6(h2),
            "n_min": ns[0],
            "n_max": ns[-1],
        },
        verdict=verdict,
        witnesses=[to_graph6(h1), to_graph6(h2)],
        details={
            "ordering": cert.ordering.value,
            "witness_index": cert.witness_index,
            "onset": onset,
            "diffs": [[n, d] for n, d in diffs],
        },
    )


def verify_multi_set(embedding, tol=1e-8):
    """Check the series identity at the measured spectral radius and the
    agreement of the series solver with power iteration, which runs on the
    embedding's twin-class quotient.

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
        return VerificationReport(
            "multi-set", params, "inapplicable",
            details={
                "reason": "spectral radius does not exceed max host degree",
                "rho_power": measured.rho,
            },
        )
    try:
        ev = f_resolvent(embedding, measured.rho)
        solved = solve_rho_series(embedding, tol=min(tol, 1e-10))
    except SeriesError as exc:  # includes HypothesisNotMet
        return VerificationReport(
            "multi-set", params, "inapplicable",
            details={"reason": str(exc), "rho_power": measured.rho},
        )
    gap = max(0.0, ev.value_lo - target, target - ev.value_hi)
    identity_ok = gap <= tol
    solver_ok = solved.converged and abs(solved.rho - measured.rho) <= tol
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


def _expected_tnrk_host(k):
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
        return VerificationReport(
            "cor-tnrk", {"n": n, "r": r, "k": k}, "inapplicable",
            details={"reason": "parameters out of verified range"},
        )
    t = k - 1
    sizes = turan_part_sizes(n, r)
    expected_host = _expected_tnrk_host(k)
    params = {"n": n, "r": r, "k": k, "part_sizes": list(sizes)}
    if expected_host.n > sizes[0]:
        return VerificationReport(
            "cor-tnrk", params, "inapplicable",
            details={"reason": "expected host does not fit a smallest part"},
        )
    family = enumerate_embeddings(n, r, t, cache_dir=cache_dir)
    detail = _spex_detail(family.members)

    hosts = [None] * r
    hosts[0] = expected_host
    expected_key = MultipartiteEmbedding(sizes, hosts).key()
    winners = detail.winners
    ok = len(winners) == 1 and winners[0].key() == expected_key

    runner_up = None
    winner_set = {id(w) for w in winners}
    others = [rho for m, rho in zip(detail.members, detail.rhos) if id(m) not in winner_set]
    if others:
        runner_up = detail.top - max(others)

    return VerificationReport(
        theorem="cor-tnrk",
        parameters=params,
        verdict="pass" if ok else "fail",
        witnesses=[repr(w) for w in winners],
        details={
            "family_size": len(family),
            "rho_max": detail.top,
            "margin": runner_up,
            "winner_hosts": [
                [to_graph6(h) for h in w.hosts if h is not None] for w in winners
            ],
            "expected_host": to_graph6(expected_host),
        },
    )

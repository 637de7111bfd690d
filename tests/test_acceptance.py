"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single `criterion N: PASS/FAIL` line (run pytest with -s
to see them on success).  Runtime limits are asserted alongside the
numerical checks.
"""

import random
import time
from itertools import combinations

import pytest

from conftest import (
    exact_denominator,
    exact_inner_fraction,
    frac_geq,
    frac_leq,
    random_graph,
)
from walkspectra import (
    complete,
    empty,
    entry_series,
    f_eval,
    perron_normalized,
    rho_dense,
    rho_power,
    solve_rho_series,
    star,
    to_graph6,
    walk_profile,
)
from walkspectra.extremal import (
    enumerate_m_edge,
    enumerate_m_edge_order,
    sample_embedding,
    verify_corollary_2inf,
    verify_corollary_tnrk,
    verify_lemma_2degree,
    verify_one_set,
)
from walkspectra.series import inner_series


def announce(idx, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {idx}: {status} ({detail})")
    assert ok, f"criterion {idx}: {detail}"


@pytest.fixture(scope="module")
def random_corpus():
    rng = random.Random(20240817)
    return [random_graph(rng, rng.randint(1, 20), rng.random()) for _ in range(500)]


@pytest.fixture(scope="module")
def family_corpus():
    seen = {}
    for m in range(1, 7):
        for g in enumerate_m_edge(m).members:
            seen.setdefault((g.n, g._key()), g)
        for n in range(m + 2, 13):
            for g in enumerate_m_edge_order(n, m).members:
                seen.setdefault((g.n, g._key()), g)
    return list(seen.values())


def test_criterion_1_walk_identities(random_corpus):
    t0 = time.perf_counter()
    failures = 0
    for g in random_corpus:
        prof = walk_profile(g, 31)
        if prof.total(1) != 2 * g.num_edges:
            failures += 1
        if prof.total(2) != sum(d * d for d in g.degrees):
            failures += 1
        nbrs = g.neighbor_lists
        for lvl in range(1, 31):
            cur, nxt = prof.counts(lvl), prof.counts(lvl + 1)
            if any(nxt[u] != sum(cur[v] for v in nbrs[u]) for u in range(g.n)):
                failures += 1
                break
    elapsed = time.perf_counter() - t0
    announce(
        1,
        failures == 0 and elapsed < 10.0,
        f"500 graphs, depth 31 recurrence, {elapsed:.1f}s",
    )


def test_criterion_2_reference_walk_numbers():
    w_triangle = walk_profile(complete(3), 3).total(3)
    w_star = walk_profile(star(4), 3).total(3)
    announce(
        2,
        w_triangle == 24 and w_star == 18,
        f"W3(K3)={w_triangle}, W3(K_1,3)={w_star}",
    )


def test_criterion_3_two_degree_filter():
    t0 = time.perf_counter()
    bad = []
    count = 0
    for m in range(1, 7):
        for n in range(m + 2, 13):
            rep = verify_lemma_2degree(n, m)
            count += 1
            expected_two = m == 3
            if not rep.passed or (len(rep.witnesses) == 2) != expected_two:
                bad.append((n, m, rep.verdict))
    elapsed = time.perf_counter() - t0
    announce(
        3,
        not bad and elapsed < 120.0,
        f"{count} (m, n) pairs verified, {elapsed:.1f}s" + (f", bad={bad}" if bad else ""),
    )


def test_criterion_4_levels_and_stability():
    t0 = time.perf_counter()
    bad = []
    for m in range(1, 7):
        rep = verify_corollary_2inf(m)
        if not rep.passed or len(rep.details["level3"]) != 1:
            bad.append((m, rep.verdict))
    elapsed = time.perf_counter() - t0
    announce(4, not bad and elapsed < 120.0, f"m=1..6, {elapsed:.1f}s")


def test_criterion_5_oracle_agreement(random_corpus, family_corpus):
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for g in random_corpus + family_corpus:
        if g.n > 64:
            continue
        gap = abs(rho_power(g).rho - rho_dense(g).rho)
        worst = max(worst, gap)
        count += 1
    elapsed = time.perf_counter() - t0
    announce(
        5,
        worst <= 1e-9,
        f"{count} graphs, max |power - dense| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_series_identity():
    t0 = time.perf_counter()
    rng = random.Random(61803)
    done = 0
    worst_identity = 0.0
    worst_solver = 0.0
    while done < 100:
        emb = sample_embedding(rng, r_range=(2, 4), part_range=(2, 30), t_range=(1, 5))
        measured = rho_power(emb.realize()).rho
        if measured <= emb.delta + 0.25:
            continue
        ev = f_eval(emb, measured, 48)
        target = float(emb.r - 1)
        gap = max(0.0, ev.value_lo - target, target - ev.value_hi)
        worst_identity = max(worst_identity, gap)
        solved = solve_rho_series(emb)
        worst_solver = max(worst_solver, abs(solved.rho - measured))
        done += 1
    elapsed = time.perf_counter() - t0
    announce(
        6,
        worst_identity <= 1e-8 and worst_solver <= 1e-8 and elapsed < 60.0,
        f"100 embeddings, identity gap {worst_identity:.2e}, "
        f"solver gap {worst_solver:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_entry_brackets():
    # Measured Perron entries carry the eigensolver's own error (~1e-10 at
    # these sizes), so containment is checked with a 1e-9 measurement slack;
    # the certified widths themselves must be below 1e-9 at depth 64.
    t0 = time.perf_counter()
    rng = random.Random(27182)
    done = 0
    contained = True
    max_width = 0.0
    while done < 50:
        emb = sample_embedding(rng, r_range=(2, 4), part_range=(12, 30), t_range=(1, 5))
        g = emb.realize()
        rho = rho_power(g).rho
        if rho <= emb.delta + 1.0:
            continue
        for i, (size, host) in enumerate(zip(emb.part_sizes, emb.hosts)):
            part = list(emb.part_range(i))
            outside = [v for v in range(g.n) if v not in set(part)]
            res = perron_normalized(g, outside)
            padded = (host or empty(0)).add_isolated(size - (host.n if host else 0))
            for local, v in enumerate(part):
                es = entry_series(padded, local, rho, 64)
                max_width = max(max_width, es.width)
                if not (es.lower - 1e-9 <= res.vector[v] <= es.upper + 1e-9):
                    contained = False
        done += 1
    elapsed = time.perf_counter() - t0
    announce(
        7,
        contained and max_width < 1e-9 and elapsed < 60.0,
        f"50 embeddings, max interval width {max_width:.2e}, {elapsed:.1f}s",
    )


def test_criterion_8_walk_order_predicts_radius_order():
    t0 = time.perf_counter()
    s_size = 3
    results = []
    for t_size in (4, 5, 6):
        hosts = [g for g in enumerate_m_edge(3).members if g.n <= t_size]
        for h1, h2 in combinations(hosts, 2):
            rep = verify_one_set(
                s_size, t_size, h1, h2, range(s_size + t_size, 201)
            )
            onset = rep.details["onset"]
            results.append(
                (
                    t_size,
                    to_graph6(h1),
                    to_graph6(h2),
                    rep.passed and onset is not None and onset <= 200,
                    onset,
                )
            )
    elapsed = time.perf_counter() - t0
    bad = [r for r in results if not r[3]]
    max_onset = max(r[4] for r in results if r[4] is not None)
    announce(
        8,
        not bad and elapsed < 180.0,
        f"{len(results)} host pairs, max onset {max_onset}, {elapsed:.1f}s"
        + (f", bad={bad}" if bad else ""),
    )


def test_criterion_9_turan_embedding_winners():
    t0 = time.perf_counter()
    onsets = {}
    bad = []
    for r in (2, 3):
        for k in (2, 3, 4, 5):
            onset = None
            n_lo = r * k
            for n in range(n_lo, 61):
                rep = verify_corollary_tnrk(n, r, k)
                if rep.passed:
                    if onset is None:
                        onset = n
                else:
                    onset = None
            if onset is None:
                bad.append((r, k))
            onsets[(r, k)] = onset
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"r={r},k={k}: onset {n}" for (r, k), n in onsets.items())
    announce(
        9,
        not bad and elapsed < 600.0,
        f"{detail}, {elapsed:.1f}s" + (f", unstable={bad}" if bad else ""),
    )


def test_criterion_10_certified_interval_soundness():
    t0 = time.perf_counter()
    rng = random.Random(31415)
    probes = 0
    sound = True
    while probes < 1000:
        emb = sample_embedding(rng)
        for host in emb.hosts:
            if host is None or probes >= 1000:
                continue
            x = host.max_degree() + 0.25 + 6 * rng.random()
            depth = rng.randint(2, 24)
            iv = inner_series(host, x, depth)
            deeper = exact_inner_fraction(host, x, depth + 40)
            infinite = (exact_denominator(0, host, x) - 1).as_integer_ratio()
            for num, den in (deeper, infinite):
                if not (frac_geq(num, den, iv.lo) and frac_leq(num, den, iv.hi)):
                    sound = False
            probes += 1
    elapsed = time.perf_counter() - t0
    announce(
        10,
        sound and elapsed < 30.0,
        f"{probes} probes at depth L checked against exact depth L+40 and the "
        f"exact infinite sum, {elapsed:.1f}s",
    )

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    eig_rho,
    exact_denominator,
    exact_inner_fraction,
    exact_part_sum,
    frac_geq,
    frac_leq,
    random_graph,
)
from walkspectra import (
    HypothesisNotMet,
    MultipartiteEmbedding,
    SeriesError,
    complete,
    cycle,
    empty,
    entry_series,
    f_eval,
    f_resolvent,
    inner_series,
    perron_normalized,
    rho_power,
    solve_rho_series,
    star,
    tail_bound,
)
from walkspectra.extremal import enumerate_m_edge, sample_embedding
from walkspectra.graphio import to_graph6
from walkspectra.intervals import Ival
from walkspectra.series import (
    SOLVE_TOL,
    _part_plan,
    _probe_plan,
    _resolvent_denominator,
    _resolvent_probe,
)


class TestEntrySeries:
    def test_triangle_entry_converges_to_three(self):
        # 1 + sum (2/3)^i = 3 for a triangle vertex at rho = 3
        for depth in (8, 16, 32, 64):
            es = entry_series(complete(3), 0, 3.0, depth)
            assert es.lower <= 3.0 <= es.upper
        assert entry_series(complete(3), 0, 3.0, 64).width < 1e-9

    def test_isolated_vertex_exact_one(self):
        host = empty(1)
        for depth in (1, 5, 40):
            es = entry_series(host, 0, 7.5, depth)
            assert es.lower <= 1.0 <= es.upper
            assert es.width < 1e-14

    def test_single_edge_shallow(self):
        es = entry_series(complete(2), 0, 10.0, 1)
        assert es.lower == pytest.approx(1.1, abs=1e-12)
        assert es.upper == pytest.approx(1.1 + (1.0 / 9.0) * (1.0 / 10.0), abs=1e-12)
        assert es.lower <= 1.1 <= es.upper

    def test_matches_perron_on_k4(self):
        # triangle fully joined to one apex: entries of the triangle side
        g = MultipartiteEmbedding((1, 3), (None, complete(3))).realize()
        res = perron_normalized(g, [0])
        for u in range(3):
            es = entry_series(complete(3), u, res.rho, 48)
            assert es.lower - 1e-9 <= res.vector[1 + u] <= es.upper + 1e-9

    def test_width_shrinks(self):
        widths = [entry_series(star(4), 1, 4.0, d).width for d in (4, 8, 16, 32)]
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] < widths[0] * 1e-6

    def test_requires_rho_above_degree(self):
        with pytest.raises(HypothesisNotMet):
            entry_series(star(5), 0, 4.0, 8)

    def test_rejects_foreign_vertex(self):
        with pytest.raises(Exception):
            entry_series(complete(3), 5, 10.0, 4)


class TestTailBound:
    def test_zero_degree_host(self):
        assert tail_bound(4, 0, 3.0, 7) == 0.0

    def test_worked_value(self):
        # the triangle's bound sum_{i>=3} 3 * 2^i / 4^(i+1), exactly
        assert tail_bound(3, 2, 4.0, 2) == 0.1875

    def test_dominates_geometric_sum_below_one(self):
        # sum_{i>=2} 0.5^i / 0.75^(i+1) = 16/9: with x < 1 the bound must
        # still reach it, not fall short by a factor x
        assert Fraction(tail_bound(1, 0.5, 0.75, 1)) >= Fraction(16, 9)

    def test_dominates_exact_tail(self):
        # host = triangle: W_i = 3 * 2^i exactly; tail from i = 3 at x = 4
        exact = Fraction(0)
        for i in range(3, 200):
            exact += Fraction(3 * 2**i, 4 ** (i + 1))
        # geometric closed form cross-check: first term * 1/(1 - 1/2)
        assert exact < Fraction(3 * 2**3, 4**4) * 2
        assert Fraction(tail_bound(3, 2, 4.0, 2)) >= exact

    def test_doubling_halves_at_ratio_two(self):
        for depth in (2, 4, 8, 16):
            a = tail_bound(5, 3, 6.0, depth)
            b = tail_bound(5, 3, 6.0, 2 * depth)
            assert b <= a / 2

    def test_requires_x_above_delta(self):
        with pytest.raises(HypothesisNotMet):
            tail_bound(3, 2, 2.0, 4)


class TestInnerSeries:
    def test_empty_host_exact_zero(self):
        iv = inner_series(None, 5.0, 9)
        assert iv.lo == iv.hi == 0.0
        iv = inner_series(empty(3), 5.0, 9)
        assert iv.lo == iv.hi == 0.0

    def test_empty_host_still_checks_x_and_depth(self):
        with pytest.raises(HypothesisNotMet):
            inner_series(empty(3), math.nan, 8)
        with pytest.raises(SeriesError):
            inner_series(None, -5.0, 0)

    def test_encloses_exact_truncation(self, rng):
        # deeper exact partial sums must stay inside shallower enclosures
        for _ in range(40):
            e = sample_embedding(rng)
            host = next((h for h in e.hosts if h is not None), None)
            if host is None:
                continue
            x = host.max_degree() + 0.25 + 4 * rng.random()
            depth = rng.randint(2, 24)
            iv = inner_series(host, x, depth)
            num, den = exact_inner_fraction(host, x, depth + 40)
            assert frac_geq(num, den, iv.lo)
            assert frac_leq(num, den, iv.hi)

    def test_triangle_closed_form(self):
        # sum 3*2^i/3^(i+1) = 2
        iv = inner_series(complete(3), 3.0, 80)
        assert iv.lo <= 2.0 <= iv.hi
        assert iv.hi - iv.lo < 1e-9


class TestFEval:
    def test_hostless_2_2(self):
        e = MultipartiteEmbedding((2, 2))
        ev = f_eval(e, 2.0, 10)
        assert ev.value_lo <= 1.0 <= ev.value_hi
        assert ev.width < 1e-13
        assert ev.tail_bound == 0.0

    def test_k4_identity_point(self):
        e = MultipartiteEmbedding((1, 3), (None, complete(3)))
        ev = f_eval(e, 3.0, 60)
        assert ev.value_lo <= 1.0 <= ev.value_hi
        assert ev.width < 1e-9

    def test_one_edge_identity_at_measured_rho(self):
        e = MultipartiteEmbedding((3, 3), (complete(2), None))
        rho = rho_power(e.realize()).rho
        ev = f_eval(e, rho, 48)
        assert ev.value_lo - 1e-9 <= 1.0 <= ev.value_hi + 1e-9

    def test_strictly_increasing(self):
        e = MultipartiteEmbedding((4, 5), (complete(3), complete(2)))
        xs = [2.6, 3.0, 3.7, 5.0, 8.0]
        evs = [f_eval(e, x, 60) for x in xs]
        for a, b in zip(evs, evs[1:]):
            assert b.value_lo + 2 * b.width > a.value_lo
            assert 0.5 * (b.value_lo + b.value_hi) > 0.5 * (a.value_lo + a.value_hi)

    def test_enclosure_of_deeper_evaluation(self, rng):
        for _ in range(25):
            e = sample_embedding(rng)
            x = e.delta + 0.5 + 6 * rng.random()
            depth = rng.randint(2, 20)
            shallow = f_eval(e, x, depth)
            deep = f_eval(e, x, depth + 40)
            mid = 0.5 * (deep.value_lo + deep.value_hi)
            assert shallow.value_lo <= mid <= shallow.value_hi

    def test_width_shrinks_with_depth(self):
        e = MultipartiteEmbedding((2, 3), (None, complete(3)))
        widths = [f_eval(e, 3.4, d).width for d in (4, 8, 16, 32)]
        assert widths == sorted(widths, reverse=True)

    def test_requires_x_above_delta(self):
        e = MultipartiteEmbedding((1, 3), (None, complete(3)))
        with pytest.raises(HypothesisNotMet):
            f_eval(e, 2.0, 8)


def exact_tail(host, x, depth):
    """The host's tail bound as an exact Fraction: W_L D / (x^(L+1) (x - D)),
    with W_L = 1^T A^L 1 from exact integer matrix-vector products."""
    a = [[int(v) for v in row] for row in host.adj]
    vec = [1] * host.n
    for _ in range(depth):
        vec = [sum(aij * vj for aij, vj in zip(row, vec)) for row in a]
    x, d = Fraction(x), host.max_degree()
    return sum(vec) * d / (x ** (depth + 1) * (x - d))


def exact_entry(host, u, x, depth):
    """sum_{i=0..depth} w_i(u) / x^i, with w_i(u) = (A^i 1)_u from exact
    integer matrix-vector products, and the last count w_depth(u)."""
    a = [[int(v) for v in row] for row in host.adj]
    vec, total = [1] * host.n, Fraction(1)
    for i in range(1, depth + 1):
        vec = [sum(aij * vj for aij, vj in zip(row, vec)) for row in a]
        total += Fraction(vec[u]) / Fraction(x) ** i
    return total, vec[u]


def assert_rounded_up(hi, exact):
    """hi is the smallest float at or above exact."""
    assert Fraction(math.nextafter(hi, -math.inf)) < exact <= Fraction(hi)


def assert_rounded_once(lo, hi, exact_lo, exact_hi):
    """lo is the largest float at or below exact_lo, and hi the smallest
    float at or above exact_hi."""
    assert Fraction(lo) <= exact_lo < Fraction(math.nextafter(lo, math.inf))
    assert_rounded_up(hi, exact_hi)


class TestTruncatedRounding:
    """The truncated series are exact rationals, rounded once per end."""

    @staticmethod
    def cases(rng, count):
        for i in range(count):
            e = sample_embedding(rng)
            gap = 1e-6 if i % 4 == 0 else 0.25 + 4 * rng.random()
            yield e, e.delta + gap, rng.randint(1, 64)

    def test_inner_series(self, rng):
        for e, x, depth in self.cases(rng, 40):
            for host in e.hosts:
                if host is None or host.num_edges == 0:
                    continue
                iv = inner_series(host, x, depth)
                body = Fraction(*exact_inner_fraction(host, x, depth))
                assert_rounded_once(iv.lo, iv.hi, body, body + exact_tail(host, x, depth))

    def test_entry_series(self, rng):
        for e, x, depth in self.cases(rng, 15):
            for host in e.hosts:
                if host is None:
                    continue
                d = host.max_degree()
                for u in range(host.n):
                    es = entry_series(host, u, x, depth)
                    body, last = exact_entry(host, u, x, depth)
                    tail = Fraction(d) / (Fraction(x) - d) * last / Fraction(x) ** depth
                    assert_rounded_once(es.lower, es.upper, body, body + tail)

    def test_f_eval_and_its_tail_bound(self, rng):
        for e, x, depth in self.cases(rng, 40):
            ev = f_eval(e, x, depth)
            lo = hi = tails = Fraction(0)
            for size, host in zip(e.part_sizes, e.hosts):
                head = 1 + Fraction(size) / Fraction(x)
                if host is not None and host.num_edges:
                    head += Fraction(*exact_inner_fraction(host, x, depth))
                    tail = exact_tail(host, x, depth)
                else:
                    tail = Fraction(0)
                lo += 1 / (head + tail)
                hi += 1 / head
                tails += tail
            assert_rounded_once(ev.value_lo, ev.value_hi, lo, hi)
            assert_rounded_up(ev.tail_bound, tails)

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_tail_reaches_the_infinite_sum(self, rng, depth):
        # Near the max degree a truncation at depth 2-4 falls far short of
        # the infinite sum: only the tail term lifts the upper end over it.
        for _ in range(20):
            e = sample_embedding(rng)
            x = e.delta + 0.5 * rng.random() + 1e-3
            assert exact_part_sum(e, x) >= Fraction(f_eval(e, x, depth).value_lo)
            for host in e.hosts:
                if host is not None and host.num_edges:
                    infinite = exact_denominator(0, host, x) - 1
                    assert infinite <= Fraction(inner_series(host, x, depth).hi)
        # In a d-regular host every entry series is sum (d/x)^i = x/(x - d);
        # an added isolated vertex has entry exactly 1.
        for host in (complete(2), complete(3), complete(4), cycle(5).add_isolated(2)):
            d = host.max_degree()
            for x in (d + 1e-3, d + 0.5):
                for u in range(host.n):
                    limit = Fraction(x) / (Fraction(x) - d) if host.degree(u) else 1
                    assert limit <= Fraction(entry_series(host, u, x, depth).upper)

    @pytest.mark.parametrize("x", [math.inf, 1e308])
    def test_huge_x_encloses_the_limit(self, x):
        # As x grows every series tends to its leading 1 (or 0): entries
        # to 1, inner sums to 0 and f to the number of parts.
        host = complete(3)
        e = MultipartiteEmbedding((2, 4), (complete(2), host))
        iv = inner_series(host, x, 16)
        assert iv.lo <= 0.0 <= iv.hi <= 5e-324
        es = entry_series(host, 0, x, 16)
        assert es.lower <= 1.0 <= es.upper <= math.nextafter(1.0, 2.0)
        ev = f_eval(e, x, 16)
        assert ev.value_lo <= 2.0 <= ev.value_hi and ev.width <= 4.5e-16
        assert 0.0 <= tail_bound(3, 2, x, 16) <= 5e-324
        assert 0.0 <= ev.tail_bound <= 5e-324

    def test_nan_x_raises(self):
        host = complete(3)
        e = MultipartiteEmbedding((2, 4), (None, host))
        for call in (
            lambda: inner_series(host, math.nan, 8),
            lambda: entry_series(host, 0, math.nan, 8),
            lambda: f_eval(e, math.nan, 8),
            lambda: tail_bound(3, 2, math.nan, 8),
        ):
            with pytest.raises(HypothesisNotMet):
                call()


class TestFResolvent:
    def test_encloses_exact_infinite_sum(self, rng):
        for i in range(60):
            e = sample_embedding(rng)
            gap = 0.01 if i % 3 == 0 else 6 * rng.random() + 0.01
            x = e.delta + gap
            ev = f_resolvent(e, x)
            exact = exact_part_sum(e, x)
            assert Fraction(ev.value_lo) <= exact <= Fraction(ev.value_hi)
            assert ev.depth == 0 and ev.tail_bound == 0.0

    def test_denominator_encloses_exact_sum(self, rng):
        # Close to the max degree the float solve is off by more than the
        # rounding slack, so only the certified error term keeps the exact
        # value inside.
        for _ in range(80):
            e = sample_embedding(rng)
            for size, host in zip(e.part_sizes, e.hosts):
                if host is None:
                    continue
                for gap in (1e-6, 0.01, 0.5):
                    x = host.max_degree() + gap
                    lo, hi = _resolvent_denominator(_part_plan(size, host), x)
                    exact = exact_denominator(size, host, x)
                    assert Fraction(lo) <= exact <= Fraction(hi)

    def test_overlaps_depth_64_series(self, rng):
        for _ in range(25):
            e = sample_embedding(rng)
            x = e.delta + 0.5 + 6 * rng.random()
            closed = f_resolvent(e, x)
            deep = f_eval(e, x, 64)
            assert closed.value_lo <= deep.value_hi
            assert deep.value_lo <= closed.value_hi
            assert Fraction(deep.value_lo) <= exact_part_sum(e, x) <= Fraction(deep.value_hi)

    def test_requires_x_above_delta(self):
        e = MultipartiteEmbedding((1, 3), (None, complete(3)))
        with pytest.raises(HypothesisNotMet):
            f_resolvent(e, 2.0)


def interval_denominator(part, x):
    """The series denominator computed with Ival arithmetic, operation by
    operation: the reference whose bits ``_resolvent_denominator`` must
    reproduce on float endpoints."""
    rest, host = part
    x_iv = Ival(x)
    head = Ival(1.0) + Ival(rest) / x_iv
    if host is None:
        return head
    neg_adj, ones, neighbor_lists, delta, k = host
    m = neg_adj.copy()
    np.fill_diagonal(m, x)
    y = np.linalg.solve(m, ones).tolist()
    res_norm = 0.0
    total = Ival(0.0)
    for u, nbrs in enumerate(neighbor_lists):
        yu = y[u]
        res = Ival(1.0) - x_iv * yu
        for v in nbrs:
            res = res + y[v]
        res_norm = max(res_norm, -res.lo, res.hi)
        total = total + yu
    err = (Ival(res_norm) / (x_iv - delta)).hi
    total = total + Ival(-err, err) * k
    return head + total


def interval_probe(plan, x):
    """The whole probe in Ival arithmetic: the sum of the parts' reciprocal
    denominators from Ival(0.0), the reference whose bits
    ``_resolvent_probe`` and ``f_resolvent`` must reproduce."""
    delta, parts = plan
    if not x > delta:
        raise HypothesisNotMet(f"x = {x} is not above {delta}")
    total = Ival(0.0)
    for part in parts:
        total = total + Ival(1.0) / interval_denominator(part, x)
    return total


def hex_ends(iv):
    return iv.lo.hex(), iv.hi.hex()


def hex_pair(pair):
    return tuple(map(float.hex, pair))


class TestDenominatorKernel:
    # At 2**-48 above the max degree Varah's error term outweighs the last
    # bit of sum(y), so the residual's roundings show in the result.
    GAPS = (2.0**-48, 2.0**-40, 1e-6, 0.01, 0.5, 3.0, 1e6)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_bits_match_interval_arithmetic(self, m):
        for host in enumerate_m_edge(m).members:
            for size in (host.n, host.n + 1, 30):
                part = _part_plan(size, host)
                for gap in self.GAPS:
                    x = host.max_degree() + gap
                    got = _resolvent_denominator(part, x)
                    want = interval_denominator(part, x)
                    assert hex_pair(got) == hex_ends(want), (to_graph6(host), size, gap)

    def test_hostless_and_infinite_x_bits(self):
        parts = [_part_plan(size, None) for size in (1, 2, 3, 30)]
        parts += [_part_plan(size, host) for host in enumerate_m_edge(3).members
                  for size in (host.n, 30)]
        for part in parts:
            for x in (0.1, 1.0 + 2.0**-40, 3.0, 1e6, math.inf):
                if part[1] is None or x > part[1][3]:
                    got = _resolvent_denominator(part, x)
                    assert hex_pair(got) == hex_ends(interval_denominator(part, x))

    @pytest.mark.parametrize("host", [None, star(3)])
    def test_nan_x_raises_like_intervals(self, host):
        part = _part_plan(4, host)
        with pytest.raises(ValueError):
            interval_denominator(part, math.nan)
        with pytest.raises(ValueError):
            _resolvent_denominator(part, math.nan)

    @pytest.mark.parametrize("host", [None, star(3)])
    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_non_positive_x_raises_like_intervals(self, host, x):
        part = _part_plan(4, host)
        with pytest.raises(ZeroDivisionError):
            interval_denominator(part, x)
        with pytest.raises(ZeroDivisionError):
            _resolvent_denominator(part, x)


class TestProbeKernel:
    # The whole probe on float endpoints against interval_probe, through
    # both _resolvent_probe and f_resolvent.  A part of size n_H has
    # n_s - n_H = 0, where the head's low end sits one ulp below 1.
    GAPS = TestDenominatorKernel.GAPS
    HOSTLESS = ((1,), (30,), (1, 30))

    def assert_bits(self, sizes, hosts):
        e = MultipartiteEmbedding(sizes, hosts)
        plan = _probe_plan(e)
        for x in [e.delta + gap for gap in self.GAPS] + [math.inf]:
            want = hex_ends(interval_probe(plan, x))
            assert hex_pair(_resolvent_probe(plan, x)) == want, (sizes, hosts, x)
            ev = f_resolvent(e, x)
            assert hex_pair((ev.value_lo, ev.value_hi)) == want, (sizes, hosts, x)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_one_hosted_part(self, m):
        for host in enumerate_m_edge(m).members:
            for size in (host.n, host.n + 1, 30):
                for rest in self.HOSTLESS:
                    self.assert_bits((size, *rest), (host,) + (None,) * len(rest))
                    self.assert_bits((*rest, size), (None,) * len(rest) + (host,))

    def test_hostless_only(self):
        for sizes in ((1, 1), (1, 30), (30, 30), (2, 3, 30)):
            self.assert_bits(sizes, (None,) * len(sizes))

    @pytest.mark.parametrize("hosts", [(None, None), (star(3), None)])
    def test_nan_x_raises_like_intervals(self, hosts):
        e = MultipartiteEmbedding((4, 5), hosts)
        plan = _probe_plan(e)
        for probe in (interval_probe, _resolvent_probe):
            with pytest.raises(HypothesisNotMet):
                probe(plan, math.nan)
        with pytest.raises(HypothesisNotMet):
            f_resolvent(e, math.nan)

    def test_non_positive_denominator_raises_like_intervals(self):
        # n_s - n_H = -5 at x = 1 puts the head, so D_s, at -4.
        plan = (0.0, ((2.0, None), (-5.0, None)))
        for probe in (interval_probe, _resolvent_probe):
            with pytest.raises(ZeroDivisionError):
                probe(plan, 1.0)


class TestSolve:
    def test_hostless_square(self):
        e = MultipartiteEmbedding((2, 2))
        res = solve_rho_series(e)
        assert res.rho == pytest.approx(2.0, abs=1e-9)
        assert res.converged

    def test_k4(self):
        e = MultipartiteEmbedding((1, 3), (None, complete(3)))
        res = solve_rho_series(e)
        assert res.rho == pytest.approx(3.0, abs=1e-9)
        lo, hi = res.bracket
        assert lo <= 3.0 <= hi

    def test_matches_power_iteration(self):
        e = MultipartiteEmbedding((10, 10), (star(4), None))
        res = solve_rho_series(e)
        power = rho_power(e.realize()).rho
        assert abs(res.rho - power) <= 1e-8

    def test_random_embeddings(self, rng):
        done = 0
        while done < 15:
            e = sample_embedding(rng)
            power = rho_power(e.realize()).rho
            if power <= e.delta + 0.25:
                continue
            res = solve_rho_series(e)
            assert abs(res.rho - power) <= 1e-8
            assert res.bracket[0] <= power + 1e-9
            assert power - 1e-9 <= res.bracket[1]
            assert res.converged
            eig = eig_rho(e.realize())
            assert res.bracket[0] <= eig <= res.bracket[1]
            done += 1

    @pytest.mark.parametrize(
        "host",
        [complete(100), random_graph(random.Random(100), 100, 0.1)],
        ids=["complete-100", "gnp-100"],
    )
    def test_large_host(self, host):
        # The float probe solves these in tens of milliseconds; an exact
        # rational probe would take seconds on a host this large.
        e = MultipartiteEmbedding((120, 120), (host, None))
        res = solve_rho_series(e)
        assert res.converged
        assert res.bracket[0] <= eig_rho(e.realize()) <= res.bracket[1]

    def test_first_probe_on_the_root(self):
        # K_{1,4}: the bracket is (0, 4], so the first probe is rho = 2
        # itself and its enclosure straddles r - 1.
        e = MultipartiteEmbedding((1, 4))
        ev = f_resolvent(e, 2.0)
        assert ev.value_lo <= 1.0 <= ev.value_hi
        res = solve_rho_series(e)
        lo, hi = res.bracket
        assert res.converged
        assert res.iterations == 1
        assert lo <= 2.0 <= hi
        assert hi - lo <= SOLVE_TOL

    def test_refuses_uncertifiable_bracket(self):
        e = MultipartiteEmbedding((1, 5), (None, star(5)))
        with pytest.raises(HypothesisNotMet, match="^bracket low end"):
            solve_rho_series(e)

    def test_entry_bounds_via_part_normalization(self, rng):
        # Perron entries of part vertices, normalized so the complement sums
        # to rho, sit inside the certified entry brackets.
        done = 0
        while done < 8:
            e = sample_embedding(rng, part_range=(8, 16))
            g = e.realize()
            rho = rho_power(g).rho
            if rho <= e.delta + 1.0:
                continue
            for i, (size, host) in enumerate(zip(e.part_sizes, e.hosts)):
                part = list(e.part_range(i))
                outside = [v for v in range(g.n) if v not in set(part)]
                res = perron_normalized(g, outside)
                padded = (host or empty(0)).add_isolated(size - (host.n if host else 0))
                for local, v in enumerate(part):
                    es = entry_series(padded, local, rho, 48)
                    assert es.lower - 1e-9 <= res.vector[v] <= es.upper + 1e-9
            done += 1


import json
import math
import os
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import eig_rho, random_connected_graph, random_graph
from walkspectra import (
    Graph,
    MultipartiteEmbedding,
    SpectralError,
    complement,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    empty,
    path,
    perron_normalized,
    rho_dense,
    rho_power,
    star,
    turan,
)
from walkspectra import extremal, spectral
from walkspectra.extremal import enumerate_embeddings, sample_embedding
from walkspectra.graphio import from_graph6
from walkspectra.spectral import _jacobi_eigh, _round_robin, collatz_wielandt, power_radius


@st.composite
def symmetric_matrices(draw):
    """A symmetric matrix of order 1..64: zero, K_n, K_{a,b}, a random
    graph, two random graphs side by side, or random weighted entries."""
    n = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(("zero", "complete", "bipartite", "graph", "disjoint", "weighted")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "complete":
        return np.ones((n, n)) - np.eye(n)
    if kind == "bipartite":
        side = np.arange(n) < draw(st.integers(0, n))
        return (side[:, None] != side[None, :]).astype(float)
    if kind == "weighted":
        scale = draw(st.sampled_from((1e-3, 1.0, 1e3)))
        a = rng.uniform(-scale, scale, (n, n))
    else:
        a = (rng.random((n, n)) < draw(st.floats(0.0, 1.0))).astype(float)
        if kind == "disjoint":
            cut = draw(st.integers(0, n))
            a[:cut, cut:] = 0.0
    a = np.triu(a, 0 if kind == "weighted" else 1)
    return a + np.triu(a, 1).T


class TestRhoPower:
    def test_complete(self):
        assert rho_power(complete(4)).rho == pytest.approx(3.0, abs=1e-11)

    def test_cycle_bipartite(self):
        # C4 is bipartite: the shift must still give convergence
        assert rho_power(cycle(4)).rho == pytest.approx(2.0, abs=1e-11)

    def test_complete_bipartite(self):
        res = rho_power(complete_multipartite([2, 3]))
        assert res.rho == pytest.approx(math.sqrt(6), abs=1e-11)
        assert res.converged
        assert res.residual <= 1e-12

    def test_empty_and_trivial(self):
        assert rho_power(empty(5)).rho == 0.0
        assert rho_power(empty(0)).rho == 0.0

    def test_vector_nonnegative(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 15), 0.3)
            res = rho_power(g)
            assert (res.vector >= 0).all()

    def test_disconnected_dominant_component(self):
        g = disjoint_union(complete(4), path(3))
        assert rho_power(g).rho == pytest.approx(3.0, abs=1e-10)

    def test_iteration_cap_reports_best(self, monkeypatch):
        monkeypatch.setattr(spectral, "MAX_ITERATIONS", 50)
        res = rho_power(path(30))
        assert not res.converged
        assert res.iterations == 50
        assert abs(res.rho - eig_rho(path(30))) < 1e-2

    @pytest.mark.parametrize(
        "parts, host", [((10**4, 10**4), path(2)), ((10**4, 10**4 + 1), None)]
    )
    def test_large_bipartite_quotient_in_few_steps(self, parts, host):
        # Spectra near {rho, -rho, 0}: a fixed +1 shift would converge at
        # about (rho - 1) / (rho + 1), past the 10**6-step cap; the shift by
        # half the Rayleigh quotient gives about 1/3 at any size.
        q, sizes = MultipartiteEmbedding(parts, (host, None)).quotient()
        res = power_radius(q, sizes)
        assert res.converged and res.iterations <= 40
        assert res.rho == pytest.approx(np.linalg.eigvalsh(q)[-1], rel=1e-12)

    @pytest.mark.parametrize(
        "member, rho",
        [
            (path(8), 2 * math.cos(math.pi / 9)),
            (star(9), math.sqrt(8)),
            (complete_multipartite((3, 7)), math.sqrt(21)),
            (MultipartiteEmbedding((10**4, 3 * 10**4)), math.sqrt(3e8)),
            (complete(1), 0.0),
            (empty(5), 0.0),
            (disjoint_union(complete(4), path(3)), 3.0),
            (disjoint_union(star(5), empty(2)), 2.0),
        ],
        ids=["P8", "K1,8", "K3,7", "K1e4,3e4", "K1", "empty", "K4+P3", "K1,4+2K1"],
    )
    def test_iterates_stay_positive_and_end_in_the_bracket(self, member, rho):
        # A run stopped after s steps ends on the s-th iterate, so the runs
        # for s = 1, 2, ... see every iterate of the full run.
        for steps in range(1, 201):
            res, (lo, hi) = extremal._radius(member, steps)
            assert (res.vector > 0).all()
            if res.converged:
                break
        assert res.converged
        assert lo <= res.rho <= hi
        assert lo <= rho <= hi


ONSET_TABLE = os.path.join(os.path.dirname(__file__), "..", "bench", "expected", "onset_table.json")


def reference_power_radius(a, sizes, max_iterations):
    """power_radius's loop with a fresh array for every temporary: the
    reference for the bits of the buffered loop.  Returns (rho, residual,
    iterations, converged, vector)."""
    root = np.sqrt(sizes)
    floor = 2.0 * (len(sizes) + 2) * 2.0**-53
    x = root / math.sqrt(sum(sizes))
    rho, res, iterations = 0.0, math.inf, 0
    for iterations in range(1, max_iterations + 1):
        ax = a @ x
        rho = float(x @ ax)
        res = float((np.abs(ax - rho * x) / root).max())
        if res <= max(spectral.POWER_TOL, floor * rho):
            return rho, res, iterations, True, x
        y = ax + (0.5 * rho) * x
        x = y / math.sqrt(y @ y)
    return rho, res, iterations, False, x


def _one_set_quotients():
    """The one-set quotients of the onset table's host pairs (clique of 3)
    at n = s+t, s+t+1, 50, 200 and 10^9."""
    with open(ONSET_TABLE, encoding="utf-8") as fh:
        rows = json.load(fh)
    s, out = 3, []
    for row in rows:
        t = row["t_size"]
        for code in (row["h1"], row["h2"]):
            host = from_graph6(code)
            host = host.add_isolated(t - host.n)
            for n in (s + t, s + t + 1, 50, 200, 10**9):
                parts = (1,) * s + (n - s,)
                out.append(MultipartiteEmbedding(parts, (None,) * s + (host,)).quotient())
    return out


def _random_adjacencies():
    """Seeded random graphs: sparse and dense, disconnected, edgeless."""
    rng = random.Random(24)
    graphs = [empty(1), empty(6), disjoint_union(complete(4), path(3))]
    graphs += [random_graph(rng, rng.randint(1, 30), rng.choice((0.05, 0.3, 0.9))) for _ in range(30)]
    graphs += [
        disjoint_union(random_connected_graph(rng, rng.randint(1, 12), 0.4), empty(rng.randint(1, 4)))
        for _ in range(10)
    ]
    return [(g.adjacency(float), [1] * g.n) for g in graphs]


def _assert_matches_reference(a, sizes, steps):
    got = power_radius(a, sizes, max_iterations=steps)
    rho, res, iterations, converged, x = reference_power_radius(a, sizes, steps)
    assert (got.rho.hex(), got.residual.hex()) == (rho.hex(), res.hex())
    assert (got.iterations, got.converged) == (iterations, converged)
    assert got.vector.dtype == x.dtype and got.vector.tobytes() == x.tobytes()
    return got


class TestPowerKernel:
    # The first blocks are one and two steps long, so a cap of 3 ends a run
    # on a block's last step, and caps of 8, 16, 17 and 33 end runs inside
    # the predicted blocks that follow or on their last steps.
    @pytest.mark.parametrize(
        "steps",
        [spectral.MAX_ITERATIONS, 1, 3, 8, 16, 17, 33],
        ids=["full", "cap1", "cap3", "cap8", "cap16", "cap17", "cap33"],
    )
    @pytest.mark.parametrize("inputs", ["one-set", "embeddings", "random"])
    def test_same_bits_as_allocating_loop(self, inputs, steps):
        if inputs == "one-set":
            cases = _one_set_quotients()
        elif inputs == "embeddings":
            cases = [m.quotient() for m in enumerate_embeddings(60, 3, 4).members]
        else:
            cases = _random_adjacencies()
        for a, sizes in cases:
            _assert_matches_reference(a, sizes, steps)

    @pytest.mark.parametrize(
        "steps", [spectral.MAX_ITERATIONS, 1, 17], ids=["full", "cap1", "cap17"]
    )
    @pytest.mark.parametrize(
        "a, sizes",
        [
            (empty(6).adjacency(float), [1] * 6),
            (np.zeros((1, 1)), [1]),
            (np.zeros((4, 4)), [1, 2, 3, 4]),
        ],
        ids=["edgeless", "one-vertex", "all-zero"],
    )
    def test_zero_products_stop_at_step_one(self, a, sizes, steps):
        # The shifted sum is zero at step 1; a division by its norm would
        # raise under the suite's RuntimeWarning filter.
        got = _assert_matches_reference(a, sizes, steps)
        assert (got.rho, got.residual, got.iterations, got.converged) == (0.0, 0.0, 1, True)

    @pytest.mark.parametrize(
        "graph, steps, products",
        [
            (complete_multipartite((1, 2, 5)), 16, 16),
            (complete_multipartite((1, 2, 6)), 17, 17),
            (disjoint_union(complete(4), path(3)), 65, 65),
            (path(11), 128, 128),
            (complete(300), 1, 1),
            (complete_multipartite((100, 200)), 26, 26),
            (random_connected_graph(random.Random(150), 150, 0.3), 36, 36),
            (complement(Graph.from_edge_list(8, [(0, 2), (1, 3)])), 16, 17),
        ],
        ids=["K1,2,5", "K1,2,6", "K4+P3", "P11", "K300", "K100,200", "G150", "K8-2K2"],
    )
    def test_products_past_the_returned_step(self, monkeypatch, graph, steps, products):
        # Each block after the first two is as long as the residuals' rate
        # predicts, so a run computes no product past its returned step, at
        # any order, except where the prediction overshoots: on K8 less two
        # disjoint edges by one step, and the run returns a row before its
        # block's last.
        a = graph.adjacency(float)
        assert reference_power_radius(a, [1] * graph.n, spectral.MAX_ITERATIONS)[2] == steps
        counted, dot = [], np.dot
        monkeypatch.setattr(np, "dot", lambda m, *args: counted.append(m is a) or dot(m, *args))
        got = _assert_matches_reference(a, [1] * graph.n, spectral.MAX_ITERATIONS)
        assert got.converged
        assert sum(counted) == products


class TestRhoDense:
    def test_star(self):
        assert rho_dense(star(4)).rho == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_path3(self):
        assert rho_dense(path(3)).rho == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_turan_agrees_with_power(self):
        g = turan(7, 3)
        assert abs(rho_dense(g).rho - rho_power(g).rho) <= 1e-9

    def test_size_cap(self):
        with pytest.raises(SpectralError, match="64"):
            rho_dense(empty(65))

    def test_vector_is_eigenvector(self, rng):
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 20), 0.4)
            res = rho_dense(g)
            assert res.residual <= 1e-10
            assert (res.vector >= 0).all()

    def test_three_way_oracle_agreement(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 30), rng.random())
            a = rho_power(g).rho
            b = rho_dense(g).rho
            c = eig_rho(g)
            assert abs(a - b) <= 1e-9
            assert abs(a - c) <= 1e-9

    def test_sweeps_running_out_is_reported(self, monkeypatch):
        # After one sweep on turan(9,3)+(0,1) the top diagonal entry is
        # 6.2174 against the true 6.2473, with residual 0.26.
        g = turan(9, 3).with_edges([(0, 1)])
        monkeypatch.setattr(spectral, "JACOBI_MAX_SWEEPS", 1)
        res = rho_dense(g)
        assert not res.converged
        assert abs(res.rho - eig_rho(g)) > 1e-3


class TestJacobi:
    def test_round_robin_schedule(self):
        for n in range(1, 66):
            rounds = _round_robin(n)
            assert len(rounds) == (n - 1 if n % 2 == 0 else n)
            pairs = []
            for p, q in rounds:
                touched = [*p.tolist(), *q.tolist()]
                assert len(touched) == len(set(touched)) == 2 * (n // 2)
                assert (p < q).all()
                pairs += zip(p.tolist(), q.tolist())
            assert sorted(pairs) == [(i, j) for i in range(n) for j in range(i + 1, n)]

    @settings(max_examples=60)
    @given(symmetric_matrices())
    @example(np.zeros((7, 7)))
    @example(np.ones((9, 9)) - np.eye(9))
    def test_matches_library_eigensolver(self, a):
        w, v, _, converged = _jacobi_eigh(a)
        assert converged
        scale = max(1.0, float(np.abs(a).max()))
        assert np.abs(np.sort(w) - np.linalg.eigvalsh(a)).max() <= 1e-11 * scale
        assert np.abs(v.T @ v - np.eye(len(a))).max() <= 1e-12
        assert np.abs(a @ v - v * w).max() <= 1e-11 * scale


def _lollipop(clique, tail):
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    edges += [(clique - 1 + i, clique + i) for i in range(tail)]
    return Graph.from_edge_list(clique + tail, edges)


@st.composite
def radius_members(draw):
    """(kind, member): a sampled embedding, or a graph: K_n, K_{a,b}, a
    dense connected random graph, a sparse random graph (connected or
    not), or two random connected graphs side by side."""
    kind = draw(st.sampled_from(("embedding", "complete", "bipartite", "dense", "sparse", "disjoint")))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "embedding":
        return kind, sample_embedding(rng)
    n = draw(st.integers(1, 40))
    if kind == "complete":
        return kind, complete(n)
    if kind == "bipartite":
        return kind, complete_multipartite((n, draw(st.integers(1, 40))))
    if kind == "dense":
        return kind, random_connected_graph(rng, n, draw(st.floats(0.5, 1.0)))
    if kind == "sparse":
        return kind, random_graph(rng, n, draw(st.floats(0.0, 0.5)))
    return kind, disjoint_union(
        random_connected_graph(rng, rng.randint(1, 12), rng.random()),
        random_connected_graph(rng, rng.randint(1, 12), rng.random()),
    )


class TestCollatzWielandt:
    @settings(max_examples=80)
    @given(radius_members())
    @example(("complete", complete(1)))
    @example(("sparse", empty(6)))
    @example(("disjoint", disjoint_union(complete(4), star(6))))
    @example(("lollipop", _lollipop(12, 12)))
    def test_bracket_holds_radius(self, kind_member):
        kind, member = kind_member
        res, (lo, hi) = extremal._radius(member)
        g = member.realize() if isinstance(member, MultipartiteEmbedding) else member
        rho = eig_rho(g)
        assert lo <= rho <= hi
        assert lo <= res.rho <= hi
        # The iteration stops on an absolute residual, so a vertex with a
        # tiny Perron entry (the far end of a pendant path: the lollipop's
        # converged bracket is 0.096 rho wide) has a loose ratio.  Where the
        # entries are comparable, the converged bracket is tight.
        if kind in ("embedding", "complete", "bipartite", "dense"):
            assert hi - lo <= 1e-9 * rho

    @pytest.mark.parametrize("bad", [0.0, 1e-310, math.nan, math.inf, -1.0])
    def test_no_certificate_without_a_positive_vector(self, bad):
        b = complete(3).adjacency(float)
        lo, hi = collatz_wielandt(b, np.ones(3))
        assert lo < 2.0 < hi and hi - lo < 1e-14
        assert collatz_wielandt(b, np.array([1.0, bad, 1.0])) is None


class TestPerronNormalized:
    def test_k4_single_vertex(self):
        res = perron_normalized(complete(4), [0])
        assert res.vector == pytest.approx([3.0] * 4, abs=1e-9)

    def test_k22_side(self):
        res = perron_normalized(complete_multipartite([2, 2]), [0, 1])
        assert res.vector[:2].sum() == pytest.approx(2.0, abs=1e-10)

    def test_star_center(self):
        res = perron_normalized(star(5), [0])
        assert res.rho == pytest.approx(2.0, abs=1e-11)
        assert res.vector == pytest.approx([2.0, 1.0, 1.0, 1.0, 1.0], abs=1e-9)

    def test_rejects_disconnected(self):
        with pytest.raises(SpectralError, match="connected"):
            perron_normalized(disjoint_union(complete(2), complete(2)), [0])

    def test_rejects_empty_subset(self):
        with pytest.raises(SpectralError):
            perron_normalized(complete(3), [])

    def test_subset_must_hold_integers(self):
        # int() would truncate 1.7 to vertex 1.
        with pytest.raises(SpectralError, match="integers"):
            perron_normalized(complete(4), [1.7])
        res = perron_normalized(star(5), [np.int64(0)])
        assert res.vector == pytest.approx([2.0, 1.0, 1.0, 1.0, 1.0], abs=1e-9)

    def test_positive_entries_connected(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(2, 15), 0.3)
            res = perron_normalized(g, [0])
            assert (res.vector > 0).all()


class TestSubgraphMonotonicity:
    def test_sampled(self, rng):
        checked = 0
        while checked < 200:
            n = rng.randint(3, 16)
            g = random_connected_graph(rng, n, 0.4)
            edges = g.edges()
            keep = rng.sample(edges, rng.randint(1, len(edges)))
            h = None
            from walkspectra import Graph

            cand = Graph.from_edge_list(n, keep)
            comp = max(cand.components(), key=len)
            if len(comp) < 2:
                continue
            h = cand.induced(comp)
            rho_g = rho_power(g).rho
            rho_h = rho_power(h).rho
            assert rho_h <= rho_g + 1e-9
            if h.n < g.n or h.num_edges < g.num_edges:
                assert rho_h < rho_g
            checked += 1

    def test_join_bound_for_embeddings(self, rng):
        # realized radius never exceeds the hostless radius plus sqrt(2t)
        for _ in range(25):
            e = sample_embedding(rng)
            base = rho_power(e.hostless().realize()).rho
            full = rho_power(e.realize()).rho
            assert base - 1e-9 <= full <= base + math.sqrt(2 * e.t) + 1e-9

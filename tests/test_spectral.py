import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import eig_rho, random_connected_graph, random_graph
from walkspectra import (
    SpectralError,
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
from walkspectra.extremal import sample_embedding
from walkspectra.spectral import _jacobi_eigh, _round_robin


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

    def test_iteration_cap_reports_best(self):
        res = rho_power(path(30), tol=1e-30, max_iterations=50)
        assert not res.converged
        assert res.iterations == 50
        assert abs(res.rho - eig_rho(path(30))) < 1e-2

    def test_rejects_bad_tol(self):
        with pytest.raises(SpectralError):
            rho_power(complete(3), tol=0.0)


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
        w, v, _ = _jacobi_eigh(a)
        scale = max(1.0, float(np.abs(a).max()))
        assert np.abs(np.sort(w) - np.linalg.eigvalsh(a)).max() <= 1e-11 * scale
        assert np.abs(v.T @ v - np.eye(len(a))).max() <= 1e-12
        assert np.abs(a @ v - v * w).max() <= 1e-11 * scale


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

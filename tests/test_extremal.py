import dataclasses
import math
from itertools import combinations

import pytest

from conftest import eig_rho
from walkspectra import (
    Graph,
    GraphError,
    SpectralError,
    MultipartiteEmbedding,
    canonical_form,
    complete,
    disjoint_union,
    from_graph6,
    path,
    rho_power,
    solve_rho_series,
    star,
    to_graph6,
)
from walkspectra import extremal
from walkspectra.extremal import (
    enumerate_embeddings,
    enumerate_m_edge,
    enumerate_m_edge_order,
    sample_embedding,
    spex,
    verify_corollary_2inf,
    verify_corollary_tnrk,
    verify_lemma_2degree,
    verify_multi_set,
    verify_one_set,
)
from walkspectra.graphs import turan_part_sizes
from walkspectra.walks import Ordering, walk_compare


def _strip_isolated(g):
    keep = [u for u in range(g.n) if g.degree(u) > 0]
    return g.induced(keep)


def naive_m_edge_classes(m):
    """All m-edge no-isolated-vertex classes by raw subset search on K_{2m}."""
    n = 2 * m
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    for subset in combinations(pairs, m):
        g = _strip_isolated(Graph.from_edge_list(n, subset))
        seen.add(canonical_form(g).data)
    return seen


def connected_classes(c):
    """Connected c-edge classes by subset search on K_{c+1}."""
    n = c + 1
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    for subset in combinations(pairs, c):
        g = _strip_isolated(Graph.from_edge_list(n, subset))
        if g.n and g.is_connected():
            seen.add(canonical_form(g).data)
    return seen


def count_by_component_decomposition(m):
    """Class count via multisets of connected classes: an independent route
    from the edge-by-edge growth used by the library."""
    items = []
    for c in range(1, m + 1):
        items.extend([c] * len(connected_classes(c)))
    ways = [0] * (m + 1)
    ways[0] = 1
    for weight in items:
        for total in range(weight, m + 1):
            ways[total] += ways[total - weight]
    return ways[m]


class TestEnumerateMEdge:
    def test_m1(self):
        fam = enumerate_m_edge(1)
        assert len(fam) == 1
        assert fam.members[0] == complete(2)

    def test_m2(self):
        fam = enumerate_m_edge(2)
        keys = {canonical_form(g).data for g in fam}
        expected = {
            canonical_form(path(3)).data,
            canonical_form(disjoint_union(complete(2), complete(2))).data,
        }
        assert keys == expected

    def test_m3_members(self):
        fam = enumerate_m_edge(3)
        expected = [
            complete(3),
            path(4),
            star(4),
            disjoint_union(path(3), complete(2)),
            disjoint_union(disjoint_union(complete(2), complete(2)), complete(2)),
        ]
        assert {canonical_form(g).data for g in fam} == {
            canonical_form(g).data for g in expected
        }

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_naive_subset_oracle(self, m):
        got = {canonical_form(g).data for g in enumerate_m_edge(m)}
        assert got == naive_m_edge_classes(m)

    @pytest.mark.parametrize("m", [5, 6])
    def test_matches_component_decomposition(self, m):
        assert len(enumerate_m_edge(m)) == count_by_component_decomposition(m)

    def test_m7_structure(self):
        fam = enumerate_m_edge(7)
        keys = {canonical_form(g).data for g in fam}
        assert len(keys) == len(fam)
        for g in fam:
            assert g.num_edges == 7
            assert min(g.degrees) >= 1
            assert g.n <= 14

    def test_members_no_isolated(self):
        for m in range(1, 6):
            for g in enumerate_m_edge(m):
                assert min(g.degrees) >= 1
                assert g.num_edges == m

    def test_range_check(self):
        with pytest.raises(GraphError):
            enumerate_m_edge(0)
        with pytest.raises(GraphError):
            enumerate_m_edge(8)

    def test_cache_round_trip(self, tmp_path):
        fam1 = enumerate_m_edge(4, cache_dir=str(tmp_path))
        assert (tmp_path / "m_edge_4.g6").exists()
        fam2 = enumerate_m_edge(4, cache_dir=str(tmp_path))
        assert fam1.members == fam2.members

    def test_truncated_cache_regenerated(self, tmp_path):
        cache = tmp_path / "m_edge_4.g6"
        full = enumerate_m_edge(4, cache_dir=str(tmp_path)).members
        cache.write_text("".join(cache.read_text().splitlines(True)[:3]))
        fam = enumerate_m_edge(4, cache_dir=str(tmp_path))
        assert len(fam) == 11
        assert fam.members == full
        assert len(cache.read_text().splitlines()) == 11
        assert [p.name for p in tmp_path.iterdir()] == ["m_edge_4.g6"]

    def test_isolated_vertex_cache_regenerated(self, tmp_path):
        # Cg is P3 plus an isolated vertex: two edges, right class count.
        cache = tmp_path / "m_edge_2.g6"
        full = enumerate_m_edge(2, cache_dir=str(tmp_path)).members
        text = cache.read_text()
        assert "Bo\n" in text
        cache.write_text(text.replace("Bo\n", "Cg\n"))
        fam = enumerate_m_edge(2, cache_dir=str(tmp_path))
        assert fam.members == full
        assert cache.read_text() == text

    def test_padded_family(self):
        fam = enumerate_m_edge_order(8, 3)
        assert all(g.n == 8 for g in fam)
        assert len(fam) == 5
        fam_small = enumerate_m_edge_order(4, 3)
        # only classes on at most 4 vertices survive
        assert len(fam_small) == 3


class TestEnumerateEmbeddings:
    def test_t1_even_parts(self):
        fam = enumerate_embeddings(30, 2, 1)
        assert len(fam) == 1

    def test_t1_odd_parts(self):
        fam = enumerate_embeddings(31, 2, 1)
        assert len(fam) == 2

    def test_members_have_t_edges(self):
        for e in enumerate_embeddings(12, 3, 4):
            assert e.t == 4
            assert e.part_sizes == turan_part_sizes(12, 3)

    def test_against_direct_subset_oracle(self):
        n, r, t = 12, 2, 3
        sizes = turan_part_sizes(n, r)
        starts = [0, sizes[0]]
        pairs = []
        for i, s in enumerate(sizes):
            lo = starts[i]
            pairs.extend(
                (u, v)
                for u in range(lo, lo + s)
                for v in range(u + 1, lo + s)
            )
        seen = set()
        for subset in combinations(pairs, t):
            hosts = []
            for i, s in enumerate(sizes):
                lo = starts[i]
                part_edges = [
                    (u - lo, v - lo) for u, v in subset if lo <= u < lo + s
                ]
                h = _strip_isolated(Graph.from_edge_list(s, part_edges))
                hosts.append(None if h.n == 0 else h)
            emb = MultipartiteEmbedding(sizes, hosts)
            seen.add(emb.key())
        got = {e.key() for e in enumerate_embeddings(n, r, t)}
        assert got == seen

    def test_too_small_parts_rejected(self):
        with pytest.raises(GraphError):
            enumerate_embeddings(4, 4, 5)


class TestSpex:
    def test_m3_family(self):
        winners = spex(enumerate_m_edge(3))
        assert len(winners) == 1
        assert winners[0].degrees == (2, 2, 2)

    def test_single_embedding_class(self):
        fam = enumerate_embeddings(30, 2, 1)
        assert spex(fam) == fam.members

    def test_t3_winner_is_triangle_host(self):
        fam = enumerate_embeddings(30, 2, 3)
        winners = spex(fam)
        assert len(winners) == 1
        hosts = [h for h in winners[0].hosts if h is not None]
        assert len(hosts) == 1
        assert canonical_form(hosts[0]) == canonical_form(complete(3))

    def test_oracle_disagreement_raises(self, monkeypatch):
        real = extremal.dense_radius
        monkeypatch.setattr(extremal, "dense_radius", lambda a: real(a) + 1e-6)
        with pytest.raises(SpectralError, match="oracles disagree"):
            spex(enumerate_embeddings(30, 2, 3))
        with pytest.raises(SpectralError, match="oracles disagree"):
            spex(enumerate_m_edge(3))

    def test_agrees_with_library_eigensolver(self, rng):
        members = enumerate_m_edge(4).members
        by_eig = max(members, key=eig_rho)
        winners = spex(members)
        assert canonical_form(winners[0]) == canonical_form(by_eig)


class TestVerifyLemma2Degree:
    def test_m3_two_witnesses(self):
        rep = verify_lemma_2degree(8, 3)
        assert rep.passed
        assert len(rep.witnesses) == 2

    def test_m4_single_witness(self):
        rep = verify_lemma_2degree(7, 4)
        assert rep.passed
        assert len(rep.witnesses) == 1

    def test_m1_trivial(self):
        rep = verify_lemma_2degree(3, 1)
        assert rep.passed

    def test_out_of_range_inapplicable(self):
        assert verify_lemma_2degree(30, 3).verdict == "inapplicable"
        assert verify_lemma_2degree(9, 7).verdict == "inapplicable"

    def test_deterministic(self):
        assert verify_lemma_2degree(9, 3).as_dict() == verify_lemma_2degree(9, 3).as_dict()


class TestVerifyCorollary2Inf:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_all_small_m(self, m):
        rep = verify_corollary_2inf(m)
        assert rep.passed, rep.as_dict()

    def test_m3_details(self):
        rep = verify_corollary_2inf(3)
        assert len(rep.details["level2"]) == 2
        assert len(rep.details["level3"]) == 1
        assert rep.details["stable"] == rep.details["level3"]


class TestVerifyOneSet:
    def test_triangle_vs_star(self):
        rep = verify_one_set(3, 4, complete(3), star(4), range(7, 61))
        assert rep.passed
        assert rep.details["ordering"] == "greater"
        assert rep.details["witness_index"] == 3
        assert rep.details["onset"] is not None

    def test_identical_hosts(self):
        rep = verify_one_set(2, 4, star(4), star(4), range(6, 30))
        assert rep.passed
        assert rep.details["ordering"] == "equal"

    def test_path_vs_matching(self):
        rep = verify_one_set(
            3, 4, path(3), disjoint_union(complete(2), complete(2)), range(7, 61)
        )
        assert rep.passed
        assert rep.details["witness_index"] == 2

    def test_host_must_fit(self):
        with pytest.raises(GraphError):
            verify_one_set(2, 3, star(4), complete(3), range(7, 10))

    @pytest.mark.parametrize("ulps", [-16, 16])
    def test_exact_tie_never_orders(self, monkeypatch, ulps):
        # Both radii are exactly 4 at n = 12, and their float difference is
        # a few ulps off zero: whichever side it falls on, the tie must not
        # count towards the walk order, so the onset stays 13.
        real = extremal._radius

        def nudged(member):
            res, a = real(member)
            if member.part_sizes[-1] == 11 and to_graph6(member.hosts[-1]) == "Is_?G????":
                res = dataclasses.replace(res, rho=res.rho + ulps * math.ulp(res.rho))
            return res, a

        monkeypatch.setattr(extremal, "_radius", nudged)
        rep = verify_one_set(
            1, 10, from_graph6("IqK??????"), from_graph6("Is_?G????"), range(11, 20)
        )
        assert rep.details["ordering"] == "less"
        assert rep.details["onset"] == 13

    def test_large_n_inside_series_brackets(self):
        # Too large for any full-graph eigensolver; the certified series
        # brackets are the independent oracle.
        n, s, t = 10_000, 3, 4
        rep = verify_one_set(s, t, complete(3), star(4), [n])
        assert rep.passed
        brackets = []
        for h in (complete(3).add_isolated(1), star(4)):
            e = MultipartiteEmbedding((1,) * s + (n - s,), (None,) * s + (h,))
            rho = extremal._radius(e)[0].rho
            lo, hi = solve_rho_series(e).bracket
            assert lo <= rho <= hi
            brackets.append((lo, hi))
        (lo1, hi1), (lo2, hi2) = brackets
        assert lo1 - hi2 <= rep.details["diffs"][0][1] <= hi1 - lo2


class TestVerifyMultiSet:
    def test_hostless(self):
        rep = verify_multi_set(MultipartiteEmbedding((5, 5)))
        assert rep.passed
        assert rep.details["identity_gap"] <= 1e-8

    def test_k4_case(self):
        rep = verify_multi_set(MultipartiteEmbedding((1, 3), (None, complete(3))))
        assert rep.passed

    def test_three_parts(self):
        rep = verify_multi_set(MultipartiteEmbedding((7, 7, 7), (path(3), None, None)))
        assert rep.passed
        assert rep.details["solver_gap"] <= 1e-8

    def test_inapplicable_when_radius_below_degree(self):
        rep = verify_multi_set(MultipartiteEmbedding((1, 5), (None, star(5))))
        assert rep.verdict == "inapplicable"

    def test_sampled(self, rng):
        done = 0
        while done < 10:
            e = sample_embedding(rng)
            rep = verify_multi_set(e)
            assert rep.verdict in ("pass", "inapplicable")
            if rep.verdict == "pass":
                done += 1

    def test_every_enumerated_embedding(self):
        # whole small family: the identity holds whenever it applies
        for e in enumerate_embeddings(14, 2, 3):
            rep = verify_multi_set(e)
            assert rep.verdict in ("pass", "inapplicable")


class TestPowerIterationConvergence:
    def test_unconverged_radius_raises(self, monkeypatch):
        real = extremal.power_radius

        def stalled(a, sizes, tol=1e-12):
            return dataclasses.replace(real(a, sizes, tol=tol), converged=False)

        monkeypatch.setattr(extremal, "power_radius", stalled)
        with pytest.raises(SpectralError, match="did not converge"):
            verify_multi_set(MultipartiteEmbedding((3, 3), (complete(2), None)))
        with pytest.raises(SpectralError, match="did not converge"):
            verify_one_set(2, 4, complete(3), star(4), range(6, 9))
        with pytest.raises(SpectralError, match="did not converge"):
            spex(enumerate_m_edge(3))


class TestVerifyCorollaryTnrk:
    def test_single_class_even(self):
        rep = verify_corollary_tnrk(30, 2, 2)
        assert rep.passed

    def test_odd_parts_edge_in_small_part(self):
        rep = verify_corollary_tnrk(31, 2, 2)
        assert rep.passed
        assert rep.parameters["part_sizes"] == [15, 16]

    def test_k4_triangle_wins(self):
        rep = verify_corollary_tnrk(40, 2, 4)
        assert rep.passed
        assert rep.details["winner_hosts"] == [[to_graph6(complete(3))]]

    def test_host_not_fitting_inapplicable(self):
        rep = verify_corollary_tnrk(8, 4, 5)
        assert rep.verdict == "inapplicable"

    def test_spex_order_matches_walk_order_same_part(self):
        # same-part hosts: the radius ranking must agree with walk preference
        n, r, t = 60, 2, 3
        fam = enumerate_embeddings(n, r, t)
        single_part = [
            e
            for e in fam
            if sum(1 for h in e.hosts if h is not None and h.num_edges) == 1
        ]
        scored = []
        for e in single_part:
            host = next(h for h in e.hosts if h is not None and h.num_edges)
            scored.append((e, host, rho_power(e.realize(), tol=1e-12).rho))
        for i in range(len(scored)):
            for j in range(len(scored)):
                if i == j:
                    continue
                _, h1, r1 = scored[i]
                _, h2, r2 = scored[j]
                cert = walk_compare(h1, h2)
                if cert.ordering is Ordering.GREATER and r1 < r2 - 1e-9:
                    raise AssertionError(
                        f"walk order contradicts radius order: {to_graph6(h1)} vs {to_graph6(h2)}"
                    )

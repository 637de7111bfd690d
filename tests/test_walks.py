import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dfs_walk_count, naive_walk_totals, random_graph
from walkspectra import (
    Graph,
    Ordering,
    complete,
    disjoint_union,
    empty,
    ex_filter,
    ex_infinity,
    path,
    star,
    walk_compare,
    walk_profile,
    walk_totals,
)
from walkspectra import walks
from walkspectra.extremal import enumerate_m_edge


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not pairs:
        return Graph.from_edge_list(n, [])
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return Graph.from_edge_list(n, edges)


class TestWalkProfile:
    def test_triangle_counts(self):
        prof = walk_profile(complete(3), 3)
        for i in range(1, 4):
            assert prof.counts(i) == (2**i,) * 3
        assert prof.totals == (6, 12, 24)

    def test_star_counts(self):
        prof = walk_profile(star(4), 3)
        assert prof.totals == (6, 12, 18)

    def test_empty_graph_zeroes(self):
        prof = walk_profile(empty(5), 4)
        assert prof.totals == (0, 0, 0, 0)
        assert all(c == (0,) * 5 for c in prof.per_vertex)

    def test_level_one_is_degrees(self):
        g = star(6)
        assert walk_profile(g, 1).counts(1) == g.degrees

    @given(graphs())
    @settings(max_examples=50)
    def test_identities(self, g):
        prof = walk_profile(g, 2)
        assert prof.total(1) == 2 * g.num_edges
        assert prof.total(2) == sum(d * d for d in g.degrees)

    @given(graphs(max_n=6), st.integers(min_value=1, max_value=5))
    @settings(max_examples=40)
    def test_against_matrix_power_oracle(self, g, depth):
        assert walk_totals(g, depth) == naive_walk_totals(g, depth)

    def test_against_walk_enumeration(self, rng):
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 6), 0.5)
            prof = walk_profile(g, 4)
            for lvl in range(1, 5):
                for u in range(g.n):
                    assert prof.counts(lvl)[u] == dfs_walk_count(g, u, lvl)

    def test_recurrence(self, rng):
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 20), rng.random())
            prof = walk_profile(g, 12)
            for i in range(1, 12):
                for u in range(g.n):
                    expect = sum(prof.counts(i)[v] for v in g.neighbor_lists[u])
                    assert prof.counts(i + 1)[u] == expect

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            walk_profile(complete(3), 0)


class TestWalkCompare:
    def test_triangle_beats_star(self):
        cert = walk_compare(complete(3), star(4))
        assert cert.ordering is Ordering.GREATER
        assert cert.witness_index == 3

    def test_self_equal(self, rng):
        for _ in range(10):
            g = random_graph(rng, rng.randint(0, 10), 0.4)
            cert = walk_compare(g, g)
            assert cert.ordering is Ordering.EQUAL
            assert cert.witness_index is None
            assert cert.bound_used == 2 * g.n

    def test_p3_beats_2k2(self):
        cert = walk_compare(path(3), disjoint_union(complete(2), complete(2)))
        assert cert.ordering is Ordering.GREATER
        assert cert.witness_index == 2

    def test_isomorphic_equal(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 9), 0.4)
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert walk_compare(g, g.relabel(perm)).ordering is Ordering.EQUAL

    def test_orders_differ(self):
        # padding with isolated vertices never changes walk totals
        g = star(4)
        assert walk_compare(g, g.add_isolated(3)).ordering is Ordering.EQUAL

    def test_antisymmetry_and_transitivity(self, rng):
        pool = [random_graph(rng, rng.randint(1, 8), 0.5) for _ in range(12)]
        value = {Ordering.LESS: -1, Ordering.EQUAL: 0, Ordering.GREATER: 1}
        for g1 in pool:
            for g2 in pool:
                a = value[walk_compare(g1, g2).ordering]
                b = value[walk_compare(g2, g1).ordering]
                assert a == -b
        for _ in range(120):
            g1, g2, g3 = (rng.choice(pool) for _ in range(3))
            a = value[walk_compare(g1, g2).ordering]
            b = value[walk_compare(g2, g3).ordering]
            if a >= 0 and b >= 0:
                assert value[walk_compare(g1, g3).ordering] >= 0
            if a <= 0 and b <= 0:
                assert value[walk_compare(g1, g3).ordering] <= 0

    def test_stabilization_of_equal_pairs(self, rng):
        # pairs that agree up to n1+n2 agree much deeper too
        pairs = []
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 7), 0.5)
            perm = list(range(g.n))
            rng.shuffle(perm)
            pairs.append((g, g.relabel(perm).add_isolated(rng.randint(0, 2))))
        members = enumerate_m_edge(5).members
        for i, g1 in enumerate(members):
            for g2 in members[i + 1 :]:
                if walk_compare(g1, g2).ordering is Ordering.EQUAL:
                    pairs.append((g1, g2))
        assert pairs
        for g1, g2 in pairs:
            if walk_compare(g1, g2).ordering is Ordering.EQUAL:
                deep = 4 * (g1.n + g2.n)
                assert walk_totals(g1, deep) == walk_totals(g2, deep)


class TestExFilters:
    def test_m3_level2(self):
        fam = enumerate_m_edge(3).members
        survivors = ex_filter(fam, 2)
        keys = {tuple(sorted(g.degrees, reverse=True)) for g in survivors}
        assert keys == {(2, 2, 2), (3, 1, 1, 1)}

    def test_m3_level3(self):
        fam = enumerate_m_edge(3).members
        survivors = ex_filter(fam, 3)
        assert len(survivors) == 1
        assert survivors[0].degrees == (2, 2, 2)

    def test_single_graph_family(self):
        g = path(5)
        assert ex_filter([g], 7) == [g]
        assert ex_infinity([g]) == [g]

    def test_m3_infinity(self):
        fam = enumerate_m_edge(3).members
        assert [g.degrees for g in ex_infinity(fam)] == [(2, 2, 2)]

    def test_m4_infinity_is_star(self):
        fam = enumerate_m_edge(4).members
        survivors = ex_infinity(fam)
        assert len(survivors) == 1
        assert sorted(survivors[0].degrees, reverse=True) == [4, 1, 1, 1, 1]

    def test_rounds_stop_at_the_stabilization_bound(self, monkeypatch):
        # The m = 3 classes have at most 6 vertices, so no round past 12 can
        # discard a graph; each graph's levels run out after 12 here, so a
        # run of a later round would raise StopIteration.
        fam = enumerate_m_edge(3).members
        level_iter = walks._level_iter
        monkeypatch.setattr(walks, "_level_iter", lambda g: itertools.islice(level_iter(g), 12))
        survivors = ex_filter(fam, 10**8)
        assert survivors == ex_filter(fam, 13) == ex_infinity(fam)
        assert [g.degrees for g in survivors] == [(2, 2, 2)]

    def test_filters_nest(self, rng):
        fam = enumerate_m_edge(5).members
        prev = list(fam)
        for level in range(1, 8):
            cur = ex_filter(fam, level)
            assert set(map(id, cur)) <= set(map(id, prev))
            prev = cur

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            ex_filter([], 1)
        with pytest.raises(ValueError):
            ex_infinity([])

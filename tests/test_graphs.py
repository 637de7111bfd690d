import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walkspectra import (
    Graph,
    GraphError,
    MultipartiteEmbedding,
    canonical_form,
    complement,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    empty,
    join,
    path,
    star,
    turan,
)
from walkspectra.graphs import turan_part_sizes
from walkspectra.spectral import power_radius

from conftest import eig_rho, random_graph


@st.composite
def embeddings(draw):
    """Up to four parts of up to 40 vertices, each with an arbitrary host
    (isolated vertices allowed) of up to 6 vertices, or none."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=4))
    hosts = [draw(st.none() | graphs(max_n=min(size, 6))) for size in sizes]
    return MultipartiteEmbedding(sizes, hosts)


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not pairs:
        return Graph.from_edge_list(n, [])
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return Graph.from_edge_list(n, edges)


class TestConstruction:
    def test_k3(self):
        g = Graph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
        assert g.degrees == (2, 2, 2)
        assert g.num_edges == 3

    def test_empty_graph(self):
        g = Graph.from_edge_list(4, [])
        assert g.num_edges == 0
        assert g.degrees == (0, 0, 0, 0)

    def test_star_degree_sequence(self):
        g = Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        assert sorted(g.degrees, reverse=True) == [3, 1, 1, 1]

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph.from_edge_list(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph.from_edge_list(3, [(0, 3)])

    def test_neighbor_lists_match_per_row_reference(self, rng):
        graphs = [empty(0), empty(1), empty(7), star(5).add_isolated(3)]
        graphs += [disjoint_union(empty(2), cycle(5)).add_isolated(1)]
        graphs += [random_graph(rng, rng.randint(1, 200), rng.random()) for _ in range(40)]
        for g in graphs:
            reference = tuple(tuple(np.flatnonzero(row).tolist()) for row in g.adj)
            assert g.neighbor_lists == reference
            assert all(type(v) is int for vs in g.neighbor_lists for v in vs)

    def test_adjacency_is_immutable(self):
        g = complete(3)
        with pytest.raises(ValueError):
            g.adj[0, 1] = False


class TestFamilies:
    def test_turan_7_3(self):
        assert turan_part_sizes(7, 3) == (2, 2, 3)
        assert turan(7, 3).num_edges == 16

    def test_turan_sizes_nondecreasing(self):
        for n in range(2, 40):
            for r in range(1, n + 1):
                sizes = turan_part_sizes(n, r)
                assert list(sizes) == sorted(sizes)
                assert sum(sizes) == n
                assert max(sizes) - min(sizes) <= 1

    def test_complete_multipartite_2_2_is_c4(self):
        g = complete_multipartite([2, 2])
        assert canonical_form(g) == canonical_form(cycle(4))

    def test_complete_as_join(self):
        assert canonical_form(complete(4)) == canonical_form(join(complete(1), complete(3)))

    def test_invalid_parameters(self):
        with pytest.raises(GraphError):
            turan(3, 5)
        with pytest.raises(GraphError):
            cycle(2)
        with pytest.raises(GraphError):
            complete_multipartite([2, 0])


class TestCombinators:
    def test_join_k1_k3(self):
        g = join(complete(1), complete(3))
        assert g.num_edges == 6
        assert g.degrees == (3, 3, 3, 3)

    def test_disjoint_union_edge_count(self):
        g = disjoint_union(complete(2), complete(2))
        assert g.n == 4
        assert g.num_edges == 2

    @given(graphs())
    @settings(max_examples=60)
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g

    @given(graphs())
    @settings(max_examples=60)
    def test_degree_sum(self, g):
        assert sum(g.degrees) == 2 * g.num_edges


class TestCanonicalForm:
    def test_star_center_position_irrelevant(self):
        g1 = Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        g2 = Graph.from_edge_list(4, [(3, 0), (3, 1), (3, 2)])
        assert canonical_form(g1) == canonical_form(g2)

    def test_non_isomorphic_distinct(self):
        g1 = disjoint_union(complete(3), empty(1))
        g2 = star(4)
        assert canonical_form(g1) != canonical_form(g2)

    def test_permutation_invariance(self, rng):
        pool = [
            star(5),
            cycle(6),
            path(7),
            turan(8, 3),
            disjoint_union(complete(3), path(4)),
        ]
        for g in pool:
            base = canonical_form(g)
            for _ in range(100):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_form(g.relabel(perm)) == base

    def test_matches_isomorphism_oracle(self, rng):
        import networkx as nx

        def to_nx(g):
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            return h

        from conftest import random_graph

        pool = [random_graph(rng, rng.randint(2, 8), rng.choice([0.2, 0.4, 0.6])) for _ in range(60)]
        for _ in range(300):
            g1, g2 = rng.sample(pool, 2)
            ours = canonical_form(g1) == canonical_form(g2)
            theirs = nx.is_isomorphic(to_nx(g1), to_nx(g2))
            assert ours == theirs

    def test_symmetric_component_at_limit(self):
        # One refinement class of size 10; the pruned search must still finish.
        assert canonical_form(cycle(10)) == canonical_form(cycle(10).relabel([3, 5, 1, 0, 2, 9, 4, 8, 6, 7]))

    @pytest.mark.parametrize("g, form", [
        (complete(10), "0000000a0a1fffffffffff"),
        (star(10), "0000000a0a0000000001ff"),
    ], ids=["K10", "star10"])
    def test_twin_classes_at_limit(self, g, form):
        # Ten vertices in one twin class: the search places twins in index
        # order instead of trying all 10! orderings.  Forms as before.
        assert canonical_form(g).hex() == form
        perm = [3, 5, 1, 0, 2, 9, 4, 8, 6, 7]
        assert canonical_form(g.relabel(perm)).hex() == form

    def test_limit_enforced(self):
        with pytest.raises(GraphError, match="limit"):
            canonical_form(path(12))
        # isolated vertices do not count against the component limit
        canonical_form(star(5).add_isolated(20))

    def test_form_kept_on_graph(self):
        g = disjoint_union(cycle(5), star(4))
        assert canonical_form(g) is canonical_form(g)

    def test_copies_recompute_equal_bytes(self):
        g = disjoint_union(cycle(5), star(4))
        form = canonical_form(g)
        assert canonical_form(Graph(g.adj)).data == form.data
        perm = [4, 7, 0, 8, 2, 6, 1, 3, 5]
        assert canonical_form(g.relabel(perm)).data == form.data


class TestEmbedding:
    def test_realize_k1_k3_is_k4(self):
        e = MultipartiteEmbedding((1, 3), (None, complete(3)))
        assert canonical_form(e.realize()) == canonical_form(complete(4))

    def test_realize_2_2_is_c4(self):
        e = MultipartiteEmbedding((2, 2))
        assert canonical_form(e.realize()) == canonical_form(cycle(4))

    def test_realize_3_3_one_edge(self):
        e = MultipartiteEmbedding((3, 3), (complete(2), None))
        assert e.realize().num_edges == 10

    def test_delta_and_t(self):
        e = MultipartiteEmbedding((4, 5), (star(4), path(3)))
        assert e.delta == 3
        assert e.t == 5

    def test_host_must_fit(self):
        with pytest.raises(GraphError, match="fit"):
            MultipartiteEmbedding((2, 3), (star(4), None))

    def test_part_sizes_must_be_integers(self):
        # int() would truncate these to parts (3, 4).
        with pytest.raises(GraphError, match="integers"):
            MultipartiteEmbedding((3.7, 4.2), (None, star(4)))
        e = MultipartiteEmbedding((np.int64(3), np.int32(4)), (None, star(4)))
        assert e.part_sizes == (3, 4) and all(type(s) is int for s in e.part_sizes)

    def test_realize_part_structure(self, rng):
        from conftest import random_graph

        for _ in range(20):
            sizes = [rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
            hosts = []
            for s in sizes:
                if rng.random() < 0.5 or s < 2:
                    hosts.append(None)
                else:
                    hosts.append(random_graph(rng, rng.randint(2, s), 0.5))
            e = MultipartiteEmbedding(sizes, hosts)
            g = e.realize()
            assert g.n == sum(sizes)
            for i, (size, host) in enumerate(zip(sizes, hosts)):
                rng_i = list(e.part_range(i))
                sub = g.induced(rng_i)
                expect = (host or empty(0)).add_isolated(size - (host.n if host else 0))
                assert sub == expect
                # cross pairs always adjacent
                for j in range(i + 1, len(sizes)):
                    for u in rng_i:
                        for v in e.part_range(j):
                            assert g.has_edge(u, v)

    @given(embeddings())
    @settings(max_examples=80)
    def test_quotient_radius_matches_realized_graph(self, e):
        q, sizes = e.quotient()
        assert len(sizes) <= e.r + sum(h.n for h in e.hosts if h is not None)
        assert sizes.sum() == e.n
        res = power_radius(q, sizes)
        assert res.converged
        assert abs(res.rho - eig_rho(e.realize())) <= 1e-9

    def test_quotient_of_k1_k3_host(self):
        # K_{1,3} with a triangle in its large part is K4: classes {0}, and
        # the three host vertices.
        q, sizes = MultipartiteEmbedding((1, 3), (None, complete(3))).quotient()
        assert sizes.tolist() == [1, 1, 1, 1]
        assert q.tolist() == complete(4).adjacency(float).tolist()

    def test_quotient_merges_twins(self):
        q, sizes = MultipartiteEmbedding((4, 9), (path(2), None)).quotient()
        assert sizes.tolist() == [1, 1, 2, 9]
        assert q[3, 2] == q[2, 3] == pytest.approx(18**0.5)
        assert q[0, 1] == 1 and q[0, 2] == q[1, 2] == 0

    @given(embeddings())
    @example(MultipartiteEmbedding((3, 5)))  # hostless parts
    @example(MultipartiteEmbedding((3, 2, 6), (complete(3), path(2), None)))  # full parts
    @example(MultipartiteEmbedding((1, 1, 12), (None, None, star(4).add_isolated(3))))  # one-set
    @settings(max_examples=80)
    def test_quotient_bits_match_realized_reference(self, e):
        # Reference: realize the graph with each part cut to its classes
        # and scale its adjacency by sqrt(outer(sizes, sizes)).
        cut, sizes = [], []
        for size, host in zip(e.part_sizes, e.hosts):
            k = 0 if host is None else host.n
            cut.append(k + (size > k))
            sizes += [1] * k + [size - k] * (size > k)
        sizes = np.array(sizes, dtype=float)
        realized = MultipartiteEmbedding(cut, e.hosts).realize().adjacency(float)
        want = realized * np.sqrt(np.outer(sizes, sizes))
        q, got = e.quotient()
        assert q.dtype == want.dtype and q.tobytes() == want.tobytes()
        assert got.tobytes() == sizes.tobytes()

    def test_equal_size_parts_interchangeable(self):
        a = MultipartiteEmbedding((3, 3), (path(3), None))
        b = MultipartiteEmbedding((3, 3), (None, path(3)))
        assert a.key() == b.key()
        c = MultipartiteEmbedding((3, 4), (path(3), None))
        d = MultipartiteEmbedding((3, 4), (None, path(3)))
        assert c.key() != d.key()

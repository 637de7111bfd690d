import dataclasses
import functools
import hashlib
import math
import os
import random
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from conftest import edgeless_graph6, eig_rho
from walkspectra import (
    Graph,
    GraphError,
    SpectralError,
    SpectralResult,
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
from walkspectra import extremal, graphs
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


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def reference_embeddings(n, r, t):
    """The Turan embedding family by its definition: every composition of t
    over the parts, times the products of its parts' fitting hosts,
    deduplicated by key with the first arrangement kept, in key order."""
    sizes = turan_part_sizes(n, r)
    hosts_by_count = {0: [None]}
    for c in range(1, t + 1):
        hosts_by_count[c] = enumerate_m_edge(c).members
    seen = {}
    for comp in _compositions(t, r):
        slots = [
            [h for h in hosts_by_count[c] if h is None or h.n <= size]
            for c, size in zip(comp, sizes)
        ]
        for hosts in product(*slots):
            emb = MultipartiteEmbedding(sizes, hosts)
            seen.setdefault(emb.key(), emb)
    return [seen[k] for k in sorted(seen)]


def naive_m_edge_classes(m):
    """All m-edge no-isolated-vertex classes by raw subset search on K_{2m}."""
    n = 2 * m
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    for subset in combinations(pairs, m):
        g = _strip_isolated(Graph.from_edge_list(n, subset))
        seen.add(canonical_form(g).data)
    return seen


@functools.cache
def connected_classes(c):
    """Connected c-edge classes by subset search on K_{c+1}; cached, so the
    m = 5 and m = 6 cases share c <= 5.  Each subset stays a list of
    neighbour lists; only a connected one, stripped of its isolated
    vertices, becomes a Graph, for its canonical form."""
    n = c + 1
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    for subset in combinations(pairs, c):
        nbrs = [[] for _ in range(n)]
        for u, v in subset:
            nbrs[u].append(v)
            nbrs[v].append(u)
        touched = [u for u in range(n) if nbrs[u]]
        reached, stack = {touched[0]}, [touched[0]]
        while stack:
            for v in nbrs[stack.pop()]:
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
        if len(reached) == len(touched):
            index = {u: i for i, u in enumerate(touched)}
            g = Graph.from_edge_list(len(touched), [(index[u], index[v]) for u, v in subset])
            seen.add(canonical_form(g).data)
    return frozenset(seen)


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

    def test_canonical_bytes_pinned(self):
        # sha256 of the forms of every class with m <= 6, in enumeration
        # order: a change to the search must leave each byte as it is.  A
        # fresh copy recomputes the form rather than reading the kept one.
        digest = hashlib.sha256()
        for m in range(1, 7):
            for g in enumerate_m_edge(m):
                data = canonical_form(Graph(g.adj)).data
                assert data == canonical_form(g).data
                digest.update(data)
        assert digest.hexdigest() == (
            "1c16a680e43598d731f5fceca6faad1ca4307c9fc13ecda1ce9188d92474a4e0"
        )

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

    def test_non_utf8_cache_regenerated(self, tmp_path):
        full = enumerate_m_edge(3, cache_dir=str(tmp_path)).members
        cache = tmp_path / "m_edge_3.g6"
        text = cache.read_text()
        cache.write_bytes(b"\xff\xfe\n")
        assert enumerate_m_edge(3, cache_dir=str(tmp_path)).members == full
        assert cache.read_text() == text

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

    def test_sample_reads_each_cache_file_once(self, tmp_path, monkeypatch):
        cache = str(tmp_path)
        for c in range(1, 6):
            enumerate_m_edge(c, cache_dir=cache)
        reads = []
        real = extremal._cache_bytes
        monkeypatch.setattr(extremal, "_cache_bytes", lambda p: reads.append(p) or real(p))
        for seed in range(20):
            # same draws and the same labelled hosts as without a cache
            rng_cached, rng_plain = random.Random(seed), random.Random(seed)
            got = sample_embedding(rng_cached, cache_dir=cache)
            want = sample_embedding(rng_plain)
            assert (got.part_sizes, got.hosts) == (want.part_sizes, want.hosts)
            assert rng_cached.getstate() == rng_plain.getstate()
        # The files were written, not read, above; each is read back once
        # over all twenty samples, and then trusted at this path.
        assert reads and len(reads) == len(set(reads))

    def test_huge_record_refused_undecoded(self, tmp_path, monkeypatch):
        # A first line declaring 10,001 vertices, with its full 8.3 MB body,
        # fails the pin on the file's first 2 KB: nothing is decoded, and
        # the file is regenerated.
        cache = tmp_path / "m_edge_3.g6"
        enumerate_m_edge(3, cache_dir=str(tmp_path))
        text = cache.read_text()
        cache.write_text(edgeless_graph6(10_001) + "\n" + text)
        monkeypatch.setattr(extremal, "_CLASSES", {})
        tracemalloc.start()
        try:
            fam = enumerate_m_edge(3, cache_dir=str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**26
        assert cache.read_text() == text
        assert [to_graph6(g) for g in fam] == text.split()

    def test_warm_read_decodes_no_record(self, tmp_path, monkeypatch):
        # The first call generates the classes and writes them; the second
        # finds the pinned bytes and returns the held classes as they are.
        cache = str(tmp_path)
        cold = enumerate_m_edge(6, cache_dir=cache).members
        decoded = []
        real = extremal.from_graph6
        monkeypatch.setattr(extremal, "from_graph6", lambda s: decoded.append(s) or real(s))
        warm = enumerate_m_edge(6, cache_dir=cache).members
        assert decoded == []
        assert len(warm) == len(cold) == 68
        assert all(w is c for w, c in zip(warm, cold))

    @staticmethod
    def edited_cache(tmp_path, edit):
        """Generate and write the 4-edge classes, then edit the file into
        other valid graph6 lines of the right count and kind."""
        cache = tmp_path / "m_edge_4.g6"
        generated = enumerate_m_edge(4, cache_dir=str(tmp_path)).members
        text = cache.read_text()
        lines = text.splitlines()
        if edit == "reorder":
            lines = lines[1:] + lines[:1]
        else:
            lines[0] = lines[5]  # another valid class, now listed twice
        cache.write_text("".join(line + "\n" for line in lines))
        return cache, generated, text, lines

    @pytest.mark.parametrize("edit", ["reorder", "swap"])
    def test_other_valid_file_is_regenerated(self, tmp_path, monkeypatch, edit):
        # A process that holds no classes yet does not trust such a file:
        # it generates the classes, returns them and rewrites the file.
        cache, generated, text, _ = self.edited_cache(tmp_path, edit)
        monkeypatch.setattr(extremal, "_CLASSES", {})
        fam = enumerate_m_edge(4, cache_dir=str(tmp_path))
        assert fam.members == list(generated)
        assert not any(g is h for g in fam.members for h in generated)
        assert cache.read_text() == text

    @pytest.mark.parametrize("edit", ["reorder", "swap"])
    def test_other_valid_file_is_rewritten(self, tmp_path, edit):
        # The process that generated the classes returns them, not the
        # file's family, and rewrites the file.
        cache, generated, text, _ = self.edited_cache(tmp_path, edit)
        fam = enumerate_m_edge(4, cache_dir=str(tmp_path))
        assert all(g is h for g, h in zip(fam.members, generated, strict=True))
        assert cache.read_text() == text

    def test_substituted_star_does_not_flip_a_verdict(self, tmp_path):
        # The star K_{1,4} replaced by a copy of another class: a file of
        # the right length and kind, but the wrong family.
        enumerate_m_edge(4, cache_dir=str(tmp_path))
        cache = tmp_path / "m_edge_4.g6"
        text = cache.read_text()
        lines = text.splitlines()
        i = next(i for i, line in enumerate(lines) if from_graph6(line).max_degree() == 4)
        lines[i] = lines[i - 1]
        cache.write_text("".join(line + "\n" for line in lines))
        assert verify_corollary_2inf(4, cache_dir=str(tmp_path)).verdict == "pass"
        assert cache.read_text() == text

    def test_warm_read_creates_no_directory(self, tmp_path, monkeypatch):
        cache = str(tmp_path / "d")
        for c in range(1, 6):
            enumerate_m_edge(c, cache_dir=cache)
        made = []
        monkeypatch.setattr(os, "makedirs", lambda *a, **k: made.append(a))
        enumerate_m_edge(3, cache_dir=cache)
        for seed in range(5):
            sample_embedding(random.Random(seed), cache_dir=cache)
        assert made == []

    def test_cold_write_creates_missing_directory(self, tmp_path):
        cache = tmp_path / "a" / "b"
        fam = enumerate_m_edge(3, cache_dir=str(cache))
        assert os.listdir(cache) == ["m_edge_3.g6"]
        assert [to_graph6(g) for g in fam] == (cache / "m_edge_3.g6").read_text().split()

    def test_warm_cache_computes_no_canonical_form(self, tmp_path, monkeypatch):
        # The first call generates the classes, writes the cache and
        # computes every host's canonical form; the second reads the cache
        # back and reuses the generated graphs.
        cache = str(tmp_path)
        cold = enumerate_embeddings(28, 3, 5, cache_dir=cache)
        forms = []
        real = graphs._assemble_form
        monkeypatch.setattr(graphs, "_assemble_form", lambda *a: forms.append(a) or real(*a))
        warm = enumerate_embeddings(28, 3, 5, cache_dir=cache)
        assert forms == []
        assert [e.key() for e in warm] == [e.key() for e in cold]

    def test_pinned_files_decoded_once_per_process(self, tmp_path, monkeypatch):
        # A process that holds no classes finds the pinned files: it
        # decodes each once and keeps the graphs, so the second call opens
        # no file, decodes nothing and computes no canonical form.
        cache = str(tmp_path)
        cold = enumerate_embeddings(28, 3, 5, cache_dir=cache)
        monkeypatch.setattr(extremal, "_CLASSES", {})
        decoded, forms = [], []
        real_decode, real_form = extremal.from_graph6, graphs._assemble_form
        monkeypatch.setattr(extremal, "from_graph6", lambda s: decoded.append(s) or real_decode(s))
        first = enumerate_embeddings(28, 3, 5, cache_dir=cache)
        records = [r for c in range(1, 6) for r in (tmp_path / f"m_edge_{c}.g6").read_text().split()]
        assert sorted(decoded) == sorted(records)
        decoded.clear()
        monkeypatch.setattr(graphs, "_assemble_form", lambda *a: forms.append(a) or real_form(*a))
        reads = []
        monkeypatch.setattr(extremal, "_cache_bytes", reads.append)
        second = enumerate_embeddings(28, 3, 5, cache_dir=cache)
        assert decoded == [] and forms == [] and reads == []
        assert [e.key() for e in first] == [e.key() for e in second] == [e.key() for e in cold]
        assert sorted(os.listdir(cache)) == [f"m_edge_{c}.g6" for c in range(1, 6)]

    @pytest.mark.parametrize("m", range(1, 8))
    def test_pins_match_generated_bytes(self, tmp_path, monkeypatch, m):
        # Each pin is the sha256 of the file written from classes
        # generated afresh.
        monkeypatch.setattr(extremal, "_CLASSES", {})
        enumerate_m_edge(m, cache_dir=str(tmp_path))
        data = (tmp_path / f"m_edge_{m}.g6").read_bytes()
        assert hashlib.sha256(data).hexdigest() == extremal._M_EDGE_SHA256[m - 1]

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

    def test_templates_match_reference(self):
        # Every residue, with n // r below, at and above the template cap
        # 2t + 1, and at t, where the larger hosts do not fit.  The same
        # members in the same order, each with the same host graph per part.
        for r in range(2, 7):
            for t in range(1, 6):
                for c in range(r):
                    for q in (t, 2 * t, 2 * t + 1, 2 * t + 2):
                        n = r * q + c
                        want = reference_embeddings(n, r, t)
                        if not want:
                            with pytest.raises(GraphError):
                                enumerate_embeddings(n, r, t)
                            continue
                        got = enumerate_embeddings(n, r, t).members
                        assert len(got) == len(want), (n, r, t)
                        for g, w in zip(got, want):
                            assert g.part_sizes == w.part_sizes
                            assert all(a is b for a, b in zip(g.hosts, w.hosts, strict=True))

    def test_template_cache_is_small(self):
        # The templates of the bench grid (r in {2, 3}, k in 2..5, n up to
        # 60): class indices, orders and one boolean pattern per member.
        for m in range(1, 6):
            for h in enumerate_m_edge(m):
                canonical_form(h)
        extremal._template.cache_clear()
        tracemalloc.start()
        try:
            for r in (2, 3):
                for k in (2, 3, 4, 5):
                    for n in range(r * k, 61):
                        extremal._family(n, r, k - 1, None)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert extremal._template.cache_info().currsize == 70
        assert held < 2**19


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

    def test_power_value_off_its_bracket_raises(self, monkeypatch):
        real = extremal.power_radius

        def shifted(*args, **kwargs):
            res = real(*args, **kwargs)
            return dataclasses.replace(res, rho=res.rho + 1e-6) if res.converged else res

        monkeypatch.setattr(extremal, "power_radius", shifted)
        with pytest.raises(SpectralError, match="outside its certified bracket"):
            spex(enumerate_embeddings(30, 2, 3))
        with pytest.raises(SpectralError, match="outside its certified bracket"):
            spex(enumerate_m_edge(3))
        with pytest.raises(SpectralError, match="outside its certified bracket"):
            verify_multi_set(MultipartiteEmbedding((3, 3), (complete(2), None)))

    @pytest.mark.parametrize("family", ["tnrk", 3, 4, 5])
    def test_lazy_refinement_matches_eager(self, family):
        # Eager reference: every member converged, and a member ties the top
        # when its value is within tol and its bracket overlaps the top's.
        # spex converges only the members its screen leaves in contention;
        # winners, top and runner-up must match bit for bit.
        if family == "tnrk":
            rng = random.Random(9)
            grid = [(n, r, k) for r in (2, 3) for k in (2, 3, 4, 5) for n in range(r * k, 61)]
            families = [
                enumerate_embeddings(n, r, k - 1).members
                for n, r, k in grid if rng.random() < 1 / 3
            ]
        else:
            families = [enumerate_m_edge(family).members]
        for members in families:
            rhos, brackets = [], []
            for m in members:
                res, bracket = extremal._radius(m)
                assert res.converged
                rhos.append(res.rho)
                brackets.append(bracket)
            top = max(rhos)
            top_lo = brackets[rhos.index(top)][0]
            tol = extremal.SPEX_TIE_TOL
            tied = [rho >= top - tol and hi >= top_lo for rho, (_, hi) in zip(rhos, brackets)]
            others = [rho for rho, t in zip(rhos, tied) if not t]
            winners = [m for m, t in zip(members, tied) if t]
            detail = extremal._spex_detail(members)
            assert detail.top == top
            assert list(map(id, detail.winners)) == list(map(id, winners))
            assert detail.runner_up == (max(others) if others else None)

    def test_non_contenders_only_screened(self, monkeypatch):
        # Members whose screened upper bound is certified below the bar are
        # never run to convergence.
        real = extremal.power_radius
        full = []

        def counted(*args, **kwargs):
            res = real(*args, **kwargs)
            if kwargs["max_iterations"] == extremal.MAX_ITERATIONS:
                full.append(res.iterations)
            return res

        monkeypatch.setattr(extremal, "power_radius", counted)
        members = enumerate_embeddings(60, 3, 4).members
        (winner,) = spex(members)
        (host,) = [h for h in winner.hosts if h is not None]
        assert canonical_form(host) == canonical_form(star(5))
        assert 0 < len(full) < len(members)

    def test_loose_graph_bracket_does_not_tie(self):
        # The pendant path leaves the second graph's bracket about 0.1 rho
        # wide, overlapping the clique's; the radii differ by 7.7e-3, so
        # the tie tolerance, not the brackets, rules the clique out.
        clique = complete(12).add_isolated(12)
        pendant = clique.with_edges([(11, 12)] + [(v, v + 1) for v in range(12, 23)])
        assert spex([clique, pendant]) == [pendant]

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

    def test_one_pattern_per_host_and_twin_class(self, monkeypatch):
        # n = 7 leaves the host's part no twin class, every larger n one:
        # two read-only patterns per host, shared by every n of the scan.
        real = extremal._one_set_radius
        held = []

        def spy(s_size, host, n, kept):
            held.append(kept)
            return real(s_size, host, n, kept)

        monkeypatch.setattr(extremal, "_one_set_radius", spy)
        verify_one_set(3, 4, complete(3), star(4), [7, 8, 9, 50])
        kept = held[0]
        assert len(held) == 8 and all(k is kept for k in held)
        triangle = complete(3).add_isolated(1)
        assert set(kept) == {(h, twin) for h in (triangle, star(4)) for twin in (False, True)}
        for (_, twin), pattern in kept.items():
            assert pattern.shape == (7 + twin, 7 + twin) and not pattern.flags.writeable

    def test_n_values_must_be_integers(self):
        # int() would truncate these to n = 7 and 8.
        with pytest.raises(GraphError, match="integers"):
            verify_one_set(3, 4, complete(3), star(4), [7.5, 8.9])
        rep = verify_one_set(3, 4, complete(3), star(4), np.arange(7, 9))
        assert rep.parameters["n_max"] == 8 and type(rep.parameters["n_max"]) is int

    @pytest.mark.parametrize(
        "host2, gap, half, verdict",
        [
            (star(4), 5e-10, 1e-10, "pass"),  # disjoint brackets decide a small gap
            (star(4), 2e-9, 2e-9, "fail"),  # overlapping brackets decide nothing
            # An isomorphic copy, so the walk order is EQUAL; disjoint brackets
            # contradict it.
            (Graph.from_edge_list(4, [(1, 2), (2, 3), (1, 3)]), 5e-10, 1e-10, "fail"),
        ],
        ids=["disjoint", "overlap", "equal-disjoint"],
    )
    def test_order_decided_on_brackets(self, monkeypatch, host2, gap, half, verdict):
        # Stand-in radii: the triangle's embedding gets 10 + gap, the other
        # host's 10, each bracketed by +-half.
        triangle = complete(3).add_isolated(1)
        reached = []

        def fake(s_size, host, n, kept):
            reached.append(n)
            rho = 10.0 + (gap if host == triangle else 0.0)
            return SpectralResult(rho, None, 0.0, 1, "power"), (rho - half, rho + half)

        monkeypatch.setattr(extremal, "_one_set_radius", fake)
        rep = verify_one_set(3, 4, complete(3), host2, range(7, 12))
        assert reached == [n for n in range(7, 12) for _host in (1, 2)]
        assert rep.verdict == verdict
        assert rep.details["onset"] == (7 if verdict == "pass" else None)

    @pytest.mark.parametrize("ulps", [-16, 16])
    def test_exact_tie_never_orders(self, monkeypatch, ulps):
        # Both radii are exactly 4 at n = 12, and their float difference is
        # a few ulps off zero: whichever side it falls on, the tie must not
        # count towards the walk order, so the onset stays 13.
        real = extremal._one_set_radius
        reached, nudged_at = [], []

        def nudged(s_size, host, n, kept):
            res, a = real(s_size, host, n, kept)
            reached.append(n)
            if n == 12 and to_graph6(host) == "Is_?G????":
                res = dataclasses.replace(res, rho=res.rho + ulps * math.ulp(res.rho))
                nudged_at.append(n)
            return res, a

        monkeypatch.setattr(extremal, "_one_set_radius", nudged)
        rep = verify_one_set(
            1, 10, from_graph6("IqK??????"), from_graph6("Is_?G????"), range(11, 20)
        )
        assert reached == [n for n in range(11, 20) for _host in (1, 2)]
        assert nudged_at == [12]
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

    def test_n_1e5_returns(self):
        # A fixed +1 shift would converge at about (rho - 1) / (rho + 1) on
        # these quotients, past the 10**6-step cap; the Rayleigh-quotient
        # shift needs about 40.  Each radius must lie in its series bracket.
        n = 100_000
        hosts = (from_graph6("IqK??????"), from_graph6("I{?G?????"))
        rep = verify_one_set(1, 10, *hosts, [n])
        ((m, diff),) = rep.details["diffs"]
        assert m == n
        brackets = []
        for h in hosts:
            e = MultipartiteEmbedding((1, n - 1), (None, h))
            res, _ = extremal._radius(e)
            lo, hi = solve_rho_series(e).bracket
            assert res.iterations <= 60 and lo <= res.rho <= hi
            brackets.append((lo, hi))
        (lo1, hi1), (lo2, hi2) = brackets
        assert lo1 - hi2 <= diff <= hi1 - lo2

    @pytest.mark.parametrize("n", [10**9, 10**12])
    def test_huge_n_returns(self, n):
        # Rounding alone can leave a residual above 1e-12 here (about
        # 1e-15 * rho), so the run stops at its rounding floor instead of
        # running out of steps, and the bracket must still hold the radius.
        e = MultipartiteEmbedding((1, n - 1), (None, from_graph6("I{?G?????")))
        res, (lo, hi) = extremal._radius(e)
        assert res.converged and res.iterations <= 60
        rho = np.linalg.eigvalsh(e.quotient()[0])[-1]
        assert lo <= rho <= hi and hi - lo <= 1e-13 * rho


class TestOneSetQuotient:
    @pytest.mark.parametrize(
        "s, t, host1, host2, ns",
        [
            (1, 10, from_graph6("IqK??????"), from_graph6("Is_?G????"), range(11, 20)),
            (3, 4, complete(3), star(4), range(7, 12)),  # starts at s + t
            (3, 6, path(3), star(3), [9, 10, 12, 50, 200, 10**9]),  # padded, gapped
            (1, 5, complete(2), path(3), [7, 9, 10**9]),  # starts past s + t
            (3, 4, star(4), star(4), [8, 40, 10**9]),  # identical hosts
        ],
        ids=["s1", "from-s+t", "padded-gapped", "past-s+t", "same-host"],
    )
    def test_blocks_equal_a_fresh_embedding(self, monkeypatch, s, t, host1, host2, ns):
        # The quotient each radius runs on equals _blocks of a fresh
        # embedding at that n, bit for bit: q, sizes, B and the roots.
        real = extremal._blocks_radius
        seen = []

        def copied(blocks):
            a, sizes, ((b, root, idx),) = blocks
            seen.append((a.copy(), sizes.copy(), b.copy(), root.copy(), idx))
            return real(blocks)

        monkeypatch.setattr(extremal, "_blocks_radius", copied)
        verify_one_set(s, t, host1, host2, ns)
        hosts = [h.add_isolated(t - h.n) for h in (host1, host2)]
        fresh = [
            extremal._blocks(MultipartiteEmbedding((1,) * s + (n - s,), (None,) * s + (h,)))
            for n in ns
            for h in hosts
        ]
        assert len(seen) == len(fresh) == 2 * len(ns)
        for got, (a, sizes, ((b, root, idx),)) in zip(seen, fresh):
            for x, y in zip(got[:4], (a, sizes, b, root)):
                assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
            assert got[4] == idx


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

    @pytest.mark.parametrize("n", [42_169, 48_696, 64_938, 10**5, 10**6])
    @pytest.mark.parametrize(
        "host", [star(4), complete(3), path(4)], ids=["star:4", "complete:3", "path:4"]
    )
    def test_large_part_passes(self, n, host):
        # From about 4e4 vertices in a part the series probes can no longer
        # narrow the bracket to SOLVE_TOL, so the solver is not converged;
        # both certified brackets still hold the radius, so they meet.
        emb = MultipartiteEmbedding((n, 5), (None, host))
        rep = verify_multi_set(emb)
        assert rep.verdict == "pass"
        rho = float(np.linalg.eigvalsh(emb.quotient()[0])[-1])
        lo, hi = extremal._radius(emb)[1]
        s_lo, s_hi = solve_rho_series(emb).bracket
        assert lo <= rho <= hi and s_lo <= rho <= s_hi

    def test_disjoint_brackets_fail(self, monkeypatch):
        # The solver's value and bracket move 1e-9, off the power bracket:
        # disjoint brackets fail, however small the solver gap.
        real = extremal.solve_rho_series

        def shifted(emb):
            res = real(emb)
            a, b = res.bracket
            return dataclasses.replace(res, rho=res.rho + 1e-9, bracket=(a + 1e-9, b + 1e-9))

        emb = MultipartiteEmbedding((3, 3), (complete(2), None))
        assert verify_multi_set(emb).passed
        monkeypatch.setattr(extremal, "solve_rho_series", shifted)
        rep = verify_multi_set(emb)
        assert rep.verdict == "fail" and rep.details["solver_gap"] < 1e-8

    def test_uncertified_power_bracket_raises(self, monkeypatch):
        monkeypatch.setattr(extremal, "collatz_wielandt", lambda b, z: None)
        with pytest.raises(SpectralError, match="no certified bracket"):
            verify_multi_set(MultipartiteEmbedding((3, 3), (complete(2), None)))


class TestPowerIterationConvergence:
    def test_unconverged_radius_raises(self, monkeypatch):
        real = extremal.power_radius

        def stalled(a, sizes, max_iterations=10**6):
            return dataclasses.replace(
                real(a, sizes, max_iterations=max_iterations), converged=False
            )

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

    @pytest.mark.parametrize("n", [2886, 3000, 4000, 4500])
    def test_disjoint_brackets_within_tol_decide(self, n):
        # The K3 and K_{1,3} hosts' radii differ by less than SPEX_TIE_TOL
        # (1.0e-9 down to 2.6e-10), but their certified brackets are
        # disjoint, so K3 wins alone.
        rep = verify_corollary_tnrk(n, 2, 4)
        assert rep.passed
        assert rep.details["winner_hosts"] == [[to_graph6(complete(3))]]
        assert 0 < rep.details["margin"] < extremal.SPEX_TIE_TOL

    def test_overlapping_brackets_within_tol_tie(self):
        # At n = 5,000 the K3 and K_{1,3} brackets overlap, so they tie and the
        # corollary, which expects K3 alone, fails.
        rep = verify_corollary_tnrk(5000, 2, 4)
        assert rep.verdict == "fail"
        assert rep.details["winner_hosts"] == [[to_graph6(complete(3))], [to_graph6(star(4))]]

    def test_host_not_fitting_inapplicable(self):
        rep = verify_corollary_tnrk(8, 4, 5)
        assert rep.verdict == "inapplicable"

    def test_reports_match_member_path(self):
        # Quotients built from template patterns give the bits that each
        # member embedding's own quotient gives, on either side of the cap.
        rng = random.Random(31)
        for r in (4, 5, 6):
            for _ in range(5):
                k = rng.randint(2, 6)
                n = rng.randint(r * k, r * (2 * k + 2))
                rep = verify_corollary_tnrk(n, r, k)
                members = enumerate_embeddings(n, r, k - 1).members
                detail = extremal._spex_detail(members)
                hosts = [complete(3) if k == 4 else star(k)] + [None] * (r - 1)
                expected = MultipartiteEmbedding(turan_part_sizes(n, r), hosts).key()
                ok = len(detail.winners) == 1 and detail.winners[0].key() == expected
                assert rep.verdict == ("pass" if ok else "fail")
                assert rep.details["family_size"] == len(members)
                assert rep.details["rho_max"].hex() == detail.top.hex()
                margin = rep.details["margin"]
                if detail.runner_up is None:
                    assert margin is None
                else:
                    assert margin.hex() == (detail.top - detail.runner_up).hex()
                assert rep.witnesses == [repr(w) for w in detail.winners]

    def test_warm_scan_reads_each_cache_file_once(self, tmp_path, monkeypatch):
        cache = str(tmp_path)
        for c in range(1, 4):
            enumerate_m_edge(c, cache_dir=cache)
        reads = []
        real = extremal._cache_bytes
        monkeypatch.setattr(extremal, "_cache_bytes", lambda p: reads.append(p) or real(p))
        for n in range(8, 38):
            assert verify_corollary_tnrk(n, 2, 4, cache_dir=cache).passed
        assert sorted(os.path.basename(p) for p in reads) == [f"m_edge_{c}.g6" for c in (1, 2, 3)]

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
            scored.append((e, host, rho_power(e.realize()).rho))
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

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkspectra import (
    FormatError,
    Graph,
    complete,
    cycle,
    format_edge_list,
    from_graph6,
    parse_edge_list,
    read_graph6,
    star,
    to_graph6,
    turan,
    write_graph6,
)
from walkspectra.extremal import enumerate_m_edge


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not pairs:
        return Graph.from_edge_list(n, [])
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return Graph.from_edge_list(n, edges)


class TestEdgeList:
    def test_round_trip(self):
        g = turan(7, 3)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_parse_basic(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g.n == 3 and g.num_edges == 2

    def test_comments_and_blanks(self):
        g = parse_edge_list("# triangle\n3 3\n\n0 1\n1 2\n0 2  # last\n")
        assert g.num_edges == 3

    def test_header_mismatch_line_number(self):
        with pytest.raises(FormatError) as err:
            parse_edge_list("3 2\n0 1\n")
        assert err.value.line == 1

    def test_bad_edge_line_number(self):
        with pytest.raises(FormatError) as err:
            parse_edge_list("3 2\n0 1\n1 x\n")
        assert err.value.line == 3

    def test_self_loop_line_number(self):
        with pytest.raises(FormatError) as err:
            parse_edge_list("3 1\n2 2\n")
        assert err.value.line == 2

    def test_repeated_edge_line_number(self):
        # "1 0" is the edge "0 1" again, so the graph would have fewer
        # edges than the header declares.
        with pytest.raises(FormatError, match="repeated edge '1 0', first given on line 2") as err:
            parse_edge_list("3 2\n0 1\n1 0\n")
        assert err.value.line == 3

    def test_out_of_range(self):
        with pytest.raises(FormatError, match="out of range"):
            parse_edge_list("2 1\n0 5\n")


def per_bit_graph6(g):
    """graph6 read one adjacency entry at a time, as the encoder first did:
    an oracle for the row-list encoder."""
    n = g.n
    if n <= 62:
        out = bytearray([n + 63])
    else:
        out = bytearray([126] + [((n >> s) & 63) + 63 for s in (12, 6, 0)])
    acc = nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | int(g.adj[i, j])
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc, nbits = 0, 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def networkx_graph6(g):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.to_graph6_bytes(h, header=False).decode().strip()


class TestGraph6Encoder:
    def test_m_edge_classes_match_oracles(self):
        for m in range(1, 8):
            for g in enumerate_m_edge(m):
                assert to_graph6(g) == per_bit_graph6(g) == networkx_graph6(g)

    @pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 100])
    def test_random_graphs_match_oracles(self, rng, n):
        from conftest import random_graph

        for p in (0.0, 0.1, 0.5, 1.0):
            g = random_graph(rng, n, p)
            assert to_graph6(g) == per_bit_graph6(g) == networkx_graph6(g)

    def test_encoding_kept_on_graph(self):
        g = cycle(7)
        assert to_graph6(g) is to_graph6(g)

    @pytest.mark.parametrize(
        "derive",
        [
            lambda g: g.with_edges([(1, 2)]),
            lambda g: g.add_isolated(2),
            lambda g: g.relabel([1, 2, 0, 3, 4, 5]),
        ],
        ids=["with_edges", "add_isolated", "relabel"],
    )
    def test_derived_graph_encoded_afresh(self, derive):
        g = star(6)
        code = to_graph6(g)
        h = derive(g)
        assert to_graph6(h) == per_bit_graph6(h) != code
        assert to_graph6(g) is code


class TestGraph6:
    @given(graphs())
    @settings(max_examples=100)
    def test_round_trip(self, g):
        assert from_graph6(to_graph6(g)) == g

    def test_matches_standard_encoder(self, rng):
        # networkx implements the de-facto standard; byte-level agreement
        # pins our bit order.
        import networkx as nx

        from conftest import random_graph

        pool = [complete(4), star(6), cycle(5), turan(9, 2)]
        pool += [random_graph(rng, rng.randint(0, 14), 0.4) for _ in range(40)]
        for g in pool:
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            expected = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert to_graph6(g) == expected

    def test_header_tolerated(self):
        g = star(4)
        assert from_graph6(">>graph6<<" + to_graph6(g)) == g

    def test_large_order_round_trip(self, rng):
        from conftest import random_graph

        g = random_graph(rng, 100, 0.05)
        s = to_graph6(g)
        assert s.startswith("~")
        assert from_graph6(s) == g

    def test_decoding_peak_within_three_bytes_a_pair(self):
        # The decoded bits, the lower-triangle mask and the matrix, which the
        # graph takes without a copy: about 2.6 n^2 bytes at the peak.
        n = 2000
        g = complete(n)
        text = to_graph6(g)
        tracemalloc.start()
        try:
            h = from_graph6(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h == g and not h.adj.flags.writeable
        assert peak <= 3 * n * n

    def test_invalid_characters(self):
        with pytest.raises(FormatError):
            from_graph6("B\x20w")

    def test_non_ascii_rejected(self):
        # a lossy encoding would turn the accent into '?', a valid byte
        with pytest.raises(FormatError, match="invalid graph6 character"):
            from_graph6("B\u00e9")

    def test_wrong_body_length(self):
        with pytest.raises(FormatError, match="body"):
            from_graph6("Bww")

    def test_nonzero_padding_rejected(self):
        # 'x' carries K3's three bits and a set padding bit; 'w' is K3
        with pytest.raises(FormatError, match="padding"):
            from_graph6("Bx")

    @pytest.mark.parametrize("text", ["~??Bw", "~~?????Bw", "~~?????~??"])
    def test_long_size_block_rejected(self, text):
        with pytest.raises(FormatError, match="size block"):
            from_graph6(text)

    @given(
        st.one_of(
            st.text(max_size=40),
            st.text(st.characters(min_codepoint=63, max_codepoint=126), max_size=40),
        )
    )
    @settings(max_examples=300)
    def test_arbitrary_text(self, text):
        # Either a FormatError, or the one graph whose encoding is the input.
        try:
            g = from_graph6(text)
        except FormatError:
            return
        assert to_graph6(g) == text.strip().removeprefix(">>graph6<<")

    def test_file_round_trip(self, tmp_path, rng):
        from conftest import random_graph

        graphs_list = [random_graph(rng, rng.randint(1, 10), 0.3) for _ in range(12)]
        path = tmp_path / "family.g6"
        write_graph6(graphs_list, path)
        assert read_graph6(path) == graphs_list

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "bin.g6"
        path.write_bytes(b"Bw\n\xffBw\n")
        with pytest.raises(FormatError) as err:
            read_graph6(path)
        assert str(err.value) == f"{path} is not UTF-8 text"

    def test_file_bad_record_line(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("Bw\n??bad!!\n")
        with pytest.raises(FormatError) as err:
            read_graph6(path)
        assert err.value.line == 2

    def test_file_bad_record_names_file(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("Bw\n??bad\n")
        with pytest.raises(FormatError) as err:
            read_graph6(path)
        assert err.value.path == path
        assert str(err.value) == (
            f"{path}: line 2: bad graph6 record: "
            "graph6 body has 4 bytes, expected 0 for n=0"
        )

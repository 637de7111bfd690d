"""Graph serialization: edge-list text files and the graph6 format.

Edge-list format: first line ``n m``, then m lines ``u v`` with 0-based
vertex indices, each edge on one line only.  Blank lines and ``#`` comments
are tolerated.

graph6: standard bit-packed encoding, 6 bits per byte at offset 63, upper
triangle in column-major order, which by symmetry is the strict lower
triangle in row-major order.

An edge-list header or a graph6 size block declaring more than
``spectral.ORDER_LIMIT`` vertices is refused before the edges or the body
are parsed and before the graph is allocated.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError, integer, quoted
from .graphs import Graph
from .spectral import ORDER_LIMIT

__all__ = [
    "parse_edge_list",
    "format_edge_list",
    "read_graph",
    "to_graph6",
    "from_graph6",
    "read_graph6",
    "write_graph6",
]


# ---- edge-list text --------------------------------------------------------


def _data_lines(text):
    """The comment-free, nonblank lines of ``text``, stripped, as ``(line
    number, line)`` pairs."""
    return [
        (lineno, line)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.split("#", 1)[0].strip())
    ]


def parse_edge_list(text):
    return _edge_list(_data_lines(text))


def _edge_list(rows):
    if not rows:
        raise FormatError("empty edge-list input")

    lineno, header = rows[0]
    n, m = _pair(lineno, header, "header 'n m'", "header")
    if n < 0 or m < 0:
        raise FormatError("n and m must be nonnegative", line=lineno)
    if n > ORDER_LIMIT:
        raise FormatError(f"order {n} is above the limit {ORDER_LIMIT}", line=lineno)
    if len(rows) - 1 != m:
        raise FormatError(
            f"header declares {m} edges but {len(rows) - 1} edge lines found",
            line=lineno,
        )

    first_line = {}
    for lineno, line in rows[1:]:
        u, v = _pair(lineno, line, "'u v'", "endpoint")
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"endpoint out of range 0..{n - 1}: {quoted(line)}", line=lineno)
        if u == v:
            raise FormatError(f"self-loop at vertex {u}", line=lineno)
        edge = (min(u, v), max(u, v))
        if edge in first_line:
            raise FormatError(
                f"repeated edge {quoted(line)}, first given on line {first_line[edge]}", line=lineno
            )
        first_line[edge] = lineno
    return Graph.from_edge_list(n, list(first_line))


def _pair(lineno, line, form, what):
    """The two integers of an edge-list line of the given form."""
    parts = line.split()
    if len(parts) != 2:
        raise FormatError(f"expected {form}, got {quoted(line)}", line=lineno)
    error = lambda reason: FormatError(reason, line=lineno)
    return integer(parts[0], error, what), integer(parts[1], error, what)


def format_edge_list(g):
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_graph(path):
    """The one graph of an edge-list or graph6 file; a bad record raises
    FormatError naming the file."""
    rows = _data_lines(read_text(path))
    if not rows:
        raise FormatError(f"no graph data in {path}")
    lineno, first = rows[0]
    if len(first.split()) == 2:  # a graph6 record holds no whitespace
        try:
            return _edge_list(rows)
        except FormatError as exc:
            raise FormatError(exc.reason, line=exc.line, path=path) from None
    if len(rows) > 1:
        raise FormatError(f"{path} holds {len(rows)} graph6 lines; one graph expected")
    return graph6_record(first, lineno, path)


# ---- graph6 ---------------------------------------------------------------

# The body's bits are the entries of the mask np.tri(n, k=-1), six to a
# byte, most significant first.  A boolean mask costs one byte per entry;
# index arrays (np.tril_indices) would cost 16 per pair.
_BIT_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
_GRAPH6_CHARS = bytes(range(63, 127))


def _g6_size_bytes(n):
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126] + [((n >> s) & 63) + 63 for s in (12, 6, 0)])
    return bytes([126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)])


def to_graph6(g):
    """Encode a graph as a graph6 string (no header, no newline).

    The string is computed once per graph and kept on it; graphs are
    immutable, so it cannot go stale.
    """
    if g._g6 is None:
        g._g6 = _encode_graph6(g)
    return g._g6


def _encode_graph6(g):
    bits = g.adj[np.tri(g.n, k=-1, dtype=bool)]
    groups = np.zeros(-(-bits.size // 6) * 6, dtype=np.uint8)
    groups[: bits.size] = bits
    body = groups.reshape(-1, 6) @ _BIT_WEIGHTS + 63
    return (_g6_size_bytes(g.n) + body.tobytes()).decode("ascii")


def _graph6_bytes(text):
    """``text`` as bytes, each a graph6 character."""
    data = text.encode("utf-8", "surrogatepass")  # non-ASCII text gives bytes above 127
    if data.translate(None, _GRAPH6_CHARS):
        raise FormatError("invalid graph6 character")
    return data


def from_graph6(s):
    """Decode a graph6 string; tolerates the optional '>>graph6<<' header.

    Only the one encoding ``to_graph6`` writes is accepted: a size block
    longer than the order needs, or nonzero padding bits, raise FormatError.
    An order above ``ORDER_LIMIT`` is refused as soon as the size block is
    read, before the body is scanned, copied or decoded.
    """
    s = s.strip().removeprefix(">>graph6<<")
    if not s:
        raise FormatError("empty graph6 string")
    width = 1 if s[0] != "~" else 4 if s[1:2] != "~" else 8
    head = _graph6_bytes(s[:width])
    if len(head) < width:
        raise FormatError("truncated graph6 size block")
    n = 0
    for b in head[width // 4 :]:  # after the one or two '~' markers
        n = (n << 6) | (b - 63)
    if len(_g6_size_bytes(n)) != width:
        raise FormatError(f"graph6 size block longer than needed for n={n}")
    if n > ORDER_LIMIT:
        raise FormatError(f"order {n} is above the limit {ORDER_LIMIT}")

    body = np.frombuffer(_graph6_bytes(s), dtype=np.uint8, offset=width)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if body.size != need:
        raise FormatError(f"graph6 body has {body.size} bytes, expected {need} for n={n}")
    bits = ((body[:, None] - 63) & _BIT_WEIGHTS).astype(bool).ravel()
    if bits[nbits:].any():
        raise FormatError("nonzero graph6 padding bits")
    # Both triangles are filled in one matrix, which the graph takes as it
    # is: the bits, the mask and the matrix peak at about 2.6 n^2 bytes.
    adj = np.zeros((n, n), dtype=bool)
    lower = np.tri(n, k=-1, dtype=bool)
    adj[lower] = adj.T[lower] = bits[:nbits]
    return Graph._owned(adj)


def read_text(path):
    """The text of a graph file; one that is not UTF-8 raises FormatError
    naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise FormatError(f"{path} is not UTF-8 text") from None


def graph6_record(record, line, path):
    """Decode one graph6 line of a file; a bad one raises FormatError
    naming the file and the line."""
    try:
        return from_graph6(record)
    except FormatError as exc:
        raise FormatError(f"bad graph6 record: {exc}", line=line, path=path) from None


def graph6_lines(path):
    """The records of a file of graph6 lines, as ``(line number, record)``
    pairs: its nonblank lines, stripped."""
    return [
        (lineno, line)
        for lineno, raw in enumerate(read_text(path).split("\n"), start=1)
        if (line := raw.strip())
    ]


def read_graph6(path):
    """Read a file of graph6 lines into a list of graphs."""
    return [graph6_record(record, lineno, path) for lineno, record in graph6_lines(path)]


def write_graph6(graphs, path):
    with open(path, "w", encoding="utf-8") as fh:
        for g in graphs:
            fh.write(to_graph6(g) + "\n")

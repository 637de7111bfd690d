"""Graph serialization: edge-list text files and the graph6 format.

Edge-list format: first line ``n m``, then m lines ``u v`` with 0-based
vertex indices, each edge on one line only.  Blank lines and ``#`` comments
are tolerated.  A header declaring more than ``spectral.ORDER_LIMIT``
vertices is refused before the graph is allocated.

graph6: standard bit-packed encoding, 6 bits per byte at offset 63, upper
triangle in column-major order.
"""

from __future__ import annotations

from .errors import FormatError
from .graphs import Graph
from .spectral import ORDER_LIMIT

__all__ = [
    "parse_edge_list",
    "format_edge_list",
    "to_graph6",
    "from_graph6",
    "read_graph6",
    "write_graph6",
]


# ---- edge-list text --------------------------------------------------------


def parse_edge_list(text):
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line))
    if not rows:
        raise FormatError("empty edge-list input")

    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise FormatError(f"expected header 'n m', got {header!r}", line=lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"non-integer header {header!r}", line=lineno) from None
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
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'u v', got {line!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"non-integer endpoints {line!r}", line=lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"endpoint out of range 0..{n - 1}: {line!r}", line=lineno)
        if u == v:
            raise FormatError(f"self-loop at vertex {u}", line=lineno)
        edge = (min(u, v), max(u, v))
        if edge in first_line:
            raise FormatError(
                f"repeated edge {line!r}, first given on line {first_line[edge]}", line=lineno
            )
        first_line[edge] = lineno
    return Graph.from_edge_list(n, list(first_line))


def format_edge_list(g):
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# ---- graph6 ---------------------------------------------------------------


def _g6_size_bytes(n):
    if n < 0:
        raise FormatError("negative vertex count")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)])
    raise FormatError("graph too large for graph6")


def to_graph6(g):
    """Encode a graph as a graph6 string (no header, no newline).

    The string is computed once per graph and kept on it; graphs are
    immutable, so it cannot go stale.
    """
    if g._g6 is None:
        g._g6 = _encode_graph6(g)
    return g._g6


def _encode_graph6(g):
    n = g.n
    out = bytearray(_g6_size_bytes(n))
    # Column j of the upper triangle is row j's first j entries, since the
    # matrix is symmetric; Python bools read faster than numpy scalars.
    rows = g.adj.tolist()
    acc = 0
    nbits = 0
    for j in range(1, n):
        for bit in rows[j][:j]:
            acc = (acc << 1) | bit
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc, nbits = 0, 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def from_graph6(s):
    """Decode a graph6 string; tolerates the optional '>>graph6<<' header.

    Only the one encoding ``to_graph6`` writes is accepted: a size block
    longer than the order needs, or nonzero padding bits, raise FormatError.
    """
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise FormatError("empty graph6 string")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError:
        raise FormatError("invalid graph6 character") from None
    if any(b < 63 or b > 126 for b in data):
        raise FormatError("invalid graph6 character")

    if data[0] != 126:
        n = data[0] - 63
        body = data[1:]
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise FormatError("truncated graph6 size block")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        if len(data) < 8:
            raise FormatError("truncated graph6 size block")
        n = 0
        for b in data[2:8]:
            n = (n << 6) | (b - 63)
        body = data[8:]
    if len(data) - len(body) != len(_g6_size_bytes(n)):
        raise FormatError(f"graph6 size block longer than needed for n={n}")

    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise FormatError(
            f"graph6 body has {len(body)} bytes, expected {need} for n={n}"
        )
    bits = 0
    for b in body:
        bits = (bits << 6) | (b - 63)
    pad = 6 * need - nbits
    if bits & ((1 << pad) - 1):
        raise FormatError("nonzero graph6 padding bits")
    bits >>= pad

    edges = []
    pos = nbits
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if (bits >> pos) & 1:
                edges.append((i, j))
    return Graph.from_edge_list(n, edges)


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

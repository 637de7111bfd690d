"""Undirected simple graphs: dense adjacency, named families, combinators,
canonical forms, and complete-multipartite embeddings.

Every other module consumes the :class:`Graph` type defined here.  Graphs are
immutable after construction; all combinators return new instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphError, indices
from .spectral import ORDER_LIMIT

__all__ = [
    "Graph",
    "CanonicalForm",
    "MultipartiteEmbedding",
    "canonical_form",
    "complement",
    "complete",
    "complete_multipartite",
    "cycle",
    "disjoint_union",
    "empty",
    "join",
    "path",
    "star",
    "turan",
]


class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    Stores a dense symmetric boolean adjacency matrix with an empty diagonal.
    Suitable up to a few thousand vertices; enumeration and canonicalization
    workloads stay far smaller.
    """

    __slots__ = ("n", "_adj", "_neighbors", "_degrees", "_hash", "_canon", "_g6")

    def __init__(self, adj):
        adj = np.array(adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise GraphError("adjacency matrix must be square")
        if adj.size and np.diagonal(adj).any():
            raise GraphError("self-loops are not allowed")
        if adj.size and not np.array_equal(adj, adj.T):
            raise GraphError("adjacency matrix must be symmetric")
        self._own(adj)

    @classmethod
    def _owned(cls, adj):
        """A graph over ``adj``, a symmetric boolean matrix with an empty
        diagonal that nothing else holds: taken without a copy or a check."""
        g = cls.__new__(cls)
        g._own(adj)
        return g

    def _own(self, adj):
        adj.setflags(write=False)
        self.n = int(adj.shape[0])
        self._adj = adj
        self._neighbors = None
        self._degrees = None
        self._hash = None
        self._canon = None
        self._g6 = None

    @classmethod
    def from_edge_list(cls, n, edges):
        """Build a graph from vertex count and edge pairs.

        Duplicate edges collapse silently; self-loops and out-of-range
        endpoints are rejected with a diagnostic.
        """
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        adj = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u} is not allowed")
            adj[u, v] = adj[v, u] = True
        return cls._owned(adj)

    # ---- basic accessors -------------------------------------------------

    @property
    def adj(self):
        """Read-only boolean adjacency matrix."""
        return self._adj

    @property
    def degrees(self):
        if self._degrees is None:
            self._degrees = tuple(int(d) for d in self._adj.sum(axis=1))
        return self._degrees

    @property
    def neighbor_lists(self):
        """Tuple of sorted neighbor tuples, one per vertex."""
        if self._neighbors is None:
            # One scan of the flattened matrix (row-major order), cut into
            # rows by degree; a flat index modulo n is its column.
            cols = tuple((np.flatnonzero(self._adj) % self.n).tolist())
            rows, end = [], 0
            for d in self._adj.sum(axis=1).tolist():
                rows.append(cols[end : end + d])
                end += d
            self._neighbors = tuple(rows)
        return self._neighbors

    @property
    def num_edges(self):
        return sum(self.degrees) // 2

    def degree(self, u):
        return self.degrees[u]

    def max_degree(self):
        return max(self.degrees, default=0)

    def has_edge(self, u, v):
        return bool(self._adj[u, v])

    def edges(self):
        """Sorted list of edges as (u, v) with u < v."""
        us, vs = np.nonzero(np.triu(self._adj, 1))
        return [(int(u), int(v)) for u, v in zip(us, vs)]

    def adjacency(self, dtype=float):
        """Writable copy of the adjacency matrix in the requested dtype."""
        return self._adj.astype(dtype)

    # ---- derived graphs --------------------------------------------------

    def with_edges(self, edges):
        """New graph with the given edges added."""
        adj = self.adjacency(bool)
        for u, v in edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={self.n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u} is not allowed")
            adj[u, v] = adj[v, u] = True
        return Graph._owned(adj)

    def add_isolated(self, k):
        """New graph padded with k isolated vertices."""
        if k < 0:
            raise GraphError("cannot remove vertices by padding")
        if k == 0:
            return self
        adj = np.zeros((self.n + k, self.n + k), dtype=bool)
        adj[: self.n, : self.n] = self._adj
        return Graph._owned(adj)

    def induced(self, vertices):
        """Subgraph induced by the given distinct vertices, vertex i of it
        being the i-th one given."""
        idx = indices(vertices, GraphError, "vertices")
        bad = [v for v in idx if not 0 <= v < self.n]
        if bad:
            raise GraphError(f"vertex {bad[0]} out of range for n={self.n}")
        if len(set(idx)) < len(idx):
            raise GraphError("induced vertices must be distinct")
        idx = np.array(idx, dtype=int)
        return Graph._owned(self._adj[np.ix_(idx, idx)])

    def relabel(self, perm):
        """New graph where old vertex i becomes perm[i]."""
        perm = list(perm)
        if sorted(perm) != list(range(self.n)):
            raise GraphError("relabeling must be a permutation of all vertices")
        inv = np.argsort(perm)  # inv[perm[i]] = i
        return Graph._owned(self._adj[np.ix_(inv, inv)])

    # ---- structure -------------------------------------------------------

    def components(self):
        """Connected components as sorted vertex lists, smallest vertex first."""
        seen = [False] * self.n
        out = []
        nbrs = self.neighbor_lists
        for start in range(self.n):
            if seen[start]:
                continue
            comp = []
            stack = [start]
            seen[start] = True
            while stack:
                u = stack.pop()
                comp.append(u)
                for v in nbrs[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            out.append(sorted(comp))
        return out

    def is_connected(self):
        if self.n <= 1:
            return True
        return len(self.components()) == 1

    # ---- identity --------------------------------------------------------

    def _key(self):
        return self.n, (np.packbits(self._adj).tobytes() if self.n else b"")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


# ---- named families ------------------------------------------------------


def empty(n):
    """Graph with n vertices and no edges."""
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    return Graph._owned(np.zeros((n, n), dtype=bool))


def complete(n):
    if n < 1:
        raise GraphError("complete graph needs at least one vertex")
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    return Graph._owned(adj)


def star(n):
    """Star of order n: center 0 joined to n-1 leaves."""
    if n < 1:
        raise GraphError("star needs at least one vertex")
    return Graph.from_edge_list(n, [(0, v) for v in range(1, n)])


def path(n):
    if n < 1:
        raise GraphError("path needs at least one vertex")
    return Graph.from_edge_list(n, [(v, v + 1) for v in range(n - 1)])


def cycle(n):
    if n < 3:
        raise GraphError("cycle needs at least three vertices")
    edges = [(v, v + 1) for v in range(n - 1)] + [(n - 1, 0)]
    return Graph.from_edge_list(n, edges)


def complete_multipartite(sizes):
    """Complete multipartite graph; parts occupy consecutive index ranges."""
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise GraphError("part sizes must be positive")
    return _multipartite(sizes, [None] * len(sizes))


def _multipartite(sizes, hosts):
    """Complete multipartite graph on part sizes (a 0 from :func:`join` adds no
    vertex), each host on the first slots of its part (None for none)."""
    n = sum(sizes)
    adj = np.ones((n, n), dtype=bool)
    start = 0
    for size, host in zip(sizes, hosts):
        # Every vertex lies in one part block, so this empties the diagonal.
        adj[start : start + size, start : start + size] = False
        if host is not None:
            adj[start : start + host.n, start : start + host.n] = host.adj
        start += size
    return Graph._owned(adj)


def turan_part_sizes(n, r):
    """Part sizes of the Turan graph, nondecreasing (floor sizes first).  More
    than ``ORDER_LIMIT`` parts are refused: any graph or quotient on them is."""
    if r < 1 or n < r:
        raise GraphError(f"turan requires 1 <= r <= n, got n={n}, r={r}")
    if r > ORDER_LIMIT:
        raise GraphError(f"{r} parts are above the order limit {ORDER_LIMIT}")
    q, rem = divmod(n, r)
    return tuple([q] * (r - rem) + [q + 1] * rem)


def turan(n, r):
    """Turan graph: complete r-partite with parts as equal as possible."""
    return complete_multipartite(turan_part_sizes(n, r))


# ---- combinators ---------------------------------------------------------


def disjoint_union(g1, g2):
    n = g1.n + g2.n
    adj = np.zeros((n, n), dtype=bool)
    adj[: g1.n, : g1.n] = g1.adj
    adj[g1.n :, g1.n :] = g2.adj
    return Graph._owned(adj)


def join(g1, g2):
    """Disjoint union plus all edges between the two vertex sets."""
    return _multipartite((g1.n, g2.n), (g1, g2))


def complement(g):
    adj = ~g.adj
    np.fill_diagonal(adj, False)
    return Graph._owned(adj)


# ---- canonical forms -----------------------------------------------------

CANON_LIMIT = 10

# Permutation search explodes on large color classes; canonicalization is
# only ever needed on small components here.
_MAX_SEARCH = 2_000_000


@dataclass(frozen=True)
class CanonicalForm:
    """Byte string identifying an isomorphism class: equal iff isomorphic."""

    data: bytes

    def hex(self):
        return self.data.hex()


def _refine_colors(nbrs):
    """Iterated neighborhood refinement of a graph given by its sorted
    neighbor lists, starting from degrees.

    Color values are canonical (derived only from degrees and sorted
    neighbor colors), so equal classes across isomorphic graphs get equal
    ranks.
    """
    n = len(nbrs)
    colors = [len(vs) for vs in nbrs]
    for _ in range(n):
        keys = [(colors[u], tuple(sorted(colors[v] for v in nbrs[u]))) for u in range(n)]
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [rank[k] for k in keys]
        if len(set(new)) == len(set(colors)):
            # classes stable; keep ranks canonical by one extra pass result
            return new
        colors = new
    return colors


def _component_canonical(nbrs):
    """Minimal adjacency bitstring over color-respecting vertex orderings of
    a connected graph given by its sorted neighbor lists.

    Bits are taken column by column over the upper triangle, so they accrue
    one column per placed vertex and prefixes prune the search.  Restricting
    orderings to keep refinement classes in canonical rank order is sound:
    the classes are isomorphism-invariant, so isomorphic components minimize
    to the same bitstring, and equal bitstrings describe the same labeled
    graph.  Twins (vertices whose rows agree outside their shared entry) are
    placed in index order: swapping two twins is an automorphism, so it
    leaves every bitstring, and hence the minimum, unchanged.
    """
    colors = _refine_colors(nbrs)
    classes = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    groups = [classes[c] for c in sorted(classes)]

    n = len(nbrs)
    # Row v as an int whose bit u is the edge uv: one shift and mask per bit.
    rows = [sum(1 << u for u in nbrs[v]) for v in range(n)]
    # prev_twin[v]: the nearest lower-indexed twin of v, or -1.  Twinness is
    # an equivalence relation, so v waiting only for prev_twin[v] places
    # each twin class in index order.
    prev_twin = [-1] * n
    for v in range(n):
        for u in range(v - 1, -1, -1):
            mask = ~((1 << u) | (1 << v))
            if rows[u] & mask == rows[v] & mask:
                prev_twin[v] = u
                break
    total_bits = n * (n - 1) // 2
    group_at = []
    for gi, grp in enumerate(groups):
        group_at.extend([gi] * len(grp))

    best = None
    order = []
    used = [False] * n
    nodes = 0

    def dfs(pos, bits, nbits):
        nonlocal best, nodes
        nodes += 1
        if nodes > _MAX_SEARCH:
            raise GraphError("canonicalization search space too large")
        if pos == n:
            if best is None or bits < best:
                best = bits
            return
        for v in groups[group_at[pos]]:
            if used[v] or (prev_twin[v] >= 0 and not used[prev_twin[v]]):
                continue
            nb = bits
            row = rows[v]
            for u in order:
                nb = (nb << 1) | ((row >> u) & 1)
            nnb = nbits + pos
            if best is not None and nb > (best >> (total_bits - nnb)):
                continue
            used[v] = True
            order.append(v)
            dfs(pos + 1, nb, nnb)
            order.pop()
            used[v] = False

    dfs(0, 0, 0)
    return best


def canonical_form(g):
    """Canonical byte form of g's isomorphism class.

    Isolated vertices are stripped and connected components are
    canonicalized independently, so the permutation search is bounded by
    the largest component rather than the whole graph; a component of more
    than ``CANON_LIMIT`` vertices is refused.  The form is computed once
    per graph and kept on it; graphs are immutable, so it cannot go stale.
    """
    if g._canon is None:
        comps = [c for c in g.components() if len(c) > 1]
        largest = max(map(len, comps), default=0)
        if largest > CANON_LIMIT:
            raise GraphError(
                f"component of {largest} vertices exceeds canonicalization limit {CANON_LIMIT}"
            )
        g._canon = _assemble_form(g, comps)
    return g._canon


def _assemble_form(g, comps):
    """Canonicalize each component, then pack a canonical representative:
    components in sorted order, isolated vertices last."""
    nbrs = g.neighbor_lists
    canon_comps = []
    for comp in comps:
        local = {v: i for i, v in enumerate(comp)}
        sub = [[local[v] for v in nbrs[u]] for u in comp]
        canon_comps.append((len(comp), _component_canonical(sub)))
    canon_comps.sort()

    payload = bytearray()
    payload += g.n.to_bytes(4, "big")
    for order, bits in canon_comps:
        nbits = order * (order - 1) // 2
        payload += bytes([order])
        payload += bits.to_bytes((nbits + 7) // 8 or 1, "big")
    return CanonicalForm(bytes(payload))


# ---- multipartite embeddings ----------------------------------------------
class MultipartiteEmbedding:
    """A complete multipartite graph with host graphs embedded in its parts.

    Part i (size ``part_sizes[i]``) occupies a consecutive index range in the
    realized graph; a host occupies the first ``host.n`` slots of its part.
    ``None`` hosts are empty, and a total order above 2**53 is refused.
    """

    __slots__ = ("part_sizes", "hosts")

    def __init__(self, part_sizes, hosts=None):
        part_sizes = indices(part_sizes, GraphError, "part sizes")
        if len(part_sizes) < 2:
            raise GraphError("embedding needs at least two parts")
        if any(s < 1 for s in part_sizes):
            raise GraphError("part sizes must be positive")
        _exact_order(sum(part_sizes))
        if hosts is None:
            hosts = (None,) * len(part_sizes)
        hosts = tuple(hosts)
        if len(hosts) != len(part_sizes):
            raise GraphError("one host slot per part required")
        for i, (size, host) in enumerate(zip(part_sizes, hosts)):
            if host is not None and host.n > size:
                raise GraphError(
                    f"host of order {host.n} does not fit in part {i} of size {size}"
                )
        self.part_sizes = part_sizes
        self.hosts = hosts

    @property
    def r(self):
        return len(self.part_sizes)

    @property
    def n(self):
        return sum(self.part_sizes)

    @property
    def delta(self):
        """Maximum degree over all hosts."""
        return max((h.max_degree() for h in self.hosts if h is not None), default=0)

    @property
    def t(self):
        """Total number of embedded edges."""
        return sum(h.num_edges for h in self.hosts if h is not None)

    def part_range(self, i):
        start = sum(self.part_sizes[:i])
        return range(start, start + self.part_sizes[i])

    def hostless(self):
        return MultipartiteEmbedding(self.part_sizes)

    def realize(self):
        """The embedded graph: all cross-part edges plus host edges."""
        return _multipartite(self.part_sizes, self.hosts)

    def quotient(self):
        """Twin-class quotient ``(q, sizes)``: host vertices are singleton
        classes and the rest of each part is one class of false twins, an
        equitable partition.  ``q``, of order at most r + sum |V(H_s)| at any
        n, has the realized graph's spectral radius: sqrt(|a| |b|) between
        classes of different parts, the host adjacency inside a part.
        """
        pattern = twin_pattern(self.part_sizes, self.hosts)
        return twin_quotient(self.part_sizes, host_orders(self.hosts), pattern)

    def key(self):
        """Equivalence key: parts of equal size are interchangeable and host
        placement inside a part is label-free."""
        items = []
        for size, host in zip(self.part_sizes, self.hosts):
            if host is None or host.num_edges == 0:
                items.append((size, b""))
            else:
                items.append((size, canonical_form(host).data))
        return tuple(sorted(items))

    def __eq__(self, other):
        if not isinstance(other, MultipartiteEmbedding):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        hosted = sum(1 for h in self.hosts if h is not None and h.num_edges)
        return (
            f"MultipartiteEmbedding(parts={self.part_sizes}, "
            f"t={self.t}, hosted_parts={hosted})"
        )


def host_orders(hosts):
    """Each host's order, 0 for none."""
    return tuple(0 if h is None else h.n for h in hosts)


def _exact_order(order):
    """Refuse an order above 2**53, past which part sizes are not exact floats."""
    if order > 2**53:
        raise GraphError(f"order is above 2**53 = {2**53}; part sizes past it are not exact floats")


def twin_pattern(part_sizes, hosts):
    """Which classes of the twin-class quotient are adjacent: the adjacency
    of the embedding with each part cut down to its classes.  This depends
    on the part sizes only through which hosted parts have vertices left
    over, so one pattern serves every n where that holds.  A quotient of
    more than ``ORDER_LIMIT`` classes is refused before it is allocated."""
    cut = [k + (size > k) for size, k in zip(part_sizes, host_orders(hosts))]
    if sum(cut) > ORDER_LIMIT:
        raise GraphError(f"quotient of order {sum(cut)} is above the limit {ORDER_LIMIT}")
    return _multipartite(cut, hosts).adj


def twin_quotient(part_sizes, orders, pattern):
    """:meth:`MultipartiteEmbedding.quotient` from its :func:`twin_pattern`
    and each part's host order (0 for none): per part, that many singleton
    classes and then the rest of the part as one class."""
    _exact_order(sum(part_sizes))
    sizes = []
    for size, k in zip(part_sizes, orders):
        sizes += [1] * k + [size - k] * (size > k)
    sizes = np.array(sizes, dtype=float)
    # sqrt of the products, not a product of roots: the bits differ.  Host
    # vertices are singletons, so a host edge's entry is sqrt(1 * 1) = 1.0.
    return np.sqrt(np.outer(sizes, sizes)) * pattern, sizes

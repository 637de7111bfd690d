"""Reference computations for the correctness gate.

Everything here is written independently of walkspectra: radii come from
LAPACK (``numpy.linalg.eigvalsh``) on adjacency matrices built from the
benchmark's own description of each graph, graph6 is encoded and decoded
from the format definition, and walk totals come from integer matrix-vector
products.
"""

import numpy as np

# Isomorphism classes of graphs with m edges and no isolated vertices,
# m = 1..7 (OEIS A000664).
M_EDGE_CLASS_COUNTS = {1: 1, 2: 2, 3: 5, 4: 11, 5: 26, 6: 68, 7: 177}


def radius(adj):
    """Largest adjacency eigenvalue, by LAPACK."""
    if adj.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(adj.astype(float))[-1])


def turan_sizes(n, r):
    q, rem = divmod(n, r)
    return [q] * (r - rem) + [q + 1] * rem


def adjacency(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return adj


def star_edges(order):
    return [(0, v) for v in range(1, order)]


def multipartite_adjacency(sizes, host_adjs):
    """Complete multipartite graph on ``sizes`` with host i placed on the
    first vertices of part i (``None`` for an empty part)."""
    n = sum(sizes)
    adj = np.ones((n, n), dtype=bool)
    start = 0
    for size, host in zip(sizes, host_adjs):
        block = np.zeros((size, size), dtype=bool)
        if host is not None:
            block[: host.shape[0], : host.shape[0]] = host
        adj[start:start + size, start:start + size] = block
        start += size
    return adj


def join_adjacency(host_adj, m):
    """The graph ``host_adj`` joined to m independent vertices."""
    h = host_adj.shape[0]
    adj = np.zeros((h + m, h + m), dtype=bool)
    adj[:h, h:] = True
    adj[h:, :h] = True
    adj[:h, :h] = host_adj
    return adj


def one_set_adjacency(s_size, n, host_adj):
    """A clique of ``s_size`` vertices joined to n - s_size vertices that
    carry the host on their first slots."""
    adj = np.zeros((n, n), dtype=bool)
    adj[:s_size, :] = True
    adj[:, :s_size] = True
    np.fill_diagonal(adj[:s_size, :s_size], False)
    h = host_adj.shape[0]
    adj[s_size:s_size + h, s_size:s_size + h] = host_adj
    return adj


def graph6_encode(n, edges):
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [63 + int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6)]
    return bytes(head + body).decode("ascii")


def graph6_decode(text):
    """(n, sorted edge list) of a graph6 string of order < 258048."""
    data = text.encode("ascii")
    if data[0] == 126:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    bits = []
    for byte in body:
        bits.extend((byte - 63) >> shift & 1 for shift in range(5, -1, -1))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return n, edges


def walk_totals(adj, depth):
    """[W_1, ..., W_depth] as exact integers: W_L = 1^T A^L 1."""
    vec = [1] * adj.shape[0]
    rows = [np.flatnonzero(adj[i]).tolist() for i in range(adj.shape[0])]
    totals = []
    for _ in range(depth):
        vec = [sum(vec[j] for j in row) for row in rows]
        totals.append(sum(vec))
    return totals


def walk_order(adj1, adj2):
    """'greater' / 'less' / 'equal' by lexicographic comparison of total
    walk counts over n1 + n2 levels, which decides the order exactly."""
    bound = adj1.shape[0] + adj2.shape[0]
    for w1, w2 in zip(walk_totals(adj1, bound), walk_totals(adj2, bound)):
        if w1 != w2:
            return "greater" if w1 > w2 else "less"
    return "equal"


def onset(diffs, ordering, tol):
    """Least tested n from which the sign of rho(G1) - rho(G2) agrees with
    the walk ordering at every larger tested n (None if it never does)."""
    if ordering == "equal":
        return diffs[0][0] if all(abs(d) <= tol for _, d in diffs) else None
    want = 1.0 if ordering == "greater" else -1.0
    first = None
    for n, d in reversed(diffs):
        if d * want <= 0:
            break
        first = n
    return first

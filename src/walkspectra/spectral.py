"""Spectral-radius solvers: shifted power iteration and a dense Jacobi
eigensolver kept as an independent cross-check, plus Perron vectors under a
prescribed subset normalization.

The Jacobi solver sweeps the off-diagonal pairs in round-robin order (Brent &
Luk, 1985): each round's pairs are disjoint, so a round is one orthogonal
similarity of a few numpy products, and the Python loop runs once a round.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SpectralError

__all__ = [
    "SpectralResult",
    "rho_power",
    "power_radius",
    "rho_dense",
    "dense_radius",
    "perron_normalized",
    "DENSE_LIMIT",
]

DENSE_LIMIT = 64

DEFAULT_TOL = 1e-12
MAX_ITERATIONS = 1_000_000


@dataclass
class SpectralResult:
    """A spectral-radius estimate with its certificate data.

    ``residual`` is the max-norm of A x - rho x for the returned vector.
    For the series solver the vector is absent and ``bracket`` holds the
    final certified enclosure of rho.
    """

    rho: float
    vector: np.ndarray | None
    residual: float
    iterations: int
    method: str
    converged: bool = True
    bracket: tuple | None = None
    depth: int | None = None


def rho_power(g, tol=DEFAULT_TOL, max_iterations=MAX_ITERATIONS):
    """Spectral radius of g by :func:`power_radius`, one vertex per class."""
    return power_radius(g.adjacency(float), [1] * g.n, tol, max_iterations)


def power_radius(a, sizes, tol=DEFAULT_TOL, max_iterations=MAX_ITERATIONS):
    """Spectral radius by power iteration on a + I from the all-ones vector.

    ``a`` is a graph's symmetric quotient by an equitable partition with
    class sizes ``sizes``; iterate entry c is sqrt(|c|) times each class-c
    vertex entry, so the start and the residual (entry c over sqrt(|c|))
    are the graph's own.  The +1 shift makes the top of the spectrum
    strictly dominant even for bipartite graphs, so the iteration converges
    from any positive start; the Rayleigh quotient of a is quadratically
    accurate.  Disconnected input converges on a dominant component.
    """
    if tol <= 0:
        raise SpectralError("tolerance must be positive")
    if len(sizes) == 0:
        return SpectralResult(0.0, np.zeros(0), 0.0, 0, "power")
    root = np.sqrt(sizes)
    x = root / math.sqrt(sum(sizes))
    rho = 0.0
    res = math.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        ax = a @ x
        rho = float(x @ ax)
        res = float((np.abs(ax - rho * x) / root).max())
        if res <= tol:
            return SpectralResult(rho, x, res, iterations, "power")
        y = ax + x
        x = y / np.linalg.norm(y)
    return SpectralResult(rho, x, res, iterations, "power", converged=False)


@functools.cache
def _round_robin(n):
    """The rounds of one Jacobi sweep over the pairs of ``range(n)``.

    Round-robin (circle) order: index 0 stays put and the others turn one
    place per round; for odd n a phantom index n is added, and whichever
    index meets it sits the round out.  Each round is a pair of read-only
    index arrays (p, q) with p < q, whose pairs are disjoint; a sweep has
    n - 1 rounds for even n and n for odd n, and holds every pair exactly
    once.
    """
    m = n + n % 2
    ring = list(range(1, m))
    rounds = []
    for _ in range(m - 1):
        line = [0] + ring
        pairs = [sorted((line[i], line[-1 - i])) for i in range(m // 2)]
        pairs = np.array([pq for pq in pairs if pq[1] < n], dtype=np.intp).reshape(-1, 2)
        pairs.flags.writeable = False
        rounds.append((pairs[:, 0], pairs[:, 1]))
        ring = ring[-1:] + ring[:-1]
    return tuple(rounds)


def _jacobi_eigh(a, sweep_tol=1e-14, max_sweeps=60):
    """Eigen-decomposition of a symmetric matrix by Jacobi rotations in
    round-robin order.

    Returns (eigenvalues, eigenvector columns, sweeps).  A sweep is the
    rounds of :func:`_round_robin`; each round rotates its disjoint pairs at
    once, as one orthogonal J with A <- J^T A J and V <- V J.  Rotations on
    disjoint pairs commute, so a round is the same as its rotations applied
    one by one (Brent & Luk, SIAM J. Sci. Stat. Comput. 6(1), 1985; Golub &
    Van Loan, *Matrix Computations*, section 8.5).  Pairs whose entry is
    below the skip threshold are left alone.  Independent of any library
    eigensolver by design; accuracy is machine-level for the matrix sizes
    this package allows.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    if n < 2:
        return np.diagonal(a).copy(), v, 0
    scale = max(1.0, float(np.abs(a).max()))
    skip = 0.01 * sweep_tol * scale
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        off = float(np.abs(np.triu(a, 1)).max())
        if off <= sweep_tol * scale:
            sweeps -= 1
            break
        for p, q in _round_robin(n):
            apq = a[p, q]
            big = np.abs(apq) > skip
            if not big.all():
                p, q, apq = p[big], q[big], apq[big]
                if not len(p):
                    continue
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            j = np.eye(n)
            j[p, p] = j[q, q] = c
            j[p, q] = s
            j[q, p] = -s
            a = j.T @ a @ j
            a[p, q] = a[q, p] = 0.0
            v = v @ j
    return np.diagonal(a).copy(), v, sweeps


def rho_dense(g):
    """Spectral radius by full Jacobi eigendecomposition (n <= 64).

    Exists as an independent oracle for the power iteration.  A sweep is
    n - 1 or n rounds of disjoint rotations, each three n-by-n matrix
    products, so the Python overhead is per round, not per pair;
    ``iterations`` reports the sweeps.
    """
    if g.n > DENSE_LIMIT:
        raise SpectralError(f"dense solver limited to n <= {DENSE_LIMIT}, got {g.n}")
    if g.n == 0:
        return SpectralResult(0.0, np.zeros(0), 0.0, 0, "dense")
    eigvals, eigvecs, sweeps = _jacobi_eigh(g.adjacency(float))
    i = int(np.argmax(eigvals))
    rho = float(eigvals[i])
    # The top eigenspace is spanned by per-component nonnegative vectors, so
    # taking absolute values keeps an eigenvector.
    vec = np.abs(eigvecs[:, i])
    nrm = np.linalg.norm(vec)
    if nrm > 0:
        vec = vec / nrm
    res = float(np.abs(g.adjacency(float) @ vec - rho * vec).max())
    return SpectralResult(rho, vec, res, sweeps, "dense")


def dense_radius(a):
    """Largest eigenvalue of a symmetric matrix, by the Jacobi oracle."""
    return float(max(_jacobi_eigh(a)[0], default=0.0))


def perron_normalized(g, subset, tol=DEFAULT_TOL):
    """Perron vector of a connected graph rescaled so the entries of
    ``subset`` sum to the spectral radius."""
    subset = sorted(set(int(u) for u in subset))
    if not subset:
        raise SpectralError("normalization subset must be nonempty")
    if subset[0] < 0 or subset[-1] >= g.n:
        raise SpectralError("normalization subset out of range")
    if not g.is_connected():
        raise SpectralError(
            "subset normalization needs a connected graph; the subset could "
            "miss the dominant component"
        )
    base = rho_power(g, tol=tol)
    if base.rho <= 0:
        raise SpectralError("normalization requires a positive spectral radius")
    total = float(base.vector[subset].sum())
    factor = base.rho / total
    vec = base.vector * factor
    return SpectralResult(
        rho=base.rho,
        vector=vec,
        residual=base.residual * factor,
        iterations=base.iterations,
        method=base.method,
        converged=base.converged,
    )

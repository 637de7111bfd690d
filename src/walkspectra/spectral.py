"""Spectral-radius solvers: shifted power iteration and a dense Jacobi
eigensolver kept as an independent cross-check, plus Perron vectors under a
prescribed subset normalization.
"""

from __future__ import annotations

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


def _jacobi_eigh(a, sweep_tol=1e-14, max_sweeps=60):
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvector columns).  Independent of any library
    eigensolver by design; accuracy is machine-level for the matrix sizes
    this package allows.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    if n < 2:
        return np.diagonal(a).copy(), v, 0
    scale = max(1.0, float(np.abs(a).max()))
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        off = float(np.abs(np.triu(a, 1)).max())
        if off <= sweep_tol * scale:
            sweeps -= 1
            break
        skip = 0.01 * sweep_tol * scale
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    return np.diagonal(a).copy(), v, sweeps


def rho_dense(g):
    """Spectral radius by full Jacobi eigendecomposition (n <= 64).

    Exists as an independent oracle for the power iteration; the size cap
    keeps the cubic sweeps trivially fast.
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

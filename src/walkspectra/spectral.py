"""Spectral-radius solvers: shifted power iteration and a dense Jacobi
eigensolver kept as an independent oracle, certified Collatz-Wielandt
brackets for the power iterates, and Perron vectors under a prescribed
subset normalization.

The power iteration shifts by half its current Rayleigh quotient, which
keeps its convergence ratio near 1/3 at any order on the spectra of
graphs with a complete multipartite spanning subgraph (Smith, 1970); see
power_radius for the rationale and the trade-off.

The Jacobi solver sweeps the off-diagonal pairs in round-robin order (Brent &
Luk, 1985): each round's pairs are disjoint, so a round is one orthogonal
similarity of a few numpy products, and the Python loop runs once a round.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import SpectralError, indices

__all__ = [
    "SpectralResult",
    "rho_power",
    "power_radius",
    "rho_dense",
    "collatz_wielandt",
    "perron_normalized",
    "DENSE_LIMIT",
    "ORDER_LIMIT",
]

DENSE_LIMIT = 64
# The largest order an edge-list header, a graph6 size block or a family
# spec may declare: a graph is held as a dense adjacency matrix, n^2 bytes
# of bools and 8 n^2 of floats for a power iteration, so 100 MB and 800 MB
# at the limit.  Neighbour lists, which walk counts and components read,
# cost about 36 bytes per ordered adjacent pair: 3.6 GB for complete:10000.
ORDER_LIMIT = 10_000

POWER_TOL = 1e-12  # the residual at which a power iteration stops
MAX_ITERATIONS = 1_000_000
_BLOCK = 16  # the most power-iteration steps per stop test
JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60
_UNIT_ROUNDOFF = 2.0**-53
_TINY = sys.float_info.min  # the least positive normal float


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


def rho_power(g):
    """Spectral radius of g by :func:`power_radius`, one vertex per class."""
    return power_radius(g.adjacency(float), [1] * g.n, MAX_ITERATIONS)


def power_radius(a, sizes, max_iterations=MAX_ITERATIONS):
    """Spectral radius by power iteration on a + (rho/2) I from the all-ones
    vector, rho the current Rayleigh quotient.

    ``a`` is a graph's symmetric quotient by an equitable partition with
    class sizes ``sizes``; iterate entry c is sqrt(|c|) times each class-c
    vertex entry, so the start and the residual (entry c over sqrt(|c|))
    are the graph's own.  The Rayleigh quotient of a is quadratically
    accurate, and the run stops when the residual on a is at most
    max(``POWER_TOL``, 2(k+2)u rho), k the order of a and u the unit roundoff.
    That floor is the relative widening of :func:`collatz_wielandt`; a
    residual below it is rounding error that more steps need not remove,
    and at n = 10^9 a one-set quotient's rounding alone can exceed 1e-12.
    The floor exceeds 1e-12 only when (k+2) rho > ~4,500.  Disconnected
    input converges on a dominant component.

    The shift c = rho/2 is at most the spectral radius, and it is positive
    whenever the run goes on, so from a positive start every iterate stays
    positive and the top of the spectrum is strictly dominant even for
    bipartite graphs.  On a spectrum {rho} u [-rho, l2] the convergence
    ratio is max(rho - c, l2 + c) / (rho + c): 1/3 when l2 <= 0, whatever
    the order of the graph, where a +1 shift gives (rho - 1) / (rho + 1).
    Verifier quotients have such spectra: a complete multipartite graph has
    exactly one positive eigenvalue (J. H. Smith, 1970), and these graphs
    contain one as a spanning subgraph.  The trade-off: the ratio is at
    least 1/3 when l2 >= 0, so a graph whose other eigenvalues are all small
    against rho, which a +1 shift brings down in a few steps, takes about
    25-30 (dense random graphs: 2.5 times the steps at edge density 0.95,
    1.8 times at 0.5, 1.3 times at 0.1).

    The steps run in blocks, and the stop rule is tested once a block.  A
    step computes only what the next iterate needs (the product, the
    Rayleigh quotient, the shifted sum and its norm) into row i of buffers
    allocated once per call; the block's residuals are then taken in one
    batch of array operations, and the run returns at the first step that
    meets the stop rule, with that step's iterate.  A step is about a dozen
    numpy calls on k-element arrays, so for a small quotient call overhead,
    not arithmetic, sets its cost, while for a large graph the product does
    and a step past the returned one is waste.  So the residuals, not k,
    size the blocks: the first block is one step, so that a start that is
    already an eigenvector (a regular graph) costs one product, the second
    is two, and each next one is the number of steps that the rate of the
    last two residuals predicts to the stop rule, between 1 and 16 (twice
    the last block when that rate is not below 1).  The prediction seldom
    overshoots: no run on the onset table's quotients or on the timing
    graphs of orders 200 to 2000 computed a product past its returned
    step, and 5 of 3,000 random graphs of up to 40 vertices computed one.
    A run capped at ``max_iterations`` <= 16 steps is one block of that
    many steps with one stop test: it computes all of them even when an
    earlier step meets the stop rule (a regular graph capped at 8 costs
    8 products, not 1), which on the short screens of small quotients
    that such caps serve costs less than two more batches of residuals.
    A step whose norm is zero or not finite (an edgeless graph converges
    at step 1 with a zero shifted sum) ends its block before the division.
    Every value comes from the same IEEE operations on the same operands
    as the per-step loop with fresh arrays (``np.dot`` makes the BLAS calls
    of ``@``), so the bits equal that loop's whatever the blocks:
    ``tests/test_spectral.py::TestPowerKernel``.
    """
    k = len(sizes)
    if k == 0:
        return SpectralResult(0.0, np.zeros(0), 0.0, 0, "power")
    root = np.sqrt(sizes)
    floor = 2.0 * (k + 2) * _UNIT_ROUNDOFF
    xs, axs, r = np.empty((_BLOCK, k)), np.empty((_BLOCK, k)), np.empty((_BLOCK, k))
    t, rhos = np.empty(k), np.empty(_BLOCK)
    xs[0] = root / math.sqrt(sum(sizes))
    rho, res, done, before = 0.0, math.inf, 0, math.inf
    block = max_iterations if max_iterations <= _BLOCK else 1
    while done < max_iterations:
        steps = min(block, max_iterations - done)
        x = xs[0]
        for i in range(steps):
            ax = axs[i]
            np.dot(a, x, ax)
            rho = rhos[i] = x.dot(ax)
            np.multiply(0.5 * rho, x, t)
            np.add(ax, t, t)
            norm = math.sqrt(t.dot(t))
            # The last step's division waits for the stop test, as does
            # one by a norm that would make the next iterate zero or nan.
            if i + 1 == steps or not 0.0 < norm < math.inf:
                break
            x = xs[i + 1]
            np.divide(t, norm, x)
        steps = i + 1
        d = r[:steps]
        np.multiply(rhos[:steps, None], xs[:steps], d)
        np.subtract(axs[:steps], d, d)
        np.abs(d, d)
        np.divide(d, root, d)
        residuals = np.maximum.reduce(d, axis=1).tolist()
        for i, (res, rho) in enumerate(zip(residuals, rhos.tolist())):
            if res <= POWER_TOL or res <= floor * rho:
                return SpectralResult(rho, xs[i].copy(), res, done + i + 1, "power")
        np.divide(t, norm, xs[0])
        done += steps
        rate = res / (residuals[-2] if steps > 1 else before)
        before = res
        if 0.0 < rate < 1.0:
            block = math.ceil(math.log(max(POWER_TOL, floor * rho) / res) / math.log(rate))
            block = min(_BLOCK, max(1, block))
        else:
            block = min(_BLOCK, 2 * block)
    return SpectralResult(rho, xs[0].copy(), res, done, "power", converged=False)


def collatz_wielandt(b, z):
    """Certified bracket (lo, hi) of the spectral radius of b, or None.

    ``b`` is a nonnegative matrix whose entries are exact in floats, such as
    the integer quotient of a graph by an equitable partition (entry [i][j]
    the number of class-j neighbours of a class-i vertex).  For a positive
    vector z, min_i (bz)_i / z_i <= rho(b) <= max_i (bz)_i / z_i (Collatz-
    Wielandt; Horn & Johnson, *Matrix Analysis*, section 8.1), whichever
    solver produced z.  Each ratio is computed with relative error at most
    gamma_{k+1} for b of order k (Higham, *Accuracy and Stability of
    Numerical Algorithms*, section 3.1), so both ends are widened by
    2(k+2)u >= gamma_{k+2} and rounded outward.  The bound is tight only
    when b is irreducible (a connected graph) and z near its Perron vector.

    A zero, subnormal or non-finite entry of z gives no certificate: None.
    """
    zs = z.tolist()
    # A finite sum rules out nan and infinite entries, and then the least
    # entry rules out zero and subnormal ones.
    if not (math.isfinite(sum(zs)) and min(zs) >= _TINY):
        return None
    ratios = ((b @ z) / z).tolist()
    widen = 2.0 * (len(zs) + 2) * _UNIT_ROUNDOFF
    lo = min(ratios) * math.nextafter(1.0 - widen, 0.0)
    hi = max(ratios) * math.nextafter(1.0 + widen, math.inf)
    return math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)


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


def _jacobi_eigh(a):
    """Eigen-decomposition of a symmetric matrix by Jacobi rotations in
    round-robin order.

    Returns (eigenvalues, eigenvector columns, sweeps, converged), where
    converged is false when the off-diagonal is still above ``JACOBI_TOL``
    (relative to the largest entry) after ``JACOBI_MAX_SWEEPS``.  A sweep is
    the rounds of :func:`_round_robin`; each round rotates its disjoint pairs
    at once, as one orthogonal J with A <- J^T A J and V <- V J.  Rotations on
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
        return np.diagonal(a).copy(), v, 0, True
    scale = max(1.0, float(np.abs(a).max()))
    skip = 0.01 * JACOBI_TOL * scale
    sweeps = 0
    while float(np.abs(np.triu(a, 1)).max()) > JACOBI_TOL * scale:
        if sweeps == JACOBI_MAX_SWEEPS:
            return np.diagonal(a).copy(), v, sweeps, False
        sweeps += 1
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
    return np.diagonal(a).copy(), v, sweeps, True


def rho_dense(g):
    """Spectral radius by full Jacobi eigendecomposition (n <= 64).

    The public dense solver, independent of power iteration and of any
    library eigensolver, so tests use it as an oracle.  A sweep is
    n - 1 or n rounds of disjoint rotations, each three n-by-n matrix
    products, so the Python overhead is per round, not per pair;
    ``iterations`` reports the sweeps, and ``converged`` is false when
    the sweeps ran out before the off-diagonal vanished.
    """
    if g.n > DENSE_LIMIT:
        raise SpectralError(f"dense solver limited to n <= {DENSE_LIMIT}, got {g.n}")
    if g.n == 0:
        return SpectralResult(0.0, np.zeros(0), 0.0, 0, "dense")
    eigvals, eigvecs, sweeps, converged = _jacobi_eigh(g.adjacency(float))
    i = int(np.argmax(eigvals))
    rho = float(eigvals[i])
    # The top eigenspace is spanned by per-component nonnegative vectors, so
    # taking absolute values keeps an eigenvector.
    vec = np.abs(eigvecs[:, i])
    nrm = np.linalg.norm(vec)
    if nrm > 0:
        vec = vec / nrm
    res = float(np.abs(g.adjacency(float) @ vec - rho * vec).max())
    return SpectralResult(rho, vec, res, sweeps, "dense", converged=converged)


def perron_normalized(g, subset):
    """Perron vector of a connected graph rescaled so the entries of
    ``subset`` sum to the spectral radius."""
    subset = sorted(set(indices(subset, SpectralError, "normalization subset entries")))
    if not subset:
        raise SpectralError("normalization subset must be nonempty")
    if subset[0] < 0 or subset[-1] >= g.n:
        raise SpectralError("normalization subset out of range")
    if not g.is_connected():
        raise SpectralError(
            "subset normalization needs a connected graph; the subset could "
            "miss the dominant component"
        )
    base = rho_power(g)
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

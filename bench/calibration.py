"""Reference kernels that scale the benchmark's timings to a nominal
machine speed.

On a shared virtual machine the speed of a core drifts by 30-60% over tens
of seconds as other tenants come and go, which is longer than a run, so no
statistic taken inside one run can remove it.  Each kernel below does a
fixed amount of work of the kind one workload does.  The benchmark times
its workload's kernel every 0.2 s of task time, and scales each task's time
by the kernel's nominal time over its time around that task.  A timing then
reads as it would on a machine where the kernel takes its nominal time,
whatever the load of the moment.

Code of different kinds slows by different amounts under the same load, so
there are two kernels.  ``dense`` does numpy matrix-vector products and an
integer loop, like power iteration and Jacobi sweeps.  ``objects`` adds
small Python objects with method calls and tuples, dicts and sorting, like
interval arithmetic, report building and command-line handling.
"""

import math
from time import perf_counter

import numpy as np

# Each kernel's time on an idle core of the machine the baseline was
# measured on (Intel Xeon, 2 vCPU, OpenBLAS pinned to one thread).
NOMINAL_S = {"dense": 0.002, "objects": 0.0024}

_ORDER = 120
_rng = np.random.default_rng(20240611)
_upper = np.triu(_rng.random((_ORDER, _ORDER)) < 0.1, 1)
_ADJ = (_upper | _upper.T).astype(float)


class _Pair:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def __add__(self, other):
        return _Pair(math.nextafter(self.lo + other.lo, -math.inf),
                     math.nextafter(self.hi + other.hi, math.inf))

    def __mul__(self, other):
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return _Pair(min(products), max(products))


def _products(count):
    x = np.ones(_ORDER)
    for _ in range(count):
        x = _ADJ @ x
        x /= np.linalg.norm(x)
    return x[0]


def _integers(count):
    total = 0
    for i in range(count):
        total += i * i % 7
    return total


def _objects(count):
    acc, step = _Pair(1.0, 1.0), _Pair(0.5, 0.5000001)
    for _ in range(count):
        acc = acc * step + step
    return acc.hi


def _tables(count):
    seen = {}
    for i in range(count):
        key = tuple(sorted((i * 7919 % 97, i % 13, i * i % 31)))
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


KERNELS = {
    "dense": ((_products, 150), (_integers, 20000)),
    "objects": ((_products, 150), (_objects, 900), (_tables, 1500)),
}


def reference_s(kernel):
    """Seconds one run of ``kernel`` takes now."""
    start = perf_counter()
    for part, count in KERNELS[kernel]:
        part(count)
    return perf_counter() - start

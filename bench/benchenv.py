"""Process environment and run record for the benchmark.

``prepare()`` must run before anything imports numpy: it pins every BLAS
pool to one thread (the workloads are single-caller closed loops, and a
second BLAS thread would compete with the caller on a 2-core machine) and
puts the checkout's ``src/`` first on ``sys.path``, so the benchmark always
measures the source tree it sits in, never an installed copy.
"""

import ctypes
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSource(RuntimeError):
    """The checkout has no walkspectra source tree to measure."""


def prepare():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    package = os.path.join(SRC, "walkspectra", "__init__.py")
    if not os.path.isfile(package):
        raise MissingSource(f"no walkspectra source tree at {package}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def check_imported():
    """Refuse to measure a walkspectra imported from outside ``src/``."""
    import walkspectra

    where = os.path.realpath(walkspectra.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise MissingSource(f"walkspectra imported from {where}, not from {SRC}")


def _git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_version():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return str(deps["blas"].get("version", "unknown"))
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _blas_threads_in_use():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be
    asked (no OpenBLAS mapped, or no known query symbol)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def src_line_count():
    total = 0
    for dirpath, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_record(seed):
    """Machine, toolchain and source facts printed beside every result.
    ``src_lines`` is informational and carries no regression bound."""
    import numpy as np

    return {
        "commit": _git_commit(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads_in_use": _blas_threads_in_use(),
        "seed": seed,
        "src_lines": src_line_count(),
    }

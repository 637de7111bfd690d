"""Span recorder for the traced benchmark run.

Wraps the public functions of each walkspectra module from outside the
package: every module namespace that binds the same function object (for
example ``spectral.rho_power``, ``series.rho_power`` and
``extremal.rho_power``) gets the same wrapper, so calls are caught whichever
module makes them.  Each call becomes a span (name, task id, parent span,
start, end) kept in memory; self time is a span's duration minus the time
its child spans cover.  Counters are read from arguments, return values
and child spans at the same boundaries.
"""

import functools
import os
import sys
from array import array
from time import perf_counter

import numpy as np

MARK = "__bench_span_wrapper__"

# (metric prefix, module, attribute path); an attribute path with a dot is
# a method of a class defined in that module.
TRACED = (
    ("graphs.canonical_form", "graphs", "canonical_form"),
    ("graphs.join", "graphs", "join"),
    ("graphs.realize", "graphs", "MultipartiteEmbedding.realize"),
    ("graphs.embedding_key", "graphs", "MultipartiteEmbedding.key"),
    ("graphio.to_graph6", "graphio", "to_graph6"),
    ("graphio.from_graph6", "graphio", "from_graph6"),
    ("walks.walk_profile", "walks", "walk_profile"),
    ("walks.walk_totals", "walks", "walk_totals"),
    ("walks.walk_compare", "walks", "walk_compare"),
    ("walks.ex_filter", "walks", "ex_filter"),
    ("spectral.rho_power", "spectral", "rho_power"),
    ("spectral.rho_dense", "spectral", "rho_dense"),
    ("intervals.powers", "intervals", "powers"),
    ("series.inner_series", "series", "inner_series"),
    ("series.tail_bound", "series", "tail_bound"),
    ("series.f_eval", "series", "f_eval"),
    ("series.solve_rho_series", "series", "solve_rho_series"),
    ("extremal.enumerate_m_edge", "extremal", "enumerate_m_edge"),
    ("extremal.enumerate_embeddings", "extremal", "enumerate_embeddings"),
    ("extremal.sample_embedding", "extremal", "sample_embedding"),
    ("extremal.verify_corollary_tnrk", "extremal", "verify_corollary_tnrk"),
    ("extremal.verify_one_set", "extremal", "verify_one_set"),
    ("extremal.verify_multi_set", "extremal", "verify_multi_set"),
    ("extremal.verify_corollary_2inf", "extremal", "verify_corollary_2inf"),
    ("extremal.verify_lemma_2degree", "extremal", "verify_lemma_2degree"),
    ("cli.main", "cli", "main"),
)
NAMES = tuple(name for name, _, _ in TRACED)
INDEX = {name: i for i, name in enumerate(NAMES)}

# (metric, unit) for the counters; per-task values are totals over the
# traced run divided by the tasks it attempted.
COUNTERS = (
    ("spectral.rho_power.iterations", "count/task"),
    ("spectral.rho_power.order_mean", "vertices"),
    ("spectral.rho_power.unconverged", "count/task"),
    ("spectral.rho_dense.sweeps", "count/task"),
    ("spectral.rho_dense.order_mean", "vertices"),
    ("intervals.powers.terms", "count/task"),
    ("walks.walk_totals.levels", "count/task"),
    ("series.solve_rho_series.bisection_steps", "count/task"),
    ("series.solve_rho_series.depth_max", "depth"),
    ("series.f_eval.per_step", "probes/step"),
    ("extremal.enumerate_m_edge.cache_hits", "count/task"),
    ("extremal.enumerate_m_edge.cache_misses", "count/task"),
    ("extremal.enumerate_m_edge.useful_ratio", "ratio"),
    ("extremal.enumerate_embeddings.members", "count/task"),
)


def _packages():
    return [mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "walkspectra" or key.startswith("walkspectra."))]


def installed_wrappers():
    """Names of walkspectra attributes that are span wrappers right now."""
    found = []
    for mod in _packages():
        for attr, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    if getattr(fn, MARK, False):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found


class _Frame:
    __slots__ = ("index", "span", "child_s", "child_mask")

    def __init__(self, index, span):
        self.index = index
        self.span = span
        self.child_s = 0.0
        self.child_mask = 0


class Recorder:
    """Collects spans and counters while installed; ``uninstall`` restores
    every original binding."""

    def __init__(self):
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.counts = dict.fromkeys(
            ("power_iterations", "power_order", "power_unconverged", "dense_sweeps",
             "dense_order", "powers_terms", "totals_levels", "bisection_steps",
             "f_eval_in_solve", "cache_hits", "cache_misses", "members"), 0)
        self.depth_max = 0
        self.generated = set()
        self.task = -1
        self.stack = []
        self.next_span = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_task = array("q")
        self.span_name = array("h")
        self.span_start = array("d")
        self.span_end = array("d")
        self._restore = []

    # ---- installation -----------------------------------------------------

    def install(self):
        import walkspectra.cli  # noqa: F401  (the package itself does not import cli)

        modules = {mod.__name__.rpartition(".")[2]: mod for mod in _packages()}
        for name, module, attr in TRACED:
            owner = modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._bind(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in _packages():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, wrapper)

    def _bind(self, owner, key, wrapper):
        original = vars(owner)[key] if isinstance(owner, type) else getattr(owner, key)
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def _wrap(self, name, fn):
        index = INDEX[name]
        observe = _OBSERVERS.get(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec.stack
            parent = stack[-1] if stack else None
            frame = _Frame(index, rec.next_span)
            rec.next_span += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                rec.calls[index] += 1
                rec.self_s[index] += duration - frame.child_s
                if parent is not None:
                    parent.child_s += duration
                    parent.child_mask |= 1 << index
                rec.span_id.append(frame.span)
                rec.span_parent.append(parent.span if parent is not None else -1)
                rec.span_task.append(rec.task)
                rec.span_name.append(index)
                rec.span_start.append(start)
                rec.span_end.append(end)
            if observe is not None:
                observe(rec, frame, parent, args, kwargs, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # ---- output -----------------------------------------------------------

    def per_layer(self, tasks, overhead_ratio):
        """Per-layer metrics as {name: (value, unit)}; counts and times are
        per attempted task so runs of different length compare."""
        tasks = max(tasks, 1)
        c = self.counts
        calls = dict(zip(NAMES, self.calls))
        out = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = (self.calls[i] / tasks, "count/task")
            out[f"{name}.self_s"] = (self.self_s[i] / tasks, "s/task")

        def mean(total, count):
            return total / count if count else 0.0

        misses = c["cache_misses"]
        values = {
            "spectral.rho_power.iterations": c["power_iterations"] / tasks,
            "spectral.rho_power.order_mean": mean(c["power_order"], calls["spectral.rho_power"]),
            "spectral.rho_power.unconverged": c["power_unconverged"] / tasks,
            "spectral.rho_dense.sweeps": c["dense_sweeps"] / tasks,
            "spectral.rho_dense.order_mean": mean(c["dense_order"], calls["spectral.rho_dense"]),
            "intervals.powers.terms": c["powers_terms"] / tasks,
            "walks.walk_totals.levels": c["totals_levels"] / tasks,
            "series.solve_rho_series.bisection_steps": c["bisection_steps"] / tasks,
            "series.solve_rho_series.depth_max": float(self.depth_max),
            "series.f_eval.per_step": mean(c["f_eval_in_solve"], c["bisection_steps"]),
            "extremal.enumerate_m_edge.cache_hits": c["cache_hits"] / tasks,
            "extremal.enumerate_m_edge.cache_misses": misses / tasks,
            # No generation at all wastes nothing.
            "extremal.enumerate_m_edge.useful_ratio":
                len(self.generated) / misses if misses else 1.0,
            "extremal.enumerate_embeddings.members": c["members"] / tasks,
        }
        for name, unit in COUNTERS:
            out[name] = (values[name], unit)
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

    def write_spans(self, path):
        """All spans as one .npz: parallel arrays plus the name table."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.span_start[0] if self.span_start else 0.0
        np.savez(
            path,
            names=np.array(NAMES),
            span=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            task=np.frombuffer(self.span_task, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int16),
            start_s=np.frombuffer(self.span_start, dtype=np.float64) - origin,
            end_s=np.frombuffer(self.span_end, dtype=np.float64) - origin,
        )
        return len(self.span_id)


# ---- counters read at the boundaries ----------------------------------------


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _rho_power(rec, frame, parent, args, kwargs, result):
    rec.counts["power_iterations"] += result.iterations
    rec.counts["power_order"] += _arg(args, kwargs, 0, "g").n
    rec.counts["power_unconverged"] += not result.converged


def _rho_dense(rec, frame, parent, args, kwargs, result):
    rec.counts["dense_sweeps"] += result.iterations
    rec.counts["dense_order"] += _arg(args, kwargs, 0, "g").n


def _powers(rec, frame, parent, args, kwargs, result):
    rec.counts["powers_terms"] += _arg(args, kwargs, 1, "k")


def _walk_totals(rec, frame, parent, args, kwargs, result):
    rec.counts["totals_levels"] += _arg(args, kwargs, 1, "depth")


def _solve(rec, frame, parent, args, kwargs, result):
    rec.counts["bisection_steps"] += result.iterations
    rec.depth_max = max(rec.depth_max, result.depth or 0)


_SOLVE = INDEX["series.solve_rho_series"]
_CANON = INDEX["graphs.canonical_form"]


def _f_eval(rec, frame, parent, args, kwargs, result):
    if parent is not None and parent.index == _SOLVE:
        rec.counts["f_eval_in_solve"] += 1


def _enumerate_m_edge(rec, frame, parent, args, kwargs, result):
    # A generation canonicalizes every candidate; a cache read only decodes.
    if frame.child_mask & (1 << _CANON):
        rec.counts["cache_misses"] += 1
        rec.generated.add(_arg(args, kwargs, 0, "m"))
    else:
        rec.counts["cache_hits"] += 1


def _enumerate_embeddings(rec, frame, parent, args, kwargs, result):
    rec.counts["members"] += len(result)


_OBSERVERS = {
    "spectral.rho_power": _rho_power,
    "spectral.rho_dense": _rho_dense,
    "intervals.powers": _powers,
    "walks.walk_totals": _walk_totals,
    "series.solve_rho_series": _solve,
    "series.f_eval": _f_eval,
    "extremal.enumerate_m_edge": _enumerate_m_edge,
    "extremal.enumerate_embeddings": _enumerate_embeddings,
}

"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload tnrk-scan --seed 1 --seconds 14 --trace 0

Workloads: tnrk-scan, onset-scan, series-certify, families-cli (see
workloads.py).  One caller runs passes of seeded tasks in a closed loop.
Every CALIBRATE_EVERY_S of task time, and after every pass, it times the
workload's reference kernel (calibration.py), and each task's time is
scaled to the kernel's nominal speed, so the drift of a shared machine's speed drops out.
The loop stops after the pass that brings the scaled task time to
``--seconds``, so a seed runs the same tasks whatever the machine's load.  With ``--trace 0`` the run is untraced and reports the end-to-end
metrics; with ``--trace 1`` every public function of each walkspectra
module is wrapped and the run reports per-layer metrics, plus the tracing
overhead measured by re-running slices of tasks traced and untraced.

Every task's output is checked after the timed loop.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit status is 0 only when
every task passed the check, and 2 when there is no source tree to measure.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchenv  # noqa: E402

# Set-up is timed in this many fresh interpreters and the median reported:
# one import per process cannot be repeated in-process.
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
# Task time between two timings of the reference kernel.
CALIBRATE_EVERY_S = 0.2
# The tracing-overhead estimate re-runs slices of this many tasks for this
# share of --seconds untraced (and about as long traced).
OVERHEAD_SLICE = 8
OVERHEAD_SHARE = 0.2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _workdir(args, suffix=""):
    return os.path.join(benchenv.OUT, "work", f"{args.workload}-{args.seed}{suffix}")


def setup_probe(args):
    """Time import plus generation of the first pass of inputs, scale it to
    the nominal speed of the dense calibration kernel, and print it.  The
    time is mostly imports, the same work for every workload, so every
    workload scales it by the same kernel."""
    start = perf_counter()
    import walkspectra.cli  # noqa: F401

    import workloads

    workdir = _workdir(args, f"-probe{os.getpid()}")
    try:
        next(workloads.WORKLOADS[args.workload](args.seed, workdir).passes())
        elapsed = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import calibration

    reference = statistics.median(calibration.reference_s("dense") for _ in range(9))
    print(elapsed * calibration.NOMINAL_S["dense"] / reference)


def measure_setup(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_loop(passes, kernel, seconds=math.inf, recorder=None):
    """Closed loop over whole passes until ``seconds`` of scaled task time.

    The calibration ``kernel`` is timed before the first task, after every
    CALIBRATE_EVERY_S of task time and after every pass; a task's time is
    scaled by the nominal kernel time over the mean of the two kernel times
    around it.  Returns the outcomes with scaled times and the unscaled
    task time."""
    import calibration
    from workloads import Outcome

    outcomes, pending = [], []
    busy = wall = since = 0.0
    reference = calibration.reference_s(kernel)

    def settle():
        nonlocal reference, since, busy
        before, reference = reference, calibration.reference_s(kernel)
        scale = calibration.NOMINAL_S[kernel] / (0.5 * (before + reference))
        for task, value, error, elapsed in pending:
            outcomes.append(Outcome(task, value, error, elapsed * scale))
            busy += elapsed * scale
        pending.clear()
        since = 0.0

    for tasks in passes:
        if busy >= seconds:
            break
        for task in tasks:
            if task.prepare is not None:
                task.prepare()
            if recorder is not None:
                recorder.task = len(outcomes) + len(pending)
            start = perf_counter()
            try:
                value, error = task.call(), None
            except Exception as exc:  # a raising task is a failed task
                value, error = None, exc
            elapsed = perf_counter() - start
            pending.append((task, value, error, elapsed))
            wall += elapsed
            since += elapsed
            if since >= CALIBRATE_EVERY_S:
                settle()
        if pending:
            settle()
    return outcomes, wall


def tracing_overhead(tasks, kernel, cap_s):
    """Median over re-run slices of the run's tasks of traced time over
    untraced time, minus one.

    The slices, of OVERHEAD_SLICE consecutive tasks, are taken spread
    evenly over the run, since tasks differ in how many calls they trace.
    Each runs once untraced and once under a throwaway recorder, the order
    alternating from slice to slice, and the median of the per-slice ratios
    discounts a slice that a burst of machine load slowed on one side.  The
    two runs of a slice are adjacent in time, so their unscaled times are
    compared.  Stops once ``cap_s`` of untraced task time is spent."""
    import tracing

    slices = [tasks[i:i + OVERHEAD_SLICE] for i in range(0, len(tasks), OVERHEAD_SLICE)]
    stride = max(1, len(slices) // 8)
    spread = [slices[i] for start in range(stride) for i in range(start, len(slices), stride)]
    ratios = []
    plain_total = 0.0
    for j, chunk in enumerate(spread):
        if plain_total >= cap_s:
            break
        times = {}
        for with_trace in ((False, True) if j % 2 == 0 else (True, False)):
            recorder = tracing.Recorder() if with_trace else None
            if recorder is not None:
                recorder.install()
            try:
                _, times[with_trace] = run_loop([chunk], kernel, recorder=recorder)
            finally:
                if recorder is not None:
                    recorder.uninstall()
        plain_total += times[False]
        ratios.append(times[True] / times[False])
    return statistics.median(ratios) - 1.0 if ratios else 0.0


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None):
    args = parse_args(argv)
    try:
        benchenv.prepare()
    except benchenv.MissingSource as exc:
        return _fail(exc, 2)
    if args.setup_probe:
        setup_probe(args)
        return 0

    import walkspectra.cli  # noqa: F401

    try:
        benchenv.check_imported()
    except benchenv.MissingSource as exc:
        return _fail(exc, 2)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of "
                     + ", ".join(workloads.WORKLOADS), 2)

    record = benchenv.run_record(args.seed)
    setup_s = measure_setup(args)
    workdir = _workdir(args)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        left = tracing.installed_wrappers()
        if left:
            return _fail(f"span wrappers installed before the run: {left}", 1)
        recorder = overhead = None
        if args.trace:
            recorder = tracing.Recorder()
            recorder.install()
            try:
                outcomes, wall = run_loop(wl.passes(), wl.kernel, args.seconds, recorder)
            finally:
                recorder.uninstall()
        else:
            outcomes, wall = run_loop(wl.passes(), wl.kernel, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reasons = wl.gate(outcomes)
        if recorder is not None:
            overhead = tracing_overhead([o.task for o in outcomes], wl.kernel,
                                        OVERHEAD_SHARE * args.seconds)
        left = tracing.installed_wrappers()
        if left:
            return _fail(f"span wrappers left installed: {left}", 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(outcomes)
    failed = sum(r is not None for r in reasons)
    shown = [(o.task.key, r) for o, r in zip(outcomes, reasons) if r is not None][:5]
    for key, reason in shown:
        print(f"failed task {key}: {reason}", file=sys.stderr)

    print("run record: " + json.dumps(record, sort_keys=True))
    print("outcome mix: " + json.dumps(wl.mix, sort_keys=True))
    durations = [o.seconds for o in outcomes]
    print(f"workload {args.workload}: seed {args.seed}, {attempted} tasks in "
          f"{sum(durations):.2f} s of scaled task time ({wall:.2f} s unscaled), "
          f"{failed} failed (fail_ratio {failed / attempted:.4f}), trace {args.trace}")
    if recorder is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "tasks_per_s": (attempted / sum(durations), "1/s"),
            "task_p50_ms": (statistics.median(durations) * 1000.0, "ms"),
            # Every pass has at least six tasks, so there are two points.
            "task_p90_ms": (statistics.quantiles(durations, n=10, method="inclusive")[-1]
                            * 1000.0, "ms"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = recorder.per_layer(attempted, overhead)
        spans = recorder.write_spans(
            os.path.join(benchenv.OUT, "spans", f"{args.workload}-{args.seed}.npz"))
        ranked = sorted(((v, k) for k, (v, u) in metrics.items() if k.endswith(".self_s")),
                        reverse=True)
        print(f"traced: {spans} spans, overhead {overhead:.3f}; largest self time per "
              "task: " + ", ".join(f"{k[:-7]} {v * 1000:.2f} ms" for v, k in ranked[:5]))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

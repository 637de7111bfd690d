"""Run benchmark workloads in two checkouts, in alternating pairs, and
summarize each end-to-end metric.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload onset-scan --seeds 101-110
    python3 scripts/bench_pairs.py PARENT CHANGE --workload all --seeds 101-105

``--workload`` takes one workload, a comma-separated list of them, or
``all``, meaning every workload of BENCHMARK.json, run one after another.
Before the first pair, ``python -m compileall -q src bench`` runs in each
checkout, so that no run's ``setup_s`` includes compiling its sources.
For each workload and seed, ``bench/run.py --workload W --seed S --seconds T --trace 0``
runs in both checkouts, one after the other; the parent runs first on even
pair indices and the change first on odd ones, so drift in the machine's
speed falls on both sides alike.  ``--seconds`` defaults to BENCHMARK.json's
``run_seconds``.  Every pair is printed as it finishes, then one row per
metric of BENCHMARK.json's ``end_to_end`` list: each side's median and
quartiles, the pairs the change wins (ties count for neither side), and a
verdict:

  gain        the change wins at least nine tenths of the pairs, and its
              median is better than the parent's by more than the distance
              between the parent's quartiles;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  neither, and either side's quartiles lie further apart than
              the bound allows, unless every change run reads better than
              every parent run;
  within      none of the above: no worse than the bound.

Beside each summary it prints each checkout's line count of
``src/walkspectra/*.py``, as ``wc -l`` totals it, and each side's median
count of tasks a run attempted, with the change in median ``peak_rss_mb``
per extra task and the extra tasks that would use up the metric's bound at
that rate: a faster change runs more tasks in the same time, and on
workloads whose memory grows with the tasks it has run, that moves
``peak_rss_mb`` toward its bound.  The last line names each
metric and workload whose verdict is ``worse``, or says there is none; the
exit status is 1 if there is one, else 0.

Compare checkouts in the same kind of place (two sibling directories, say):
set-up time depends on where a checkout sits.  The script edits nothing:
it writes only byte-compiled files under each checkout's ``__pycache__``
directories, and the runs write only under its ``bench/out``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """(q1, median, q3) by the inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs, spec):
    """One summary per metric of ``spec`` (BENCHMARK.json's ``end_to_end``
    entries: name, better, bound) over ``pairs``, a list of (parent,
    change) dicts of metric values.  Each summary is a dict with the
    quartiles of both sides, ``wins``, ``losses``, ``pairs`` and
    ``verdict``."""
    out = {}
    for metric in spec:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        p_q = quartiles(parent)
        c_q = quartiles(change)
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        gain = sign * (c_q[1] - p_q[1])
        scale = abs(p_q[1])
        if wins >= 0.9 * len(pairs) and gain > p_q[2] - p_q[0]:
            verdict = "gain"
        elif -gain > bound * scale:
            verdict = "worse"
        elif max(p_q[2] - p_q[0], c_q[2] - c_q[0]) > bound * scale and not (
            min(sign * c for c in change) > max(sign * p for p in parent)
        ):
            verdict = "unresolved"
        else:
            verdict = "within"
        out[name] = {
            "unit": metric["unit"],
            "parent": p_q,
            "change": c_q,
            "wins": wins,
            "losses": losses,
            "pairs": len(pairs),
            "verdict": verdict,
        }
    return out


def rss_per_task(pairs, bound):
    """(parent tasks, change tasks, KB of ``peak_rss_mb`` per extra task,
    extra tasks to the bound) over ``pairs``: the median ``attempted``
    counts, the change in median ``peak_rss_mb`` (MB of 1024 KB) over the
    change in median count, and ``bound`` times the parent's median RSS
    over that rate.  The last two are None when the counts or the RSS do
    not grow."""
    tasks = [statistics.median(side["attempted"] for side in sides) for sides in zip(*pairs)]
    rss = [statistics.median(side["peak_rss_mb"] for side in sides) for sides in zip(*pairs)]
    extra, grown = tasks[1] - tasks[0], rss[1] - rss[0]
    if extra <= 0 or grown <= 0:
        return tasks[0], tasks[1], None, None
    per_task = 1024.0 * grown / extra
    return tasks[0], tasks[1], per_task, 1024.0 * bound * rss[0] / per_task


def run_once(checkout, workload, seed, seconds):
    """The metric values of one untraced run in ``checkout``, and the
    count of tasks it attempted under ``attempted``."""
    done = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"no result from {checkout} at seed {seed}:\n{done.stderr}") from None
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["attempted"] = result["attempted"]
    return values


def byte_compile(checkout):
    """Byte-compile ``checkout``'s ``src/`` and ``bench/``."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                   cwd=checkout, check=True)


def line_count(checkout):
    """The newlines in ``checkout``'s ``src/walkspectra/*.py``: the total of
    ``wc -l`` on those files."""
    total = 0
    for name in glob.glob(os.path.join(checkout, "src", "walkspectra", "*.py")):
        with open(name, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def parse_workloads(text, names):
    """The workloads ``text`` names, from ``names``: one, a comma-separated
    list, or ``all`` for every one of them."""
    if text == "all":
        return list(names)
    picked = list(dict.fromkeys(w for w in text.split(",") if w))
    unknown = [w for w in picked if w not in names]
    if unknown or not picked:
        raise argparse.ArgumentTypeError(
            f"unknown workload {', '.join(unknown) or repr(text)}; use {', '.join(names)} or all"
        )
    return picked


def compare(args, workload, spec):
    """Run ``workload``'s pairs, print them and their summary, and return
    the summary."""
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        sides = {
            side: run_once(getattr(args, side), workload, seed, args.seconds)
            for side in order
        }
        pairs.append((sides["parent"], sides["change"]))
        shown = ", ".join(
            f"{m['name']} {sides['parent'][m['name']]:.4g} -> {sides['change'][m['name']]:.4g}"
            for m in spec
        )
        print(f"pair {i + 1} seed {seed} ({order[0]} first): {shown}", flush=True)

    print(f"{workload}: {len(pairs)} pairs, seeds {args.seeds[0]}-{args.seeds[-1]}, "
          f"{args.seconds:g} s runs; median [q1, q3]")
    lines = {side: line_count(getattr(args, side)) for side in ("parent", "change")}
    print(f"  src lines    parent {lines['parent']}  change {lines['change']}  "
          f"{lines['change'] - lines['parent']:+d}")
    bound = next(m["bound"] for m in spec if m["name"] == "peak_rss_mb")
    p_tasks, c_tasks, per_task, headroom = rss_per_task(pairs, bound)
    growth = "n/a" if per_task is None else (
        f"{per_task:.2f} KB per extra task, {headroom:.0f} extra tasks to the bound")
    print(f"  tasks        parent {p_tasks:g}  change {c_tasks:g}  {c_tasks - p_tasks:+g}; "
          f"peak_rss_mb {growth}")
    summary = summarize(pairs, spec)
    for name, s in summary.items():
        (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
        ratio = f"{cm / pm - 1:+.1%}" if pm else "n/a"
        print(f"  {name:<12} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} "
              f"[{c1:.4g}, {c3:.4g}] {s['unit']}  {ratio}  wins {s['wins']}/{s['pairs']}"
              f" (losses {s['losses']})  {s['verdict']}", flush=True)
    return summary


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", required=True, type=lambda text: parse_workloads(text, names),
                   help=f"one of {', '.join(names)}, a comma-separated list, or all")
    p.add_argument("--seeds", required=True, type=parse_seeds, help="first-last, e.g. 101-110")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = p.parse_args(argv)

    for side in ("parent", "change"):
        byte_compile(getattr(args, side))
    worse = [
        f"{name} on {workload}"
        for workload in args.workload
        for name, s in compare(args, workload, bench["end_to_end"]).items()
        if s["verdict"] == "worse"
    ]
    print(f"worse: {', '.join(worse) or 'none'}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

"""Repeat the benchmark over several seeds and record a baseline.

    python3 bench/baseline.py

For each workload this runs ``bench/run.py`` untraced once per seed
(seeds 1..10), then once traced, and reports for every end-to-end metric
the median, the quartiles and the spread (interquartile distance over the
median) against the bound in BENCHMARK.json; a spread of a third of the
bound or more is flagged NOT STEADY.  It writes the whole result, with the
run record and each run's outcome mix, to bench/results/BENCH_0.json.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchenv  # noqa: E402

SEEDS = range(1, 11)
OUTPUT = os.path.join(HERE, "results", "BENCH_0.json")


def _run(workload, seed, seconds, trace):
    """One run's result line, with its wall time added as ``wall_s`` and its
    outcome mix as ``mix``."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    mix = [line for line in lines if line.startswith("outcome mix: ")]
    result["mix"] = json.loads(mix[0].split(": ", 1)[1])
    result["wall_s"] = time.perf_counter() - start
    return result


def _summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    benchenv.prepare()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(SEEDS)
    result = {"run_record": benchenv.run_record(seeds), "run_seconds": seconds,
              "seeds": seeds, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, seed, seconds, 0) for seed in seeds]
        entry = {"attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "mix": [r["mix"] for r in runs],
                 "wall_s": [round(r["wall_s"], 2) for r in runs], "end_to_end": {}}
        print(f"{workload}: attempted {entry['attempted']}, failed {entry['failed']}, "
              f"wall {entry['wall_s']}")
        for name, bound in bounds.items():
            stats = _summary([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            ok = stats["spread"] < bound / 3
            steady &= ok
            print(f"  {name:<14} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f} "
                  f"(bound {bound}){'' if ok else '  NOT STEADY'}")
        traced = _run(workload, seeds[0], seconds, 1)
        entry["per_layer"] = traced["metrics"]
        entry["traced_wall_s"] = round(traced["wall_s"], 2)
        selfs = sorted(((v["value"], k) for k, v in traced["metrics"].items()
                        if k.endswith(".self_s")), reverse=True)
        entry["self_time_ranking"] = [k[:-len(".self_s")] for _, k in selfs[:6]]
        print("  largest self time: " + ", ".join(entry["self_time_ranking"]))
        result["workloads"][workload] = entry
    result["steady"] = steady
    os.makedirs(os.path.dirname(OUTPUT), exist_ok=True)
    with open(OUTPUT, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(OUTPUT, ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark at tiny size.

    python3 bench/selftest.py

Runs one pass of every workload untraced and traced (a tiny ``--seconds``
stops the loop after its first pass).  Checks that each run prints every
metric named in BENCHMARK.json with its unit, that a corrupted expected
verdict makes the run exit nonzero, and that a directory holding only
BENCHMARK.json and bench/ (no source tree) exits nonzero without a result.
Exits 0 when all checks hold.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchenv  # noqa: E402

SCRATCH = os.path.join(benchenv.OUT, "selftest")
SEED = 7


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1e-6", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300,
                          check=False)


def _check_metrics(done, wanted, label):
    problems = []
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}: {done.stderr[-500:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{label}: metrics {sorted(set(got) ^ set(wanted))} differ")
    printed = {(row[0], row[-1]) for row in map(str.split, lines[:-1]) if len(row) >= 3}
    missing = [name for name, unit in wanted.items() if (name, unit) not in printed]
    if missing:
        problems.append(f"{label}: not printed with unit: {missing}")
    return problems


def _checkout_copy(name):
    """A directory holding BENCHMARK.json and a copy of bench/."""
    root = os.path.join(SCRATCH, name)
    shutil.copytree(HERE, os.path.join(root, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    return root


def _corrupted_verdict():
    """Flip the expected verdict of the first tnrk-scan task in a copy of
    the checkout and expect the gate to fail exactly that task."""
    import workloads

    root = _checkout_copy("corrupt")
    os.symlink(benchenv.SRC, os.path.join(root, "src"))
    first = next(workloads.TnrkScan(SEED, None).passes())[0].key
    path = os.path.join(root, "bench", "expected", "tnrk_verdicts.json")
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)
    for row in rows:
        if (row["n"], row["r"], row["k"]) == first:
            row["verdict"] = "fail" if row["verdict"] == "pass" else "pass"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh)
    done = _run("tnrk-scan", 0, cwd=root)
    result = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout.strip() else {}
    if done.returncode == 0 or result.get("correct") or result.get("failed") != 1:
        return [f"corrupted verdict for {first}: exit {done.returncode}, result {result}"]
    return []


def _bare_directory():
    done = _run("tnrk-scan", 0, cwd=_checkout_copy("bare"))
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    benchenv.prepare()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    problems = []
    try:
        for w in spec["workloads"]:
            problems += _check_metrics(_run(w["name"], 0), end_to_end, f"{w['name']} untraced")
            problems += _check_metrics(_run(w["name"], 1), per_layer, f"{w['name']} traced")
            print(f"{w['name']}: ran untraced and traced")
        problems += _corrupted_verdict()
        print("corrupted expected verdict: checked")
        problems += _bare_directory()
        print("directory without src/: checked")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""The summary arithmetic of scripts/bench_pairs.py: quartiles, wins and
the verdict rules, task counts and RSS per extra task, its source line
count, its workload list, its byte-compiling step and its exit status."""

import argparse
import json
import os

import pytest

import bench_pairs
from bench_pairs import (
    byte_compile,
    line_count,
    parse_seeds,
    parse_workloads,
    quartiles,
    rss_per_task,
    summarize,
)

TASKS = {"name": "tasks_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}
P50 = {"name": "task_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}


def pairs(parent, change, metric=TASKS):
    return [({metric["name"]: p}, {metric["name"]: c}) for p, c in zip(parent, change)]


def test_quartiles_inclusive():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_gain_needs_nine_tenths_and_the_parent_spread():
    parent = [100.0 + i for i in range(10)]  # quartiles 102.25 and 106.75
    change = [p + 10.0 for p in parent]
    s = summarize(pairs(parent, change), [TASKS])["tasks_per_s"]
    assert s["parent"] == (102.25, 104.5, 106.75)
    assert s["change"] == (112.25, 114.5, 116.75)
    assert (s["wins"], s["losses"], s["pairs"], s["verdict"]) == (10, 0, 10, "gain")
    # Two losses out of ten: 8 < 9 wins.
    change[0] = change[1] = 50.0
    assert summarize(pairs(parent, change), [TASKS])["tasks_per_s"]["wins"] == 8
    assert summarize(pairs(parent, change), [TASKS])["tasks_per_s"]["verdict"] == "within"
    # Every pair won, by less than the parent's interquartile range (4.5).
    change = [p + 4.0 for p in parent]
    assert summarize(pairs(parent, change), [TASKS])["tasks_per_s"]["verdict"] == "within"


def test_ties_count_for_neither_side():
    s = summarize(pairs([5.0, 5.0, 6.0], [5.0, 4.0, 7.0]), [TASKS])["tasks_per_s"]
    assert (s["wins"], s["losses"]) == (1, 1)


def test_lower_is_better_and_the_bound():
    parent = [10.0] * 10
    faster = summarize(pairs(parent, [8.0] * 10, P50), [P50])["task_p50_ms"]
    assert (faster["wins"], faster["verdict"]) == (10, "gain")
    # 20% slower is inside a 25% bound, 30% is not.
    assert summarize(pairs(parent, [12.0] * 10, P50), [P50])["task_p50_ms"]["verdict"] == "within"
    assert summarize(pairs(parent, [13.0] * 10, P50), [P50])["task_p50_ms"]["verdict"] == "worse"


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [60.0, 100.0, 140.0, 100.0]  # quartiles 90 and 110: 20% apart
    change = [58.0, 101.0, 142.0, 99.0]  # quartiles 88.75 and 111.25
    s = summarize(pairs(parent, change, P50), [P50])["task_p50_ms"]
    assert s["verdict"] == "within"
    wide = [20.0, 100.0, 180.0, 100.0]  # quartiles 80 and 120: 40% apart
    assert summarize(pairs(wide, change, P50), [P50])["task_p50_ms"]["verdict"] == "unresolved"
    # Unless every change run beats every parent run (here by too little
    # for a gain: the parent's quartiles are 51.5 apart).
    skewed = [99.0, 100.0, 101.0, 300.0]
    s = summarize(pairs(skewed, [98.5] * 4, P50), [P50])["task_p50_ms"]
    assert (s["wins"], s["verdict"]) == (4, "within")


def runs(attempted, rss):
    return [{"attempted": a, "peak_rss_mb": r} for a, r in zip(attempted, rss)]


def test_rss_per_extra_task():
    # Medians: 1000 tasks at 50 MB, then 1200 tasks at 51 MB.  1024 KB over
    # 200 extra tasks is 5.12 KB a task, and a 10% bound (5 MB) allows
    # 5120 / 5.12 = 1000 extra tasks.
    parent = runs([990, 1000, 1010], [49.0, 50.0, 60.0])
    change = runs([1200, 1150, 1300], [51.0, 50.5, 52.0])
    assert rss_per_task(list(zip(parent, change)), 0.1) == (1000, 1200, 5.12, 1000.0)
    # No extra tasks, or no extra memory: no rate.
    assert rss_per_task(list(zip(parent, parent)), 0.1) == (1000, 1000, None, None)
    fewer = runs([900, 900, 900], [55.0, 55.0, 55.0])
    assert rss_per_task(list(zip(parent, fewer)), 0.1) == (1000, 900, None, None)
    leaner = runs([1200, 1200, 1200], [40.0, 40.0, 40.0])
    assert rss_per_task(list(zip(parent, leaner)), 0.1) == (1000, 1200, None, None)


@pytest.mark.parametrize("text, seeds", [("101-103", [101, 102, 103]), ("7", [7])])
def test_seed_range(text, seeds):
    assert parse_seeds(text) == seeds


def test_line_count_totals_newlines_like_wc(tmp_path):
    lib = tmp_path / "src" / "walkspectra"
    lib.mkdir(parents=True)
    (lib / "a.py").write_text("x = 1\n\ny = 2\n")
    (lib / "b.py").write_text("z = 3")  # no final newline: wc -l counts 0
    (lib / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    assert line_count(tmp_path) == 3
    assert line_count(tmp_path / "missing") == 0


def test_byte_compile_covers_src_and_bench(tmp_path):
    for part in ("src/walkspectra", "bench", "tests"):
        (tmp_path / part).mkdir(parents=True)
        (tmp_path / part / "m.py").write_text("x = 1\n")
    byte_compile(tmp_path)
    compiled = sorted(str(p.relative_to(tmp_path).parent) for p in tmp_path.rglob("*.pyc"))
    assert compiled == ["bench/__pycache__", "src/walkspectra/__pycache__"]


with open(os.path.join(bench_pairs.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
NAMES = ["tnrk-scan", "onset-scan", "series-certify", "families-cli"]


@pytest.mark.parametrize(
    "text, workloads",
    [
        ("onset-scan", ["onset-scan"]),
        ("onset-scan,tnrk-scan", ["onset-scan", "tnrk-scan"]),
        ("tnrk-scan,,tnrk-scan,", ["tnrk-scan"]),
        ("all", NAMES),
    ],
)
def test_workload_list(text, workloads):
    assert [w["name"] for w in BENCH["workloads"]] == NAMES
    assert parse_workloads(text, NAMES) == workloads


@pytest.mark.parametrize("text", ["onset", "onset-scan,bogus", ",", "ALL"])
def test_unknown_workload_refused(text):
    with pytest.raises(argparse.ArgumentTypeError, match="unknown workload"):
        parse_workloads(text, NAMES)


@pytest.mark.parametrize(
    "slower, status, last",
    [
        ({}, 0, "worse: none"),
        ({"onset-scan": 0.9}, 0, "worse: none"),  # 10% slower: inside the 20% bound
        ({"onset-scan": 0.7}, 1, "worse: tasks_per_s on onset-scan"),
        (
            {"tnrk-scan": 0.5, "families-cli": 0.7},
            1,
            "worse: tasks_per_s on tnrk-scan, tasks_per_s on families-cli",
        ),
    ],
)
def test_exit_status_names_every_worse_verdict(monkeypatch, capsys, slower, status, last):
    # The change runs each workload at the given fraction of the parent's
    # tasks_per_s; every other metric is the same on both sides.
    def run_once(checkout, workload, seed, seconds):
        metrics = {m["name"]: 1.0 for m in BENCH["end_to_end"]}
        metrics["attempted"] = 100
        if checkout == "change":
            metrics["tasks_per_s"] = slower.get(workload, 1.0)
            metrics["attempted"] = round(100 * slower.get(workload, 1.0))
        return metrics

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "byte_compile", lambda checkout: print(f"compiled {checkout}"))
    assert bench_pairs.main(["parent", "change", "--workload", "all", "--seeds", "1-3"]) == status
    out = capsys.readouterr().out.splitlines()
    # Both checkouts are compiled before the first pair runs.
    assert out[:2] == ["compiled parent", "compiled change"]
    assert out[2].startswith("pair 1 seed 1 ")
    assert out[-1] == last
    assert [line.split(":")[0] for line in out if ": 3 pairs" in line] == NAMES
    # Each workload's task counts; RSS does not grow, so there is no rate.
    tasks = [line.split(";")[0] for line in out if line.startswith("  tasks ")]
    assert tasks == [
        f"  tasks        parent 100  change {round(100 * slower.get(w, 1.0))}  "
        f"{round(100 * slower.get(w, 1.0)) - 100:+d}"
        for w in NAMES
    ]
    assert all(line.endswith("; peak_rss_mb n/a") for line in out if line.startswith("  tasks "))


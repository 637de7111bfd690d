"""Regenerate the expected-output tables the benchmark's correctness gate
compares against.

    python3 bench/make_expected.py

Writes bench/expected/tnrk_verdicts.json (verify_corollary_tnrk over the
whole grid r in {2,3}, k in {2..5}, r*k <= n <= 60) and
bench/expected/onset_table.json (verify_one_set over the full range
s+t <= n <= 200 for the 19 host pairs of acceptance criterion 8).  The
tables pin the outputs of the commit they were generated at; regenerate them
only when a verdict is meant to change.
"""

import json
import os
import sys
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchenv  # noqa: E402  (pins BLAS threads and puts src/ on the path)

benchenv.prepare()

from walkspectra import extremal  # noqa: E402

import workloads  # noqa: E402


def tnrk_table():
    rows = []
    for r, k, n in workloads.tnrk_grid():
        rep = extremal.verify_corollary_tnrk(n, r, k)
        rows.append({
            "n": n, "r": r, "k": k,
            "verdict": rep.verdict,
            "family_size": rep.details.get("family_size"),
        })
    return rows


def onset_table():
    rows = []
    hosts3 = extremal.enumerate_m_edge(3).members
    for t_size in workloads.ONSET_T_SIZES:
        fits = [g for g in hosts3 if g.n <= t_size]
        for h1, h2 in combinations(fits, 2):
            lo = workloads.ONSET_S_SIZE + t_size
            rep = extremal.verify_one_set(
                workloads.ONSET_S_SIZE, t_size, h1, h2,
                range(lo, workloads.ONSET_N_MAX + 1),
            )
            rows.append({
                "t_size": t_size,
                "h1": workloads._g6(h1),
                "h2": workloads._g6(h2),
                "ordering": rep.details["ordering"],
                "onset": rep.details["onset"],
                "verdict": rep.verdict,
            })
    return rows


def main():
    out = os.path.join(HERE, "expected")
    os.makedirs(out, exist_ok=True)
    for name, rows in (("tnrk_verdicts.json", tnrk_table()),
                       ("onset_table.json", onset_table())):
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {name}: {len(rows)} rows")


if __name__ == "__main__":
    main()

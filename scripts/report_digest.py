"""Print one sha256 per group of walkspectra outputs.

    PYTHONPATH=src python scripts/report_digest.py [GROUP ...]

The first line names the Python and numpy versions; then each group named
(all of them when none is) prints its name, its count of outputs and the
sha256 over them.  ``report_digests.txt`` beside this script holds the full
output as last taken, and ``tests/test_report_digest.py`` recomputes every
group and compares, so any change to a report's bytes fails that group's
test.  A change that moves a group on purpose re-takes the file with

    PYTHONPATH=src python scripts/report_digest.py > scripts/report_digests.txt

Groups:

    tnrk       the 468 cor-tnrk reports, r in {2, 3}, k in 2..5, n = r..60
    onset      the 19 one-set pairs of bench/expected/onset_table.json, each
               over n = 3 + t_size..200 with a 3-vertex clique side
    multi-set  150 multi-set reports, ``sample_embedding`` seeds 0..149
    series     certified series outputs on ``sample_embedding`` seeds 0..299:
               ``f_resolvent`` endpoints at delta + {2**-48, 1e-6, 0.01, 0.5,
               3} and the ``solve_rho_series`` rho, bracket, iterations and
               convergence flag (floats as hex); only as close to delta as
               2**-48 does Varah's error term reach the last bit, so only
               there would a dropped rounding show
    spex       the spectral argmax (top, runner-up, winners) of the m-edge
               families, m = 1..7
    cli        the README's command lines and ``EXTRA_COMMANDS``, each in
               json, table and csv (exit code, stdout and stderr)

Reports are rendered by the CLI's own JSON writer (17 significant digits).
The script reads ``bench/expected`` and the README and writes only to a
temporary directory.  Each group's wall time goes to stderr, one line
such as ``series 0.52 s`` per group; stdout, and so ``report_digests.txt``,
holds the versions and digests alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shlex
import sys
import tempfile
import time
from unittest import mock

import numpy as np

from walkspectra import cli, extremal, series
from walkspectra.graphio import from_graph6, to_graph6

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "scripts", "report_digests.txt")
ONSET_S_SIZE = 3
ONSET_N_MAX = 200
MULTI_SET_SEEDS = 150
SERIES_SEEDS = 300
SERIES_GAPS = (2.0**-48, 1e-6, 0.01, 0.5, 3.0)

# The edge-list files the README's command lines name, written to the
# working directory the commands run in.
README_FILES = {
    "k3.el": "3 3\n0 1\n0 2\n1 2\n",
    "s3.el": "4 3\n0 1\n0 2\n0 3\n",
}


def _report(rep):
    return cli.render_json(rep.as_dict())


def tnrk():
    for r in (2, 3):
        for k in (2, 3, 4, 5):
            for n in range(r, 61):
                yield _report(extremal.verify_corollary_tnrk(n, r, k))


def onset():
    with open(os.path.join(ROOT, "bench", "expected", "onset_table.json"), encoding="utf-8") as fh:
        rows = json.load(fh)
    for row in rows:
        t = row["t_size"]
        ns = range(ONSET_S_SIZE + t, ONSET_N_MAX + 1)
        h1, h2 = from_graph6(row["h1"]), from_graph6(row["h2"])
        yield _report(extremal.verify_one_set(ONSET_S_SIZE, t, h1, h2, ns))


def multi_set():
    for seed in range(MULTI_SET_SEEDS):
        emb = extremal.sample_embedding(random.Random(seed))
        yield _report(extremal.verify_multi_set(emb))


def series_outputs():
    for seed in range(SERIES_SEEDS):
        emb = extremal.sample_embedding(random.Random(seed))
        probes = []
        for gap in SERIES_GAPS:
            ev = series.f_resolvent(emb, emb.delta + gap)
            probes.append(f"{ev.value_lo.hex()} {ev.value_hi.hex()}")
        res = series.solve_rho_series(emb)
        bracket = " ".join(b.hex() for b in res.bracket)
        yield (f"{seed} {'; '.join(probes)} | {res.rho.hex()} [{bracket}] "
               f"{res.iterations} {res.converged}")


def spex():
    for m in range(1, extremal.M_EDGE_LIMIT + 1):
        detail = extremal._spex_detail(extremal.enumerate_m_edge(m).members)
        yield cli.render_json({
            "m": m,
            "top": detail.top,
            "runner_up": detail.runner_up,
            "winners": [to_graph6(g) for g in detail.winners],
        })


def readme_cli_section():
    """The README's "Command line" section: its command block and prose."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read().split("## Command line", 1)[1].split("\n## ", 1)[0]


def readme_commands():
    """The argv of each command line in the README's command block."""
    block = readme_cli_section().split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("walkspectra ")]


# Beyond the README: two modes it does not show, a multi-set part of 10^5
# vertices (where the series bracket is wider than SOLVE_TOL), a cor-tnrk
# scan at r = 5 across n // r = 2t + 1 (where the family stops changing
# with n), then the refusals (a flag argparse does not define, one the mode
# does not read, a missing --theorem) and --version.
EXTRA_COMMANDS = [
    ["rho", "--family", "turan:7,3", "--method", "power"],
    ["verify", "--theorem", "multi-set", "--parts", "5,5", "--host", "1=star:4"],
    ["verify", "--theorem", "multi-set", "--parts", "100000,5", "--host", "2=star:4"],
    ["verify", "--theorem", "cor-tnrk", "--r", "5", "--k", "4", "--n-min", "15", "--n-max", "40"],
    ["rho", "--family", "star:3", "--depth", "5"],
    ["rho", "--family", "star:5", "--parts", "2,2"],
    ["verify", "--m", "3"],
    ["--version"],
]


def commands():
    # argparse wraps its usage text to the terminal width, read from COLUMNS.
    env = {"COLUMNS": "80"}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env):
        os.environ.pop(cli.CACHE_ENV, None)
        for name, text in README_FILES.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in readme_commands() + EXTRA_COMMANDS:
                for fmt in ("json", "table", "csv"):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv + ["--format", fmt])
                    head = f"$ {shlex.join(argv)} --format {fmt}\n{code}\n"
                    yield head + out.getvalue() + err.getvalue()
        finally:
            os.chdir(cwd)


GROUPS = {"tnrk": tnrk, "onset": onset, "multi-set": multi_set, "series": series_outputs,
          "spex": spex, "cli": commands}


def versions():
    return f"python {platform.python_version()}, numpy {np.__version__}"


def digest_line(name):
    """The group's line: its name, its count of outputs and their sha256."""
    digest, count = hashlib.sha256(), 0
    for text in GROUPS[name]():
        digest.update(text.encode("utf-8") + b"\n")
        count += 1
    return f"{name:<9} {count:>4}  {digest.hexdigest()}"


def recorded():
    """The versions line of ``report_digests.txt`` and its lines by group."""
    with open(RECORD, encoding="utf-8") as fh:
        head, *lines = fh.read().splitlines()
    return head.lstrip("# "), {line.split()[0]: line for line in lines}


def main(argv=None):
    names = (sys.argv[1:] if argv is None else argv) or list(GROUPS)
    unknown = [name for name in names if name not in GROUPS]
    if unknown:
        print(f"unknown group(s): {', '.join(unknown)}; choose from {', '.join(GROUPS)}",
              file=sys.stderr)
        return 2
    print(f"# {versions()}")
    for name in names:
        start = time.perf_counter()
        print(digest_line(name))
        print(f"{name} {time.perf_counter() - start:.2f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

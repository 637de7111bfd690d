"""The four benchmark workloads.

Each workload is one caller in a closed loop: it issues its next task (one
public walkspectra call) when the previous one returns.  Inputs come from
the seed alone and are grouped into *passes*; the measuring loop only stops
between passes, and each pass is built so that its mix of input sizes is
about the same whatever the seed, which keeps the per-run medians steady.

Every task's output is checked afterwards, outside the timed region, by
``gate(outcomes)``, which returns one failure reason (or None) per task and
counts the outcomes (verdicts, exit codes) in ``mix``.  ``kernel`` names
the calibration kernel (calibration.py) closest to the workload's own work.

Tasks call through module attributes (``extremal.verify_one_set``, not a
saved reference), so the traced run's wrappers see every call.
"""

import collections
import contextlib
import functools
import io
import json
import os
import random
import shutil
from itertools import combinations

import numpy as np

import oracles
from walkspectra import cli, extremal

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")

TNRK_R = (2, 3)
TNRK_K = (2, 3, 4, 5)
TNRK_N_MAX = 60
TNRK_STRIDE = 4

ONSET_S_SIZE = 3
ONSET_T_SIZES = (4, 5, 6)
ONSET_N_MAX = 200
ONSET_WINDOWS = 10
ONSET_JITTER = 2

SERIES_PASS = 8
CLI_SAMPLE = 4
# Parameters whose values differ in cost by up to 20x rotate through these
# menus.  A pass runs CLI_STEPS rounds of every command shape, and every
# menu length divides CLI_STEPS, so every pass runs the same mix of costs.
CLI_STEPS = 6
CLI_ROTATIONS = {
    "enumerate_m": (4, 5, 6),
    "embeddings_rt": ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5)),
    "exfilter_m": (4, 5, 6),
    "cor2inf_m": (4, 5, 6),
    "lemma_m": (3, 4, 5),
    "dense_n": (16, 26, 36),
}

# The verifiers' stated tolerances: oracle agreement for radii from power
# iteration or Jacobi (extremal.ORACLE_AGREEMENT), and the multi-set
# verifier's default tolerance for the series solver.
RADIUS_TOL = 1e-9
SERIES_TOL = 1e-8


class Task:
    __slots__ = ("key", "call", "prepare")

    def __init__(self, key, call, prepare=None):
        self.key = key
        self.call = call
        self.prepare = prepare


class Outcome:
    __slots__ = ("task", "value", "error", "seconds")

    def __init__(self, task, value, error, seconds):
        self.task = task
        self.value = value
        self.error = error
        self.seconds = seconds


class _Cycle:
    """Draws from ``values`` in seeded random order, each value once per
    round, so any stretch of passes sees an even mix."""

    def __init__(self, values, rng):
        self.values = list(values)
        self.rng = rng
        self.pending = []

    def next(self):
        if not self.pending:
            self.pending = self.rng.sample(self.values, len(self.values))
        return self.pending.pop()


def _graph_edges(g):
    us, vs = np.nonzero(np.triu(g.adj))
    return list(zip(us.tolist(), vs.tolist()))


def _g6(g):
    return oracles.graph6_encode(g.n, _graph_edges(g))


def _load(name):
    with open(os.path.join(EXPECTED_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


# ---- tnrk-scan -------------------------------------------------------------------


def tnrk_grid():
    for r in TNRK_R:
        for k in TNRK_K:
            for n in range(r * k, TNRK_N_MAX + 1):
                yield r, k, n


def _tnrk(n, r, k):
    return extremal.verify_corollary_tnrk(n, r, k)


class TnrkScan:
    """Which embedding of k-1 edges maximizes the radius (criterion 9).

    A pass holds every grid point (n, r, k) whose n lies in one residue
    class mod TNRK_STRIDE, in seeded order, and the classes come in seeded
    order.  Each pass thus samples the whole grid evenly, so passes, and
    runs of whole passes, run about the same mix of sizes.
    """

    name = "tnrk-scan"
    kernel = "dense"

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.mix = collections.Counter()
        self.expected = {(row["n"], row["r"], row["k"]): row
                         for row in _load("tnrk_verdicts.json")}
        self._radius = {}

    def passes(self):
        classes = _Cycle(range(TNRK_STRIDE), self.rng)
        while True:
            j = classes.next()
            tasks = [Task((n, r, k), functools.partial(_tnrk, n, r, k))
                     for r, k, n in tnrk_grid() if n % TNRK_STRIDE == j]
            self.rng.shuffle(tasks)
            yield tasks

    def _expected_winner_radius(self, n, r, k):
        key = (n, r, k)
        if key not in self._radius:
            sizes = oracles.turan_sizes(n, r)
            host = (oracles.adjacency(3, [(0, 1), (1, 2), (0, 2)]) if k == 4
                    else oracles.adjacency(k, oracles.star_edges(k)))
            adj = oracles.multipartite_adjacency(sizes, [host] + [None] * (r - 1))
            self._radius[key] = oracles.radius(adj)
        return self._radius[key]

    def gate(self, outcomes):
        reasons = []
        for out in outcomes:
            n, r, k = out.task.key
            rep = out.value
            self.mix["raised" if rep is None else rep.verdict] += 1
            want = self.expected.get((n, r, k))
            if out.error is not None:
                reasons.append(f"raised {out.error!r}")
            elif want is None:
                reasons.append(f"no expected verdict for n={n} r={r} k={k}")
            elif rep.verdict != want["verdict"]:
                reasons.append(f"verdict {rep.verdict} != expected {want['verdict']}")
            elif rep.details.get("family_size") != want["family_size"]:
                reasons.append("family size differs from the expected table")
            else:
                # The expected winner is a family member, so the maximum is
                # at least its radius, and equal to it when it wins.
                eig = self._expected_winner_radius(n, r, k)
                rho = rep.details["rho_max"]
                ok = abs(rho - eig) <= RADIUS_TOL if rep.passed else rho >= eig - RADIUS_TOL
                reasons.append(None if ok else f"rho_max {rho!r} vs eigvalsh {eig!r}")
        return reasons


# ---- onset-scan ------------------------------------------------------------------


def _one_set(t_size, h1, h2, lo, hi):
    return extremal.verify_one_set(ONSET_S_SIZE, t_size, h1, h2, range(lo, hi + 1))


class OnsetScan:
    """Where the walk order starts to predict the radius order (criterion 8).

    A pass visits every host pair once, in seeded order, since the pairs
    differ in cost.  Each pair's range n <= 200 is cut into ten windows of
    about equal power-iteration cost (cost grows like n^2), each boundary
    moved by a seeded offset.  The windows of a pair are reassembled by the
    gate and must reproduce the full-range onset table, and every radius
    difference must agree with LAPACK.
    """

    name = "onset-scan"
    kernel = "dense"

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.mix = collections.Counter()
        hosts = extremal.enumerate_m_edge(3).members
        self.pairs = [(t, h1, h2) for t in ONSET_T_SIZES
                      for h1, h2 in combinations([g for g in hosts if g.n <= t], 2)]
        self.expected = {(row["t_size"], row["h1"], row["h2"]): row
                         for row in _load("onset_table.json")}
        self.serial = 0
        self._radius = {}

    def _windows(self, lo):
        ns = list(range(lo, ONSET_N_MAX + 1))
        weights = [1.0 + (n / 90.0) ** 2 for n in ns]
        total = sum(weights)
        cuts, acc = [], 0.0
        for n, w in zip(ns, weights):
            acc += w
            if len(cuts) < ONSET_WINDOWS - 1 and acc >= total * (len(cuts) + 1) / ONSET_WINDOWS:
                cuts.append(n + self.rng.randint(-ONSET_JITTER, ONSET_JITTER))
        ends = sorted({c for c in cuts if lo <= c < ONSET_N_MAX}) + [ONSET_N_MAX]
        starts = [lo] + [e + 1 for e in ends[:-1]]
        return list(zip(starts, ends))

    def passes(self):
        while True:
            tasks = []
            for index in self.rng.sample(range(len(self.pairs)), len(self.pairs)):
                t_size, h1, h2 = self.pairs[index]
                self.serial += 1
                tasks += [Task((self.serial, index, lo, hi),
                               functools.partial(_one_set, t_size, h1, h2, lo, hi))
                          for lo, hi in self._windows(ONSET_S_SIZE + t_size)]
            yield tasks

    def _host_radius(self, host, g6, n):
        """Radius of the clique joined to n - 3 vertices carrying ``host``;
        the hosts recur across pairs, so each (host, n) is computed once."""
        if (g6, n) not in self._radius:
            self._radius[(g6, n)] = oracles.radius(
                oracles.one_set_adjacency(ONSET_S_SIZE, n, host.adj))
        return self._radius[(g6, n)]

    def _pair_reason(self, index, windows):
        t_size, h1, h2 = self.pairs[index]
        g1, g2 = _g6(h1), _g6(h2)
        want = self.expected.get((t_size, g1, g2))
        if want is None:
            return "no expected onset for this host pair"
        diffs = []
        for out in windows:
            rep = out.value
            if rep.details["ordering"] != want["ordering"]:
                return f"ordering {rep.details['ordering']} != expected {want['ordering']}"
            diffs.extend(rep.details["diffs"])
        if [n for n, _ in diffs] != list(range(ONSET_S_SIZE + t_size, ONSET_N_MAX + 1)):
            return "windows do not tile the full range"
        got = oracles.onset(diffs, want["ordering"], RADIUS_TOL)
        if got != want["onset"]:
            return f"reassembled onset {got} != expected {want['onset']}"
        for n, d in diffs:
            ref = self._host_radius(h1, g1, n) - self._host_radius(h2, g2, n)
            if abs(d - ref) > RADIUS_TOL:
                return f"radius difference at n={n}: {d!r} vs eigvalsh {ref!r}"
        return None

    def gate(self, outcomes):
        by_pass = {}
        for i, out in enumerate(outcomes):
            by_pass.setdefault(out.task.key[0], []).append(i)
            self.mix["raised" if out.value is None else out.value.verdict] += 1
        reasons = [None] * len(outcomes)
        for members in by_pass.values():
            windows = [outcomes[i] for i in members]
            if any(w.error is not None for w in windows):
                reason = "a window of this pair raised"
            else:
                reason = self._pair_reason(windows[0].task.key[1], windows)
            for i in members:
                reasons[i] = reason
        return reasons


# ---- series-certify ----------------------------------------------------------------


def _multi_set(task_seed):
    emb = extremal.sample_embedding(random.Random(task_seed))
    return emb, extremal.verify_multi_set(emb)


class SeriesCertify:
    """Certified series solves on random embeddings (criteria 6, 7, 10).

    Each task samples an embedding from its own seed and verifies the
    series identity and the series solver against power iteration.
    """

    name = "series-certify"
    kernel = "objects"

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.mix = collections.Counter()

    def passes(self):
        serial = 0
        while True:
            tasks = []
            for _ in range(SERIES_PASS):
                serial += 1
                task_seed = self.rng.getrandbits(63)
                tasks.append(Task((serial, task_seed), functools.partial(_multi_set, task_seed)))
            yield tasks

    def gate(self, outcomes):
        reasons = []
        for out in outcomes:
            if out.error is not None:
                self.mix["raised"] += 1
                reasons.append(f"raised {out.error!r}")
                continue
            label, reason = self._check(*out.value)
            self.mix[label] += 1
            reasons.append(reason)
        return reasons

    @staticmethod
    def _check(emb, rep):
        """(outcome label, failure reason or None) of one verified embedding."""
        sizes = list(emb.part_sizes)
        hosts = [None if h is None else h.adj for h in emb.hosts]
        eig = oracles.radius(oracles.multipartite_adjacency(sizes, hosts))
        details = rep.details
        if abs(details["rho_power"] - eig) > RADIUS_TOL:
            return rep.verdict, f"rho_power {details['rho_power']!r} vs eigvalsh {eig!r}"
        if rep.verdict == "pass":
            if abs(details["rho_series"] - eig) > SERIES_TOL:
                return "pass", f"rho_series {details['rho_series']!r} vs eigvalsh {eig!r}"
            return "pass", None
        if rep.verdict != "inapplicable":
            return rep.verdict, f"verdict {rep.verdict}"
        # Declining is allowed only for the two stated hypotheses, and only
        # when LAPACK confirms them; a solver that gives up otherwise fails.
        reason = details["reason"]
        if reason.startswith("spectral radius does not exceed"):
            ok = eig <= emb.delta + RADIUS_TOL
            return "inapplicable: rho <= delta", None if ok else "declined although rho > delta"
        if reason.startswith("bracket low end"):
            # The solver's lower bound: the largest radius of the hostless
            # graph and of each host joined to everything outside its part.
            low = oracles.radius(oracles.multipartite_adjacency(sizes, [None] * len(sizes)))
            for size, host in zip(sizes, hosts):
                if host is not None and host.any():
                    low = max(low, oracles.radius(
                        oracles.join_adjacency(host, sum(sizes) - size)))
            ok = low <= emb.delta + RADIUS_TOL
            return ("inapplicable: bracket low end <= delta",
                    None if ok else "declined although the bracket low end > delta")
        return "inapplicable: solver gave up", f"declined: {reason}"


# ---- families-cli ------------------------------------------------------------------


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)


def _random_edges(rng, n, p, connected=False):
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    if connected:
        order = rng.sample(range(n), n)
        edges |= {tuple(sorted((order[i - 1], order[i]))) for i in range(1, n)}
    return sorted(edges)


_HOST_SPECS = {
    "star:3": (3, oracles.star_edges(3)),
    "star:4": (4, oracles.star_edges(4)),
    "star:5": (5, oracles.star_edges(5)),
    "complete:3": (3, [(0, 1), (1, 2), (0, 2)]),
    "path:4": (4, [(0, 1), (1, 2), (2, 3)]),
}


class FamiliesCli:
    """Every README command shape through ``walkspectra.cli.main``.

    Each command runs twice against a fresh cache directory: the cold run
    generates and writes the enumeration cache, the warm run reads it.  A
    pass holds six commands of each shape; parameters with very different
    costs rotate through their values so every pass runs the same mix.
    """

    name = "families-cli"
    kernel = "objects"

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.mix = collections.Counter()
        self.workdir = workdir
        self.rotations = {key: _Cycle(values, self.rng) for key, values in CLI_ROTATIONS.items()}
        self.checks = {}

    def _commands(self, sdir):
        rng = self.rng
        rot = {key: cycle.next() for key, cycle in self.rotations.items()}
        cmds = []
        m = rot["enumerate_m"]
        cmds.append((["enumerate", "--m-edges", str(m)], ("m-edges", m)))
        r, t = rot["embeddings_rt"]
        n = rng.randint(26, 30)
        cmds.append((["enumerate", "--embeddings", f"{n},{r},{t}"], ("embeddings", n, r, t)))
        m = rot["exfilter_m"]
        cmds.append((["exfilter", "--m-edges", str(m), "--infinity"], ("exfilter", m)))
        m = rot["cor2inf_m"]
        cmds.append((["verify", "--theorem", "cor-2inf", "--m", str(m)], ("cor-2inf", m)))
        m = rot["lemma_m"]
        n = rng.randint(m + 2, m + 4)
        cmds.append((["verify", "--theorem", "lemma-2degree", "--n", str(n), "--m", str(m)],
                     ("verdict",)))
        cmds.append((["verify", "--theorem", "multi-set", "--sample", str(CLI_SAMPLE),
                      "--seed", str(rng.randrange(10 ** 6))], ("multi-set",)))

        n = rng.randint(6, 24)
        edges = _random_edges(rng, n, rng.uniform(0.15, 0.5))
        path = os.path.join(sdir, "walks.el")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        depth = rng.randint(6, 14)
        cmds.append((["walks", "--graph", path, "--depth", str(depth)],
                     ("walks", oracles.adjacency(n, edges), depth)))

        n2 = rng.randint(4, 12)
        edges2 = _random_edges(rng, n2, rng.uniform(0.2, 0.6))
        cmds.append((["compare", "--g1", path, "--g2", oracles.graph6_encode(n2, edges2)],
                     ("compare", oracles.adjacency(n, edges), oracles.adjacency(n2, edges2))))

        for method, n in (("power", rng.randint(20, 80)), ("dense", rot["dense_n"])):
            edges = _random_edges(rng, n, rng.uniform(0.05, 0.3), connected=True)
            cmds.append((["rho", "--graph6", oracles.graph6_encode(n, edges), "--method", method],
                         ("rho", oracles.adjacency(n, edges))))

        sizes = [rng.randint(10, 14) for _ in range(2)]
        part = rng.randrange(len(sizes))
        spec = rng.choice(sorted(_HOST_SPECS))
        order, host_edges = _HOST_SPECS[spec]
        hosts = [None] * len(sizes)
        hosts[part] = oracles.adjacency(order, host_edges)
        cmds.append((["solve-series", "--parts", ",".join(map(str, sizes)),
                      "--host", f"{part + 1}={spec}"],
                     ("solve-series", oracles.multipartite_adjacency(sizes, hosts))))
        return cmds

    def passes(self):
        serial = 0
        while True:
            tasks = []
            for _ in range(CLI_STEPS):
                serial += 1
                sdir = os.path.join(self.workdir, f"step{serial}")
                os.makedirs(sdir, exist_ok=True)
                cmds = self._commands(sdir)
                self.rng.shuffle(cmds)
                for c, (argv, check) in enumerate(cmds):
                    cache = os.path.join(sdir, f"cache{c}")
                    argv = argv + ["--cache-dir", cache]
                    self.checks[(serial, c)] = check
                    call = functools.partial(_cli, argv)
                    tasks.append(Task((serial, c, "cold"), call, functools.partial(_fresh, cache)))
                    tasks.append(Task((serial, c, "warm"), call))
            yield tasks

    def gate(self, outcomes):
        cold = {}
        reasons = []
        for out in outcomes:
            serial, c, phase = out.task.key
            if out.error is not None:
                reasons.append(f"raised {out.error!r}")
                continue
            code, stdout, stderr = out.value
            self.mix[f"exit {code}"] += 1
            if code != 0 or stderr:
                reasons.append(f"exit {code}: {stderr.strip()[:200]}")
                continue
            if phase == "warm":
                same = cold.get((serial, c)) == stdout
                reasons.append(None if same else "warm report differs from cold report")
                continue
            cold[(serial, c)] = stdout
            reasons.append(_cli_reason(self.checks[(serial, c)], json.loads(stdout)))
        return reasons


def _is_star(text, m):
    n, edges = oracles.graph6_decode(text)
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    return n == m + 1 and len(edges) == m and max(degrees) == m


def _cli_reason(check, rep):
    kind = check[0]
    if kind == "m-edges":
        m = check[1]
        graphs = rep["graphs"]
        if rep["count"] != oracles.M_EDGE_CLASS_COUNTS[m] or len(set(graphs)) != len(graphs):
            return f"{rep['count']} classes for m={m}"
        for text in graphs:
            n, edges = oracles.graph6_decode(text)
            if len(edges) != m or len({v for e in edges for v in e}) != n:
                return f"member {text} is not an m-edge graph without isolated vertices"
        return None
    if kind == "embeddings":
        _, n, r, t = check
        members = rep["members"]
        if rep["count"] != len(members) or not members:
            return "embedding count mismatch"
        seen = set()
        for mem in members:
            edges = sum(len(oracles.graph6_decode(h)[1]) for h in mem["hosts"] if h)
            if mem["parts"] != oracles.turan_sizes(n, r) or edges != t:
                return "member is not a t-edge embedding of the Turan partition"
            seen.add((tuple(mem["parts"]), tuple(mem["hosts"])))
        return None if len(seen) == len(members) else "duplicate embeddings"
    if kind == "exfilter":
        ok = len(rep["survivors"]) == 1 and _is_star(rep["survivors"][0], check[1])
        return None if ok else f"survivors {rep['survivors']} are not the star"
    if kind == "cor-2inf":
        stable = rep["details"]["stable"]
        ok = rep["verdict"] == "pass" and len(stable) == 1 and _is_star(stable[0], check[1])
        return None if ok else f"cor-2inf verdict {rep['verdict']}, stable {stable}"
    if kind == "verdict":
        return None if rep["verdict"] == "pass" else f"verdict {rep['verdict']}"
    if kind == "multi-set":
        if rep["verdicts"]["fail"] or not rep["verdicts"]["pass"]:
            return f"verdicts {rep['verdicts']}"
        for sub in rep["reports"]:
            d = sub["details"]
            if sub["verdict"] == "pass" and abs(d["rho_series"] - d["rho_power"]) > SERIES_TOL:
                return "series and power radii disagree"
        return None
    if kind == "walks":
        want = oracles.walk_totals(check[1], check[2])
        return None if rep["totals"] == want else "walk totals differ from A^L products"
    if kind == "compare":
        want = oracles.walk_order(check[1], check[2])
        return None if rep["ordering"] == want else f"ordering {rep['ordering']} != {want}"
    if kind == "rho":
        eig = oracles.radius(check[1])
        ok = rep["converged"] and abs(rep["rho"] - eig) <= RADIUS_TOL
        return None if ok else f"rho {rep['rho']!r} vs eigvalsh {eig!r}"
    if kind == "solve-series":
        eig = oracles.radius(check[1])
        lo, hi = rep["bracket"]
        ok = (rep["certified"] and lo - RADIUS_TOL <= eig <= hi + RADIUS_TOL
              and abs(rep["rho"] - eig) <= RADIUS_TOL)
        return None if ok else f"bracket {rep['bracket']} vs eigvalsh {eig!r}"
    return f"unknown check {kind}"


WORKLOADS = {cls.name: cls for cls in (TnrkScan, OnsetScan, SeriesCertify, FamiliesCli)}

"""Command-line front end: graph I/O, spectral computations, series
solving, enumeration, and theorem verification with machine-readable
reports.

Each mode of a subcommand reads the flags that ``_MODES`` lists for it, plus
--format and --cache-dir; any other flag given is a usage error.

Exit codes: 0 success or verification pass, 1 verification failure,
2 usage, input-format or unreadable-file error, 3 theorem hypothesis not met.
``main`` returns each of them, including argparse's refusals and the 0 of
--help and --version.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import random
import sys

from . import __version__
from .errors import (QUOTE_LIMIT, FormatError, GraphError, HypothesisNotMet, SeriesError,
                     SpectralError, integer, quoted)
from .extremal import (
    enumerate_embeddings,
    enumerate_m_edge,
    sample_embedding,
    verify_corollary_2inf,
    verify_corollary_tnrk,
    verify_lemma_2degree,
    verify_multi_set,
    verify_one_set,
)
from .graphio import from_graph6, read_graph, read_graph6, to_graph6
from .graphs import (
    MultipartiteEmbedding,
    complete,
    complete_multipartite,
    cycle,
    empty,
    path,
    star,
    turan,
)
from .series import solve_rho_series
from .spectral import ORDER_LIMIT, perron_normalized, rho_dense, rho_power
from .walks import ex_filter, ex_infinity, walk_compare, walk_profile, walk_totals

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INAPPLICABLE = 3

CACHE_ENV = "WALKSPECTRA_CACHE"

# The most levels `walks --depth` counts: star:3 takes 0.2 s and 76 MB peak
# RSS at the limit, 0.7 s and 147 MB with --per-vertex (on a 2-vCPU VM).
DEPTH_LIMIT = 10_000
# The most values of n a one-set or cor-tnrk scan takes from --n-min..--n-max:
# at the limit, one-set on the hosts complete:3 and star:4 takes 3.4 s and
# 34 MB peak RSS, and cor-tnrk with r = 2, k = 4 from n = 8 takes 22 s and 48 MB.
N_RANGE_LIMIT = 10_000


# ---- graph input ------------------------------------------------------------

_FAMILY_BUILDERS = {
    "complete": (1, lambda a: complete(a[0])),
    "star": (1, lambda a: star(a[0])),
    "path": (1, lambda a: path(a[0])),
    "cycle": (1, lambda a: cycle(a[0])),
    "empty": (1, lambda a: empty(a[0])),
    "turan": (2, lambda a: turan(a[0], a[1])),
    "complete_multipartite": (None, complete_multipartite),
}


def _integers(text, what):
    """The comma-separated integers of ``text``, empty items skipped."""
    return [integer(x, FormatError, what) for x in text.split(",") if x != ""]


def family_graph(spec):
    """Build a named family from 'name:arg1,arg2,...' of order at most
    ``ORDER_LIMIT``, refused before anything is allocated."""
    name, sep, argstr = spec.partition(":")
    if not sep or name not in _FAMILY_BUILDERS:
        known = ", ".join(sorted(_FAMILY_BUILDERS))
        raise FormatError(f"unknown family {quoted(spec)}; use one of: {known}")
    args = _integers(argstr, f"family {quoted(spec)}")
    arity, build = _FAMILY_BUILDERS[name]
    if arity is not None and len(args) != arity:
        raise FormatError(f"family {name} takes {arity} argument(s), got {len(args)}")
    if arity is None and not args:
        raise FormatError(f"family {name} needs at least one part size")
    order = sum(args) if arity is None else args[0]
    if order > ORDER_LIMIT:
        raise FormatError(f"family {quoted(spec)}: order {order} is above the limit {ORDER_LIMIT}")
    return build(args)


def load_graph(spec):
    """Resolve a graph argument: file path, family spec, or graph6 string."""
    if os.path.exists(spec):
        return read_graph(spec)
    if ":" in spec and spec.partition(":")[0] in _FAMILY_BUILDERS:
        return family_graph(spec)
    try:
        return from_graph6(spec)
    except FormatError as exc:
        raise FormatError(
            f"cannot interpret {quoted(spec)} as a file, family spec, or graph6 string: {exc}"
        ) from None


def _graph_from_args(args):
    picked = [x for x in (args.graph, args.graph6, args.family) if x]
    if len(picked) != 1:
        raise FormatError("exactly one of --graph/--graph6/--family is required")
    if args.graph:
        return read_graph(args.graph)
    if args.graph6:
        return from_graph6(args.graph6)
    return family_graph(args.family)


def build_embedding(parts_spec, host_specs):
    """Embedding from '--parts n1,n2,...' plus repeated '--host i=GRAPH'."""
    sizes = _integers(parts_spec, "--parts")
    hosts = [None] * len(sizes)
    for hs in host_specs or []:
        idx_str, sep, graph_spec = hs.partition("=")
        if not sep:
            raise FormatError(f"host spec must be 'part=GRAPH', got {quoted(hs)}")
        idx = integer(idx_str, FormatError, "--host part index")
        if not 1 <= idx <= len(sizes):
            raise FormatError(f"part index {idx} out of range 1..{len(sizes)}")
        if hosts[idx - 1] is not None:
            raise FormatError(f"part {idx} is given more than one host")
        hosts[idx - 1] = load_graph(graph_spec)
    return MultipartiteEmbedding(sizes, hosts)


# ---- rendering ---------------------------------------------------------------


def _fmt_float(x):
    # Fixed 17-significant-digit formatting keeps reports byte-identical.
    if not math.isfinite(x):
        return "null"
    return format(x, ".17g")


def render_json(value, level=0):
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f'{inner}{json.dumps(str(k))}: {render_json(v, level + 1)}'
                for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in value)
        if flat:
            return "[" + ", ".join(render_json(v) for v in value) + "]"
        rows = [f"{inner}{render_json(v, level + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    return json.dumps(str(value))


def _flatten(value, prefix=""):
    rows = []
    if isinstance(value, dict):
        for k, v in value.items():
            rows.extend(_flatten(v, f"{prefix}{k}."))
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            rows.append((prefix.rstrip("."), " ".join(_scalar_str(v) for v in value)))
        else:
            for i, v in enumerate(value):
                rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix.rstrip("."), _scalar_str(value)))
    return rows


def _scalar_str(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, float):
        return _fmt_float(v)
    return str(v)


def render_table(report):
    rows = _flatten(report)
    width = max((len(k) for k, _ in rows), default=0)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def render_csv(report):
    import csv  # only this output format needs it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for k, v in _flatten(report):
        writer.writerow([k, v])
    return buf.getvalue().rstrip("\n")


def emit(report, fmt):
    if fmt == "json":
        return render_json(report)
    if fmt == "table":
        return render_table(report)
    return render_csv(report)


# ---- subcommand handlers -----------------------------------------------------
#
# A handler takes the parsed namespace, in which every flag its mode reads is
# set (to its default when not given), and returns (exit code, report).


def _cmd_walks(args):
    if args.depth < 1:
        raise GraphError("depth must be at least 1")
    if args.depth > DEPTH_LIMIT:
        raise GraphError(f"depth must be at most {DEPTH_LIMIT}")
    g = _graph_from_args(args)
    report = {"n": g.n, "m": g.num_edges, "depth": args.depth}
    if args.per_vertex:
        prof = walk_profile(g, args.depth)
        report["totals"] = list(prof.totals)
        report["per_vertex"] = [list(level) for level in prof.per_vertex]
    else:  # walk_totals keeps one level at a time, not every level
        report["totals"] = walk_totals(g, args.depth)
    return EXIT_OK, report


def _cmd_compare(args):
    cert = walk_compare(load_graph(args.g1), load_graph(args.g2))
    return EXIT_OK, {
        "ordering": cert.ordering.value,
        "witness": cert.witness_index,
        "bound_used": cert.bound_used,
    }


def _spectral_report(result):
    report = {
        "rho": result.rho,
        "residual": result.residual,
        "iterations": result.iterations,
        "method": result.method,
        "converged": result.converged,
    }
    if result.bracket is not None:
        report["bracket"] = list(result.bracket)
    if result.depth is not None:
        report["depth_used"] = result.depth
    return report


def _cmd_rho(args):
    if args.method == "series":
        result = solve_rho_series(build_embedding(args.parts, args.host))
    elif args.method == "dense":
        result = rho_dense(_graph_from_args(args))
    else:
        result = rho_power(_graph_from_args(args))
    return EXIT_OK, _spectral_report(result)


def _cmd_perron(args):
    g = _graph_from_args(args)
    subset = _integers(args.subset, "--subset")
    result = perron_normalized(g, subset)
    report = _spectral_report(result)
    report["subset"] = subset
    report["vector"] = result.vector.tolist()
    return EXIT_OK, report


def _cmd_solve_series(args):
    emb = build_embedding(args.parts, args.host)
    result = solve_rho_series(emb)
    return EXIT_OK, {
        "rho": result.rho,
        "depth_used": result.depth,
        "bracket": list(result.bracket),
        "certified": result.converged,
        "parts": list(emb.part_sizes),
        "t": emb.t,
        "delta": emb.delta,
    }


def _cmd_enumerate(args):
    if (args.m_edges is None) == (args.embeddings is None):
        raise FormatError("enumerate needs exactly one of --m-edges/--embeddings")
    if args.m_edges is not None:
        fam = enumerate_m_edge(args.m_edges, cache_dir=args.cache_dir)
        return EXIT_OK, {
            "descriptor": fam.descriptor,
            "count": len(fam),
            "graphs": [to_graph6(g) for g in fam],
        }
    values = _integers(args.embeddings, "--embeddings")
    if len(values) != 3:
        raise FormatError(f"--embeddings expects n,r,t, got {quoted(args.embeddings)}")
    n, r, t = values
    fam = enumerate_embeddings(n, r, t, cache_dir=args.cache_dir)
    members = [
        {
            "parts": list(e.part_sizes),
            "hosts": [None if h is None else to_graph6(h) for h in e.hosts],
        }
        for e in fam
    ]
    return EXIT_OK, {"descriptor": fam.descriptor, "count": len(fam), "members": members}


def _cmd_exfilter(args):
    if (args.m_edges is None) == (args.family_file is None):
        raise FormatError("exfilter needs exactly one of --m-edges/--family-file")
    if args.infinity == (args.level is not None):
        raise FormatError("exfilter needs exactly one of --level/--infinity")
    if args.m_edges is not None:
        members = enumerate_m_edge(args.m_edges, cache_dir=args.cache_dir).members
        source = f"m-edge:m={args.m_edges}"
    else:
        members = read_graph6(args.family_file)
        source = args.family_file
    if args.infinity:
        survivors = ex_infinity(members)
        level = "infinity"
    else:
        survivors = ex_filter(members, args.level)
        level = args.level
    return EXIT_OK, {
        "source": source,
        "level": level,
        "input_count": len(members),
        "survivors": [to_graph6(g) for g in survivors],
    }


def _report_exit(reports):
    verdicts = [r["verdict"] for r in reports]
    if any(v == "fail" for v in verdicts):
        return EXIT_FAIL
    if any(v == "pass" for v in verdicts):
        return EXIT_OK
    return EXIT_INAPPLICABLE


def _single(report):
    body = report.as_dict()
    return _report_exit([body]), body


def _verify_lemma_2degree(args):
    return _single(verify_lemma_2degree(args.n, args.m, cache_dir=args.cache_dir))


def _verify_cor_2inf(args):
    return _single(verify_corollary_2inf(args.m, cache_dir=args.cache_dir))


def _n_range(n_min, n_max):
    """``range(n_min, n_max + 1)``, refused above ``N_RANGE_LIMIT`` values."""
    if n_max - n_min >= N_RANGE_LIMIT:
        raise FormatError(f"--n-min..--n-max holds more than {N_RANGE_LIMIT} values")
    return range(n_min, n_max + 1)


def _verify_one_set(args):
    n_range = _n_range(args.n_min, args.n_max)
    h1, h2 = load_graph(args.h1), load_graph(args.h2)
    return _single(verify_one_set(args.s_size, args.t_size, h1, h2, n_range))


def _verify_multi_set(args):
    emb = build_embedding(args.parts, args.host)
    return _single(verify_multi_set(emb))


def _verify_multi_set_sample(args):
    if args.sample < 1:
        raise FormatError("--sample must be at least 1")
    rng = random.Random(args.seed)
    reports = []
    for _ in range(args.sample):
        emb = sample_embedding(rng, cache_dir=args.cache_dir)
        reports.append(verify_multi_set(emb).as_dict())
    body = {
        "theorem": "multi-set",
        "seed": args.seed,
        "sample": args.sample,
        "verdicts": {
            v: sum(1 for r in reports if r["verdict"] == v)
            for v in ("pass", "fail", "inapplicable")
        },
        "reports": reports,
    }
    return _report_exit(reports), body


def _verify_tnrk(args):
    return _single(verify_corollary_tnrk(args.n, args.r, args.k, cache_dir=args.cache_dir))


def _verify_tnrk_scan(args):
    n_min = args.r * args.k if args.n_min is None else args.n_min
    if args.n_max < n_min:
        raise FormatError(f"empty n range {n_min}..{args.n_max}")
    reports = []
    onset = None
    for n in _n_range(n_min, args.n_max):
        rep = verify_corollary_tnrk(n, args.r, args.k, cache_dir=args.cache_dir).as_dict()
        reports.append(rep)
        onset = None if rep["verdict"] != "pass" else (onset if onset is not None else n)
    body = {
        "theorem": "cor-tnrk",
        "r": args.r,
        "k": args.k,
        "n_min": n_min,
        "n_max": args.n_max,
        "onset": onset,
        "per_n": [{"n": r["parameters"]["n"], "verdict": r["verdict"]} for r in reports],
    }
    return _report_exit(reports), body


# ---- argument parsing ---------------------------------------------------------

_GRAPH = ("graph", "graph6", "family")

# The one table of accepted flags.  A mode is a subcommand, narrowed by
# rho's --method, verify's --theorem, and whether multi-set has --sample and
# cor-tnrk has --n.  Each mode maps to its handler, the flags it requires
# and the other flags it reads (by argparse dest).  Any other flag given is
# rejected; --format and --cache-dir are taken by every mode.
_MODES = {
    "walks": (_cmd_walks, (), (*_GRAPH, "depth", "per_vertex")),
    "compare": (_cmd_compare, ("g1", "g2"), ()),
    "rho --method power": (_cmd_rho, (), _GRAPH),
    "rho --method dense": (_cmd_rho, (), _GRAPH),
    "rho --method series": (_cmd_rho, ("parts",), ("host",)),
    "perron": (_cmd_perron, ("subset",), _GRAPH),
    "solve-series": (_cmd_solve_series, ("parts",), ("host",)),
    "enumerate": (_cmd_enumerate, (), ("m_edges", "embeddings")),
    "exfilter": (_cmd_exfilter, (), ("m_edges", "family_file", "level", "infinity")),
    "verify --theorem lemma-2degree": (_verify_lemma_2degree, ("n", "m"), ()),
    "verify --theorem cor-2inf": (_verify_cor_2inf, ("m",), ()),
    "verify --theorem one-set": (
        _verify_one_set, ("s_size", "t_size", "h1", "h2", "n_min", "n_max"), ()
    ),
    "verify --theorem multi-set with --sample": (_verify_multi_set_sample, ("sample",), ("seed",)),
    "verify --theorem multi-set without --sample": (_verify_multi_set, ("parts",), ("host",)),
    "verify --theorem cor-tnrk with --n": (_verify_tnrk, ("n", "r", "k"), ()),
    "verify --theorem cor-tnrk without --n": (
        _verify_tnrk_scan, ("r", "k", "n_max"), ("n_min",)
    ),
}

# Defaults of the optional flags; any other flag a mode reads defaults to None.
_DEFAULTS = {"depth": 10, "per_vertex": False, "infinity": False, "seed": 0}

# Set in every namespace: the subcommand, the mode selectors, the shared flags.
_ALWAYS = {"subcommand", "method", "theorem", "format", "cache_dir"}


def _mode(args):
    if args.subcommand == "rho":
        return f"rho --method {args.method}"
    if args.subcommand != "verify":
        return args.subcommand
    mode = f"verify --theorem {args.theorem}"
    switch = {"multi-set": "sample", "cor-tnrk": "n"}.get(args.theorem)
    if switch is None:
        return mode
    return f"{mode} {'with' if switch in args else 'without'} --{switch}"


def _flags(dests):
    return ", ".join("--" + d.replace("_", "-") for d in dests)


def _handler(args):
    """The handler of the invocation's mode, after checking that the mode
    reads every flag given and gets every flag it requires; the optional
    flags not given are set to their defaults."""
    mode = _mode(args)
    handler, required, optional = _MODES[mode]
    given = set(vars(args)) - _ALWAYS
    unread = sorted(given.difference(required, optional))
    if unread:
        raise FormatError(f"{mode} does not read {_flags(unread)}")
    missing = [d for d in required if d not in given]
    if missing:
        raise FormatError(f"{mode} needs {_flags(missing)}")
    for dest in optional:
        vars(args).setdefault(dest, _DEFAULTS.get(dest))
    args.cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    return handler


class _ParserExit(Exception):
    """A parser's exit status, carried to ``main`` to return."""


class _Parser(argparse.ArgumentParser):
    # argparse ends a refusal, --help and --version with exit(); this one
    # prints the same message, then lets main return the status.
    def exit(self, status=0, message=None):
        if message:
            self._print_message(message, sys.stderr)
        raise _ParserExit(status)

    # argparse's messages for a refused choice and for unrecognized
    # arguments, with the refused text quoted by its head when it is long.
    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {quoted(value)} (choose from {choices})"
            )

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            text = " ".join(extra)
            shown = text if len(text) <= QUOTE_LIMIT else quoted(text)
            self.error(f"unrecognized arguments: {shown}")
        return args


def _add_graph_options(sub):
    sub.add_argument("--graph", help="edge-list (or graph6) file path")
    sub.add_argument("--graph6", help="inline graph6 string")
    sub.add_argument("--family", help="named family, e.g. star:8 or turan:7,3")


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by every call: it
    holds no per-invocation state, and building it costs far more than a
    parse."""
    parser = _Parser(
        prog="walkspectra",
        description="Graph spectral radii through walk-count series.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # argparse prints an ArgumentTypeError's message after the flag's name.
    number = functools.partial(integer, error=argparse.ArgumentTypeError)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "table", "csv"), default="json",
        help="report format (default json)",
    )
    common.add_argument("--cache-dir",
                        help=f"enumeration cache directory (or ${CACHE_ENV})")

    subs = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help_):
        # A flag not given stays out of the namespace: _handler sees what was given.
        return subs.add_parser(name, parents=[common], help=help_,
                               argument_default=argparse.SUPPRESS)

    p = add("walks", "exact walk counts")
    _add_graph_options(p)
    p.add_argument("--depth", type=number,
                   help="longest walk length counted (default 10)")
    p.add_argument("--per-vertex", action="store_true")

    p = add("compare", "walk-preference comparison of two graphs")
    p.add_argument("--g1", help="file, family spec, or graph6")
    p.add_argument("--g2", help="file, family spec, or graph6")

    p = add("rho", "spectral radius")
    _add_graph_options(p)
    p.add_argument("--method", choices=("power", "dense", "series"), default="power")
    p.add_argument("--parts", help="part sizes for --method series")
    p.add_argument("--host", action="append",
                   help="part=GRAPH host spec for --method series")

    p = add("perron", "Perron vector with subset normalization")
    _add_graph_options(p)
    p.add_argument("--subset", help="comma-separated vertex ids")

    p = add("solve-series", "spectral radius from the series equation")
    p.add_argument("--parts", help="comma-separated part sizes")
    p.add_argument("--host", action="append", help="part=GRAPH host spec")

    p = add("enumerate", "enumerate graph or embedding families")
    p.add_argument("--m-edges", type=number, help="m-edge classes, no isolated vertices")
    p.add_argument("--embeddings", help="n,r,t embedding family")

    p = add("exfilter", "iterated most-walks filter")
    p.add_argument("--m-edges", type=number)
    p.add_argument("--family-file", help="graph6 lines file")
    p.add_argument("--level", type=number)
    p.add_argument("--infinity", action="store_true")

    p = add("verify", "run a theorem verifier")
    p.add_argument("--theorem", required=True,
                   choices=("lemma-2degree", "cor-2inf", "one-set", "multi-set", "cor-tnrk"))
    p.add_argument("--n", type=number)
    p.add_argument("--m", type=number)
    p.add_argument("--r", type=number)
    p.add_argument("--k", type=number)
    p.add_argument("--n-min", type=number)
    p.add_argument("--n-max", type=number)
    p.add_argument("--s-size", type=number)
    p.add_argument("--t-size", type=number)
    p.add_argument("--h1", help="first host: file, family spec, or graph6")
    p.add_argument("--h2", help="second host")
    p.add_argument("--parts", help="part sizes for multi-set")
    p.add_argument("--host", action="append", help="part=GRAPH host spec")
    p.add_argument("--sample", type=number, help="verify N random embeddings")
    p.add_argument("--seed", type=number, help="seed for --sample (default 0)")

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except _ParserExit as exc:
        return exc.args[0]
    try:
        code, report = _handler(args)(args)
    except HypothesisNotMet as exc:
        print(f"inapplicable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except (GraphError, SeriesError, SpectralError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(emit(report, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())

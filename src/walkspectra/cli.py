"""Command-line front end: graph I/O, spectral computations, series
solving, enumeration, and theorem verification with machine-readable
reports.

Exit codes: 0 success or verification pass, 1 verification failure,
2 usage or input-format error, 3 theorem hypothesis not met.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import FormatError, GraphError, HypothesisNotMet, SeriesError, SpectralError
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
from .graphio import from_graph6, read_graph6, to_graph6
from .graphio import parse_edge_list
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
from .spectral import perron_normalized, rho_dense, rho_power
from .walks import ex_filter, ex_infinity, walk_compare, walk_profile

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INAPPLICABLE = 3

DEFAULT_TOLERANCE = 1e-10
CACHE_ENV = "WALKSPECTRA_CACHE"


@dataclass
class RunConfig:
    """Parsed invocation: subcommand, its options, and shared settings."""

    subcommand: str
    options: dict = field(default_factory=dict)
    tolerance: float = DEFAULT_TOLERANCE
    fmt: str = "json"
    cache_dir: str | None = None


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


def family_graph(spec):
    """Build a named family from 'name:arg1,arg2,...'."""
    name, sep, argstr = spec.partition(":")
    if not sep or name not in _FAMILY_BUILDERS:
        known = ", ".join(sorted(_FAMILY_BUILDERS))
        raise FormatError(f"unknown family {spec!r}; use one of: {known}")
    try:
        args = [int(x) for x in argstr.split(",") if x != ""]
    except ValueError:
        raise FormatError(f"non-integer family arguments in {spec!r}") from None
    arity, build = _FAMILY_BUILDERS[name]
    if arity is not None and len(args) != arity:
        raise FormatError(f"family {name} takes {arity} argument(s), got {len(args)}")
    if arity is None and not args:
        raise FormatError(f"family {name} needs at least one part size")
    return build(args)


def _graph_from_file(path_):
    with open(path_, encoding="utf-8") as fh:
        text = fh.read()
    lines = [line for raw in text.splitlines() if (line := raw.split("#", 1)[0].strip())]
    if not lines:
        raise FormatError(f"no graph data in {path_}")
    parts = lines[0].split()
    if len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts):
        return parse_edge_list(text)
    if len(lines) > 1:
        raise FormatError(f"{path_} holds {len(lines)} graph6 lines; one graph expected")
    return from_graph6(lines[0])


def load_graph(spec):
    """Resolve a graph argument: file path, family spec, or graph6 string."""
    if os.path.exists(spec):
        return _graph_from_file(spec)
    if ":" in spec and spec.partition(":")[0] in _FAMILY_BUILDERS:
        return family_graph(spec)
    try:
        return from_graph6(spec)
    except FormatError:
        raise FormatError(
            f"cannot interpret {spec!r} as a file, family spec, or graph6 string"
        ) from None


def _graph_from_args(args):
    picked = [x for x in (args.graph, args.graph6, args.family) if x]
    if len(picked) != 1:
        raise FormatError("exactly one of --graph/--graph6/--family is required")
    if args.graph:
        return _graph_from_file(args.graph)
    if args.graph6:
        return from_graph6(args.graph6)
    return family_graph(args.family)


def build_embedding(parts_spec, host_specs):
    """Embedding from '--parts n1,n2,...' plus repeated '--host i=GRAPH'."""
    try:
        sizes = [int(x) for x in parts_spec.split(",") if x != ""]
    except ValueError:
        raise FormatError(f"non-integer part sizes in {parts_spec!r}") from None
    hosts = [None] * len(sizes)
    for hs in host_specs or []:
        idx_str, sep, graph_spec = hs.partition("=")
        if not sep:
            raise FormatError(f"host spec must be 'part=GRAPH', got {hs!r}")
        try:
            idx = int(idx_str)
        except ValueError:
            raise FormatError(f"non-integer part index in {hs!r}") from None
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


def _vector_list(vec):
    return [float(x) for x in np.asarray(vec)]


# ---- subcommand handlers -----------------------------------------------------


def _cmd_walks(config):
    opts = config.options
    g = opts["graph"]
    depth = opts["depth"]
    prof = walk_profile(g, depth)
    report = {
        "n": g.n,
        "m": g.num_edges,
        "depth": depth,
        "totals": list(prof.totals),
    }
    if opts.get("per_vertex"):
        report["per_vertex"] = [list(level) for level in prof.per_vertex]
    return EXIT_OK, report


def _cmd_compare(config):
    g1, g2 = config.options["g1"], config.options["g2"]
    cert = walk_compare(g1, g2)
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


def _cmd_rho(config):
    opts = config.options
    method = opts["method"]
    if method == "series":
        emb = opts.get("embedding")
        if emb is None:
            raise FormatError("--method series needs --parts (and optional --host)")
        result = solve_rho_series(emb, tol=config.tolerance)
        return EXIT_OK, _spectral_report(result)
    g = opts["graph"]
    if method == "dense":
        result = rho_dense(g)
    else:
        result = rho_power(g, tol=min(config.tolerance, 1e-12))
    return EXIT_OK, _spectral_report(result)


def _cmd_perron(config):
    opts = config.options
    g = opts["graph"]
    subset = opts["subset"]
    result = perron_normalized(g, subset, tol=min(config.tolerance, 1e-12))
    report = _spectral_report(result)
    report["subset"] = subset
    report["vector"] = _vector_list(result.vector)
    return EXIT_OK, report


def _cmd_solve_series(config):
    emb = config.options["embedding"]
    result = solve_rho_series(emb, tol=config.tolerance)
    return EXIT_OK, {
        "rho": result.rho,
        "depth_used": result.depth,
        "bracket": list(result.bracket),
        "certified": result.converged,
        "parts": list(emb.part_sizes),
        "t": emb.t,
        "delta": emb.delta,
    }


def _cmd_enumerate(config):
    opts = config.options
    if opts.get("m_edges") is not None:
        fam = enumerate_m_edge(opts["m_edges"], cache_dir=config.cache_dir)
        return EXIT_OK, {
            "descriptor": fam.descriptor,
            "count": len(fam),
            "graphs": [to_graph6(g) for g in fam],
        }
    n, r, t = opts["embeddings"]
    fam = enumerate_embeddings(n, r, t, cache_dir=config.cache_dir)
    members = [
        {
            "parts": list(e.part_sizes),
            "hosts": [None if h is None else to_graph6(h) for h in e.hosts],
        }
        for e in fam
    ]
    return EXIT_OK, {"descriptor": fam.descriptor, "count": len(fam), "members": members}


def _cmd_exfilter(config):
    opts = config.options
    if opts.get("m_edges") is not None:
        members = enumerate_m_edge(opts["m_edges"], cache_dir=config.cache_dir).members
        source = f"m-edge:m={opts['m_edges']}"
    else:
        members = read_graph6(opts["family_file"])
        source = opts["family_file"]
    if opts.get("infinity"):
        survivors = ex_infinity(members)
        level = "infinity"
    else:
        survivors = ex_filter(members, opts["level"])
        level = opts["level"]
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


def _cmd_verify(config):
    opts = config.options
    theorem = opts["theorem"]
    if theorem == "lemma-2degree":
        rep = verify_lemma_2degree(opts["n"], opts["m"])
        return _report_exit([rep.as_dict()]), rep.as_dict()
    if theorem == "cor-2inf":
        rep = verify_corollary_2inf(opts["m"])
        return _report_exit([rep.as_dict()]), rep.as_dict()
    if theorem == "one-set":
        rep = verify_one_set(
            opts["s_size"],
            opts["t_size"],
            opts["h1"],
            opts["h2"],
            range(opts["n_min"], opts["n_max"] + 1),
        )
        return _report_exit([rep.as_dict()]), rep.as_dict()
    if theorem == "multi-set":
        if opts.get("sample"):
            rng = random.Random(opts["seed"])
            reports = []
            for _ in range(opts["sample"]):
                emb = sample_embedding(rng, cache_dir=config.cache_dir)
                reports.append(verify_multi_set(emb, tol=max(config.tolerance, 1e-8)).as_dict())
            body = {
                "theorem": "multi-set",
                "seed": opts["seed"],
                "sample": opts["sample"],
                "verdicts": {
                    v: sum(1 for r in reports if r["verdict"] == v)
                    for v in ("pass", "fail", "inapplicable")
                },
                "reports": reports,
            }
            return _report_exit(reports), body
        emb = opts.get("embedding")
        if emb is None:
            raise FormatError("verify multi-set needs --parts/--host or --sample")
        rep = verify_multi_set(emb, tol=max(config.tolerance, 1e-8))
        return _report_exit([rep.as_dict()]), rep.as_dict()
    if theorem == "cor-tnrk":
        if opts["n_max"] is not None:
            reports = []
            onset = None
            for n in range(opts["n_min"], opts["n_max"] + 1):
                rep = verify_corollary_tnrk(n, opts["r"], opts["k"]).as_dict()
                reports.append(rep)
                onset = None if rep["verdict"] != "pass" else (onset if onset is not None else n)
            body = {
                "theorem": "cor-tnrk",
                "r": opts["r"],
                "k": opts["k"],
                "n_min": opts["n_min"],
                "n_max": opts["n_max"],
                "onset": onset,
                "per_n": [
                    {"n": r["parameters"]["n"], "verdict": r["verdict"]} for r in reports
                ],
            }
            return _report_exit(reports), body
        rep = verify_corollary_tnrk(opts["n"], opts["r"], opts["k"])
        return _report_exit([rep.as_dict()]), rep.as_dict()
    raise FormatError(f"unknown theorem {theorem!r}")


# ---- argument parsing ---------------------------------------------------------


def _add_graph_options(sub):
    sub.add_argument("--graph", help="edge-list (or graph6) file path")
    sub.add_argument("--graph6", help="inline graph6 string")
    sub.add_argument("--family", help="named family, e.g. star:8 or turan:7,3")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="walkspectra",
        description="Graph spectral radii through walk-count series.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "table", "csv"), default="json",
        help="report format (default json)",
    )
    common.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                        help="numerical tolerance (default 1e-10)")
    common.add_argument("--cache-dir",
                        help=f"enumeration cache directory (or ${CACHE_ENV})")

    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("walks", parents=[common], help="exact walk counts")
    _add_graph_options(p)
    p.add_argument("--depth", type=int, default=10,
                   help="longest walk length counted (default 10)")
    p.add_argument("--per-vertex", action="store_true")

    p = subs.add_parser("compare", parents=[common],
                        help="walk-preference comparison of two graphs")
    p.add_argument("--g1", required=True, help="file, family spec, or graph6")
    p.add_argument("--g2", required=True, help="file, family spec, or graph6")

    p = subs.add_parser("rho", parents=[common], help="spectral radius")
    _add_graph_options(p)
    p.add_argument("--method", choices=("power", "dense", "series"), default="power")
    p.add_argument("--parts", help="part sizes for --method series")
    p.add_argument("--host", action="append",
                   help="part=GRAPH host spec for --method series")

    p = subs.add_parser("perron", parents=[common],
                        help="Perron vector with subset normalization")
    _add_graph_options(p)
    p.add_argument("--subset", required=True, help="comma-separated vertex ids")

    p = subs.add_parser("solve-series", parents=[common],
                        help="spectral radius from the series equation")
    p.add_argument("--parts", required=True, help="comma-separated part sizes")
    p.add_argument("--host", action="append", help="part=GRAPH host spec")

    p = subs.add_parser("enumerate", parents=[common],
                        help="enumerate graph or embedding families")
    p.add_argument("--m-edges", type=int, help="m-edge classes, no isolated vertices")
    p.add_argument("--embeddings", help="n,r,t embedding family")

    p = subs.add_parser("exfilter", parents=[common],
                        help="iterated most-walks filter")
    p.add_argument("--m-edges", type=int)
    p.add_argument("--family-file", help="graph6 lines file")
    p.add_argument("--level", type=int)
    p.add_argument("--infinity", action="store_true")

    p = subs.add_parser("verify", parents=[common], help="run a theorem verifier")
    p.add_argument("--theorem", required=True,
                   choices=("lemma-2degree", "cor-2inf", "one-set", "multi-set", "cor-tnrk"))
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--s-size", type=int)
    p.add_argument("--t-size", type=int)
    p.add_argument("--h1", help="first host: file, family spec, or graph6")
    p.add_argument("--h2", help="second host")
    p.add_argument("--parts", help="part sizes for multi-set")
    p.add_argument("--host", action="append", help="part=GRAPH host spec")
    p.add_argument("--sample", type=int, help="verify N random embeddings")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for --sample (default 0)")

    return parser


def _require(args, names):
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise FormatError(
            "missing required option(s): " + ", ".join(f"--{n}" for n in missing)
        )


def config_from_args(args):
    config = RunConfig(
        subcommand=args.subcommand,
        tolerance=args.tol,
        fmt=args.format,
        cache_dir=args.cache_dir or os.environ.get(CACHE_ENV),
    )
    if config.tolerance <= 0:
        raise FormatError("tolerance must be positive")
    opts = config.options

    if args.subcommand == "walks":
        opts["graph"] = _graph_from_args(args)
        opts["per_vertex"] = args.per_vertex
        if args.depth < 1:
            raise FormatError("--depth must be at least 1")
        opts["depth"] = args.depth
    elif args.subcommand == "compare":
        opts["g1"] = load_graph(args.g1)
        opts["g2"] = load_graph(args.g2)
    elif args.subcommand == "rho":
        opts["method"] = args.method
        if args.method == "series":
            _require(args, ["parts"])
            opts["embedding"] = build_embedding(args.parts, args.host)
        else:
            opts["graph"] = _graph_from_args(args)
    elif args.subcommand == "perron":
        opts["graph"] = _graph_from_args(args)
        try:
            opts["subset"] = [int(x) for x in args.subset.split(",") if x != ""]
        except ValueError:
            raise FormatError(f"non-integer subset {args.subset!r}") from None
    elif args.subcommand == "solve-series":
        opts["embedding"] = build_embedding(args.parts, args.host)
    elif args.subcommand == "enumerate":
        if (args.m_edges is None) == (args.embeddings is None):
            raise FormatError("enumerate needs exactly one of --m-edges/--embeddings")
        if args.m_edges is not None:
            opts["m_edges"] = args.m_edges
        else:
            try:
                n, r, t = (int(x) for x in args.embeddings.split(","))
            except ValueError:
                raise FormatError("--embeddings expects n,r,t") from None
            opts["embeddings"] = (n, r, t)
    elif args.subcommand == "exfilter":
        if (args.m_edges is None) == (args.family_file is None):
            raise FormatError("exfilter needs exactly one of --m-edges/--family-file")
        if args.m_edges is not None:
            opts["m_edges"] = args.m_edges
        else:
            opts["family_file"] = args.family_file
        if args.infinity == (args.level is not None):
            raise FormatError("exfilter needs exactly one of --level/--infinity")
        opts["infinity"] = args.infinity
        opts["level"] = args.level
    elif args.subcommand == "verify":
        opts["theorem"] = args.theorem
        if args.theorem == "lemma-2degree":
            _require(args, ["n", "m"])
            opts.update(n=args.n, m=args.m)
        elif args.theorem == "cor-2inf":
            _require(args, ["m"])
            opts.update(m=args.m)
        elif args.theorem == "one-set":
            _require(args, ["s-size", "t-size", "h1", "h2", "n-min", "n-max"])
            opts.update(
                s_size=args.s_size,
                t_size=args.t_size,
                h1=load_graph(args.h1),
                h2=load_graph(args.h2),
                n_min=args.n_min,
                n_max=args.n_max,
            )
        elif args.theorem == "multi-set":
            if args.sample:
                opts.update(sample=args.sample, seed=args.seed)
            else:
                _require(args, ["parts"])
                opts["embedding"] = build_embedding(args.parts, args.host)
        elif args.theorem == "cor-tnrk":
            _require(args, ["r", "k"])
            if args.n is None and args.n_max is None:
                raise FormatError("cor-tnrk needs --n or --n-max")
            n_min = args.r * args.k if args.n_min is None else args.n_min
            if args.n_max is not None and args.n_max < n_min:
                raise FormatError(f"empty n range {n_min}..{args.n_max}")
            opts.update(n=args.n, r=args.r, k=args.k, n_min=n_min, n_max=args.n_max)
    return config


_HANDLERS = {
    "walks": _cmd_walks,
    "compare": _cmd_compare,
    "rho": _cmd_rho,
    "perron": _cmd_perron,
    "solve-series": _cmd_solve_series,
    "enumerate": _cmd_enumerate,
    "exfilter": _cmd_exfilter,
    "verify": _cmd_verify,
}


def run(config, out=None):
    """Dispatch a parsed configuration; returns the process exit status."""
    out = out if out is not None else sys.stdout
    try:
        code, report = _HANDLERS[config.subcommand](config)
    except HypothesisNotMet as exc:
        print(f"inapplicable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except (FormatError, GraphError, SeriesError, SpectralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(emit(report, config.fmt), file=out)
    return code


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except (FormatError, GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

import argparse
import decimal
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

from conftest import edgeless_graph6
from report_digest import README_FILES, readme_cli_section, readme_commands
from walkspectra import __version__, cli, complete, extremal, walk_profile, walks
from walkspectra.errors import FormatError, quoted
from walkspectra.graphio import from_graph6, parse_edge_list, read_graph
from walkspectra.spectral import ORDER_LIMIT
from walkspectra.cli import (
    EXIT_FAIL,
    EXIT_INAPPLICABLE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


@pytest.fixture
def readme_dir(tmp_path):
    # The edge-list files the README's command lines name.
    for name, text in README_FILES.items():
        (tmp_path / name).write_text(text)
    return tmp_path


@pytest.fixture
def k3_file(readme_dir):
    return str(readme_dir / "k3.el")


@pytest.fixture
def s3_file(readme_dir):
    return str(readme_dir / "s3.el")


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestWalks:
    def test_totals(self, capsys, k3_file):
        code, rep = run_json(capsys, ["walks", "--graph", k3_file, "--depth", "3"])
        assert code == EXIT_OK
        assert rep["totals"] == [6, 12, 24]

    def test_per_vertex(self, capsys):
        code, rep = run_json(
            capsys, ["walks", "--family", "star:4", "--depth", "2", "--per-vertex"]
        )
        assert code == EXIT_OK
        assert rep["per_vertex"][0] == [3, 1, 1, 1]

    def test_graph6_input(self, capsys):
        code, rep = run_json(capsys, ["walks", "--graph6", "Bw", "--depth", "3"])
        assert code == EXIT_OK
        assert rep["totals"] == [6, 12, 24]

    def test_totals_hold_one_level_at_a_time(self, capsys):
        # Without --per-vertex only the totals are printed, so the command
        # keeps one level of per-vertex counts, not all of them: the 100
        # levels of walk_profile(complete(100), 100) peak at about 0.9 MB.
        main(["walks", "--family", "star:3", "--depth", "2"])  # builds the shared parser
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(["walks", "--family", "complete:100", "--depth", "100"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert rep["totals"] == list(walk_profile(complete(100), 100).totals)
        assert peak < 2**19

    def test_counts_past_the_int_str_limit(self, capsys):
        # 10*9^5000 has 4,773 digits, past the 4,300 that str() converts by
        # default; json reads it back only as a Decimal for the same reason.
        limit = sys.get_int_max_str_digits()
        code = main(["walks", "--family", "complete:10", "--depth", "5000"])
        rep = json.loads(capsys.readouterr().out, parse_int=decimal.Decimal)
        assert code == EXIT_OK
        assert int(rep["totals"][-1]) == 10 * 9**5000
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("render", [cli.render_table, cli.render_csv])
    def test_long_counts_in_table_and_csv(self, render):
        digits = str(decimal.Decimal(10 * 9**5000))
        assert render({"totals": [6, 10 * 9**5000]}).endswith(f"6 {digits}")


class TestCompare:
    def test_triangle_vs_star(self, capsys, k3_file, s3_file):
        code, rep = run_json(capsys, ["compare", "--g1", k3_file, "--g2", s3_file])
        assert code == EXIT_OK
        assert rep == {"ordering": "greater", "witness": 3, "bound_used": 7}

    def test_family_specs(self, capsys):
        code, rep = run_json(capsys, ["compare", "--g1", "star:4", "--g2", "star:4"])
        assert code == EXIT_OK
        assert rep["ordering"] == "equal"
        assert rep["witness"] is None


class TestRho:
    def test_power_dense_agree(self, capsys):
        _, rep1 = run_json(capsys, ["rho", "--family", "turan:9,3"])
        _, rep2 = run_json(capsys, ["rho", "--family", "turan:9,3", "--method", "dense"])
        assert abs(rep1["rho"] - rep2["rho"]) <= 1e-9
        assert rep1["method"] == "power"
        assert rep2["method"] == "dense"

    def test_series_method(self, capsys, k3_file):
        code, rep = run_json(
            capsys,
            ["rho", "--method", "series", "--parts", "1,3", "--host", f"2={k3_file}"],
        )
        assert code == EXIT_OK
        assert rep["rho"] == pytest.approx(3.0, abs=1e-8)
        assert "bracket" in rep

    def test_series_needs_parts(self, capsys):
        assert main(["rho", "--method", "series"]) == EXIT_USAGE


class TestPerron:
    def test_star_center(self, capsys):
        code, rep = run_json(
            capsys, ["perron", "--family", "star:5", "--subset", "0"]
        )
        assert code == EXIT_OK
        assert rep["vector"][0] == pytest.approx(2.0, abs=1e-9)


class TestSolveSeries:
    def test_schema(self, capsys, k3_file):
        code, rep = run_json(
            capsys, ["solve-series", "--parts", "1,3", "--host", f"2={k3_file}"]
        )
        assert code == EXIT_OK
        assert set(rep) == {
            "rho", "depth_used", "bracket", "certified", "parts", "t", "delta",
        }
        assert rep["certified"] is True

    def test_inapplicable_exit(self, capsys):
        code = main(["solve-series", "--parts", "1,5", "--host", "2=star:5"])
        assert code == EXIT_INAPPLICABLE
        assert "inapplicable" in capsys.readouterr().err


class TestEnumerate:
    def test_m_edges(self, capsys):
        code, rep = run_json(capsys, ["enumerate", "--m-edges", "3"])
        assert code == EXIT_OK
        assert rep["count"] == 5

    def test_embeddings(self, capsys):
        code, rep = run_json(capsys, ["enumerate", "--embeddings", "31,2,1"])
        assert code == EXIT_OK
        assert rep["count"] == 2

    def test_cache_dir(self, capsys, tmp_path):
        code, _ = run_json(
            capsys, ["enumerate", "--m-edges", "4", "--cache-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        assert (tmp_path / "m_edge_4.g6").exists()

    def test_cache_file_bytes_pinned(self, capsys, tmp_path):
        code, _ = run_json(
            capsys, ["enumerate", "--m-edges", "6", "--cache-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        data = (tmp_path / "m_edge_6.g6").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "99e3768653458b98c344e8ab2d220fc9fd0201e29f9575ff56731ce7b895c5de"
        )

    def test_cache_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("WALKSPECTRA_CACHE", str(tmp_path))
        code, _ = run_json(capsys, ["enumerate", "--m-edges", "3"])
        assert code == EXIT_OK
        assert (tmp_path / "m_edge_3.g6").exists()

    def test_needs_exactly_one_mode(self, capsys):
        assert main(["enumerate"]) == EXIT_USAGE


class TestExFilter:
    def test_level(self, capsys):
        code, rep = run_json(capsys, ["exfilter", "--m-edges", "3", "--level", "2"])
        assert code == EXIT_OK
        assert len(rep["survivors"]) == 2

    def test_infinity(self, capsys):
        code, rep = run_json(capsys, ["exfilter", "--m-edges", "3", "--infinity"])
        assert code == EXIT_OK
        assert rep["survivors"] == ["Bw"]

    def test_family_file(self, capsys, tmp_path):
        fam = tmp_path / "fam.g6"
        fam.write_text("Bw\nCs\n")
        code, rep = run_json(
            capsys, ["exfilter", "--family-file", str(fam), "--level", "3"]
        )
        assert code == EXIT_OK
        assert rep["survivors"] == ["Bw"]

    def test_level_past_the_bound(self, capsys, monkeypatch):
        # The m = 3 classes have at most 6 vertices, so rounds past 12 are
        # not run (each graph's levels run out after 12 here): a level of
        # 10**8 gives the --infinity survivors at once and echoes the level.
        level_iter = walks._level_iter
        monkeypatch.setattr(walks, "_level_iter", lambda g: itertools.islice(level_iter(g), 12))
        reports = {
            flag: run_json(capsys, ["exfilter", "--m-edges", "3", *flag.split()])
            for flag in ("--level 100000000", "--level 13", "--infinity")
        }
        assert {code for code, _ in reports.values()} == {EXIT_OK}
        survivors = [rep.pop("survivors") for _, rep in reports.values()]
        assert survivors == [["Bw"]] * 3
        assert [rep["level"] for _, rep in reports.values()] == [100000000, 13, "infinity"]


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, rep = run_json(capsys, ["verify", "--theorem", "cor-2inf", "--m", "3"])
        assert code == EXIT_OK
        assert rep["verdict"] == "pass"

    def test_lemma(self, capsys):
        code, rep = run_json(
            capsys, ["verify", "--theorem", "lemma-2degree", "--n", "8", "--m", "3"]
        )
        assert code == EXIT_OK
        assert len(rep["witnesses"]) == 2

    def test_one_set(self, capsys):
        code, rep = run_json(
            capsys,
            [
                "verify", "--theorem", "one-set",
                "--s-size", "3", "--t-size", "4",
                "--h1", "complete:3", "--h2", "star:4",
                "--n-min", "7", "--n-max", "40",
            ],
        )
        assert code == EXIT_OK
        assert rep["details"]["onset"] is not None

    def test_multi_set_single(self, capsys, k3_file):
        code, rep = run_json(
            capsys,
            ["verify", "--theorem", "multi-set", "--parts", "1,3", "--host", f"2={k3_file}"],
        )
        assert code == EXIT_OK

    def test_multi_set_sample_seeded(self, capsys):
        code, rep = run_json(
            capsys,
            ["verify", "--theorem", "multi-set", "--sample", "3", "--seed", "11"],
        )
        assert code in (EXIT_OK, EXIT_INAPPLICABLE)
        assert rep["seed"] == 11
        assert rep["verdicts"]["fail"] == 0

    def test_multi_set_inapplicable_exit(self, capsys):
        code, rep = run_json(
            capsys,
            ["verify", "--theorem", "multi-set", "--parts", "1,5", "--host", "2=star:5"],
        )
        assert code == EXIT_INAPPLICABLE
        assert rep["verdict"] == "inapplicable"

    def test_cor_tnrk_single(self, capsys):
        code, rep = run_json(
            capsys, ["verify", "--theorem", "cor-tnrk", "--n", "30", "--r", "2", "--k", "2"]
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize("n, r, k", [(8, 4, 5), (5, 2, 3)])
    def test_cor_tnrk_host_not_fitting_inapplicable(self, capsys, n, r, k):
        code, rep = run_json(
            capsys,
            ["verify", "--theorem", "cor-tnrk", "--n", str(n), "--r", str(r), "--k", str(k)],
        )
        assert code == EXIT_INAPPLICABLE
        assert rep["verdict"] == "inapplicable"
        assert rep["details"]["reason"] == "expected host does not fit a smallest part"

    def test_cor_tnrk_scan_below_rk(self, capsys):
        # n = 4, 5 cannot hold the star K_{1,2} in a part: inapplicable, not failed
        argv = ["verify", "--theorem", "cor-tnrk", "--r", "2", "--k", "3", "--n-min", "4"]
        code, rep = run_json(capsys, argv + ["--n-max", "7"])
        assert code == EXIT_OK
        assert [row["verdict"] for row in rep["per_n"]] == ["inapplicable"] * 2 + ["pass"] * 2
        assert rep["onset"] == 6
        code, rep = run_json(capsys, argv + ["--n-max", "5"])
        assert code == EXIT_INAPPLICABLE
        assert rep["onset"] is None

    def test_fail_verdict_exit(self, capsys, monkeypatch):
        failed = extremal.VerificationReport("cor-2inf", {"m": 3}, "fail")
        monkeypatch.setattr(cli, "verify_corollary_2inf", lambda m, cache_dir=None: failed)
        code, rep = run_json(capsys, ["verify", "--theorem", "cor-2inf", "--m", "3"])
        assert code == EXIT_FAIL
        assert rep["verdict"] == "fail"

    @pytest.mark.parametrize(
        "argv, files",
        [
            ("verify --theorem cor-2inf --m 4", {"m_edge_4.g6"}),
            ("verify --theorem lemma-2degree --n 7 --m 4", {"m_edge_4.g6"}),
            ("verify --theorem cor-tnrk --n 8 --r 2 --k 3", {"m_edge_1.g6", "m_edge_2.g6"}),
            ("verify --theorem cor-tnrk --r 2 --k 3 --n-max 7", {"m_edge_1.g6", "m_edge_2.g6"}),
        ],
    )
    def test_verifier_cache_dir(self, capsys, tmp_path, monkeypatch, argv, files):
        cache = tmp_path / "d"
        argv = argv.split() + ["--cache-dir", str(cache)]
        assert main(argv) == EXIT_OK
        cold = capsys.readouterr().out
        assert set(os.listdir(cache)) == files
        reads = []
        real = extremal._cache_bytes
        monkeypatch.setattr(extremal, "_cache_bytes", lambda path: reads.append(path) or real(path))
        # As a process that has not read these paths back yet: a scan's
        # cold run reads back at its second n the files its first n wrote.
        monkeypatch.setattr(extremal, "_CACHE_PATHS", {})
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == cold
        assert {os.path.basename(p) for p in reads} == files

    @pytest.mark.parametrize(
        "argv", ["verify --theorem cor-2inf --m 4", "exfilter --m-edges 4 --infinity"]
    )
    def test_fresh_process_rewrites_substituted_star(self, capsys, tmp_path, argv):
        # The star K_{1,4} of m_edge_4.g6 replaced by a copy of the line
        # before it: a process that holds no classes yet gives the generated
        # family's answer and rewrites the file to its pinned bytes.
        assert main(argv.split()) in (EXIT_OK, EXIT_FAIL)
        want = capsys.readouterr().out
        extremal.enumerate_m_edge(4, cache_dir=str(tmp_path))
        cache = tmp_path / "m_edge_4.g6"
        lines = cache.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if from_graph6(line).max_degree() == 4)
        lines[i] = lines[i - 1]
        cache.write_text("".join(line + "\n" for line in lines))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "walkspectra.cli", *argv.split(), "--cache-dir", str(tmp_path)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, want, "")
        assert hashlib.sha256(cache.read_bytes()).hexdigest() == extremal._M_EDGE_SHA256[3]

    def test_cor_tnrk_scan(self, capsys):
        code, rep = run_json(
            capsys,
            ["verify", "--theorem", "cor-tnrk", "--r", "2", "--k", "3",
             "--n-min", "6", "--n-max", "14"],
        )
        assert code == EXIT_OK
        assert rep["onset"] is not None
        assert len(rep["per_n"]) == 9

    @pytest.mark.parametrize(
        "bounds", [["--n-max", "0"], ["--n-min", "10", "--n-max", "5"]]
    )
    def test_cor_tnrk_empty_range(self, capsys, bounds):
        argv = ["verify", "--theorem", "cor-tnrk", "--r", "2", "--k", "3", *bounds]
        assert main(argv) == EXIT_USAGE
        assert "empty n range" in capsys.readouterr().err

    def test_missing_options(self, capsys):
        assert main(["verify", "--theorem", "lemma-2degree"]) == EXIT_USAGE


def run_captured(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    # A flag argparse rejects, a flag the mode does not read, missing flags,
    # then a valid command.
    SEQUENCE = [
        "rho --family star:3 --depth 5",
        "rho --family star:3 --parts 2,2",
        "verify --theorem lemma-2degree",
        "walks --graph6 Bw --depth 3",
    ]

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_import_loads_no_fractions(self):
        # fractions pulls in decimal, a few ms of every command's start-up;
        # the exact series work on int pairs instead.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = "import sys, walkspectra.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert done.stdout == "[]\n"

    @pytest.mark.parametrize(
        "argv, out",
        [("--version", f"{__version__}\n"), ("walks --help", "usage: walkspectra walks [-h]")],
    )
    def test_help_and_version_return_ok(self, capsys, argv, out):
        code, got_out, err = run_captured(capsys, argv.split())
        assert code == EXIT_OK
        assert got_out.startswith(out)
        assert err == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("", "the following arguments are required: subcommand"),
            ("nosuch", "argument subcommand: invalid choice: 'nosuch'"),
            ("rho --family star:3 --method qr", "argument --method: invalid choice: 'qr'"),
            ("verify --m 3", "the following arguments are required: --theorem"),
        ],
    )
    def test_argparse_refusal_returns_usage(self, capsys, argv, message):
        # argparse's own usage and error text, returned from main, not raised
        code, out, err = run_captured(capsys, argv.split())
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage: walkspectra")
        assert f"error: {message}" in err

    @pytest.mark.parametrize(
        "argv, shown",
        [
            ("rho --family star:4 --meth dense", "--meth dense"),
            ("verify --theorem one-set --h=" + "X" * 5000, "'--h=XXXX"),
        ],
        ids=["prefix", "long-prefix-of-two"],
    )
    def test_flags_never_abbreviated(self, capsys, argv, shown):
        # A prefix of a flag is not the flag: it is refused as unrecognized,
        # with a long one quoted by its head, never as ambiguous.
        code, out, err = run_captured(capsys, argv.split())
        assert code == EXIT_USAGE
        assert out == ""
        assert f"error: unrecognized arguments: {shown}" in err
        assert len(err.encode()) < 1024

    def test_shared_parser_matches_fresh(self, capsys):
        fresh = []
        for argv in self.SEQUENCE:
            cli.build_parser.cache_clear()
            fresh.append(run_captured(capsys, argv.split()))
        cli.build_parser.cache_clear()
        shared = [run_captured(capsys, argv.split()) for argv in self.SEQUENCE]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [EXIT_USAGE] * 3 + [EXIT_OK]


class TestInputsAndErrors:
    def test_malformed_file_diagnostic(self, capsys, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("3 2\n0 1\n1 9\n")
        code = main(["walks", "--graph", str(bad), "--depth", "2"])
        assert code == EXIT_USAGE
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, argv, message",
        [
            ("3 2\n0 1\n1 9\n", ["compare", "--g1", "{}", "--g2", "star:3"],
             "line 3: endpoint out of range 0..2: '1 9'"),
            ("3 2\n0 1\n1 9\n", ["solve-series", "--parts", "5,5", "--host", "1={}"],
             "line 3: endpoint out of range 0..2: '1 9'"),
            ("# one graph\n??bad\n", ["walks", "--graph", "{}", "--depth", "2"],
             "line 2: bad graph6 record: graph6 body has 4 bytes, expected 0 for n=0"),
            ("Bw\n??bad\n", ["exfilter", "--family-file", "{}", "--infinity"],
             "line 2: bad graph6 record: graph6 body has 4 bytes, expected 0 for n=0"),
        ],
        ids=["compare-edge-list", "host-edge-list", "one-graph6-line", "graph6-family"],
    )
    def test_bad_record_names_file(self, capsys, tmp_path, text, argv, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main([a.format(bad) for a in argv]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize("order", [ORDER_LIMIT + 1, 3_000_000])
    @pytest.mark.parametrize(
        "form",
        ["edge-list", "graph6", "graph6-file", "graph6-family-file", "compare-graph6",
         "empty", "complete", "star", "path", "cycle", "turan", "complete_multipartite"],
    )
    def test_huge_declared_order_refused_unallocated(self, capsys, tmp_path, form, order):
        # A dense adjacency matrix of this order does not fit in memory, or
        # takes 100 MB: the header, graph6 size block or spec is refused
        # before any allocation.  A graph6 string carries its full body
        # where that can be held (8.3 MB at 10,001 vertices; 750 GB at
        # 3,000,000), and the refusal neither scans nor decodes it.
        code6 = edgeless_graph6(order, body=order <= ORDER_LIMIT + 1)
        source = tmp_path / "huge.txt"
        if form == "edge-list":
            source.write_text(f"{order} 0\n")
            argv, where = ["rho", "--graph", str(source)], f"{source}: line 1: "
        elif form == "graph6":
            argv, where = ["rho", "--graph6", code6], ""
        elif form == "graph6-file":
            source.write_text(code6 + "\n")
            argv, where = ["rho", "--graph", str(source)], f"{source}: line 1: bad graph6 record: "
        elif form == "graph6-family-file":
            source.write_text("Bw\n" + code6 + "\n")
            argv = ["exfilter", "--family-file", str(source), "--infinity"]
            where = f"{source}: line 2: bad graph6 record: "
        elif form == "compare-graph6":
            argv = ["compare", "--g1", code6, "--g2", "star:3"]
            # An argument over 80 characters is quoted by its head and length.
            quoted = repr(code6)
            if len(code6) > 80:
                quoted = f"{code6[:80]!r}... ({len(code6)} characters)"
            where = f"cannot interpret {quoted} as a file, family spec, or graph6 string: "
        else:
            spec = {
                "turan": f"turan:{order},3",
                "complete_multipartite": f"complete_multipartite:{order - 5},2,3",
            }.get(form, f"{form}:{order}")
            argv, where = ["rho", "--family", spec], f"family {spec!r}: "
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: {where}order {order} is above the limit {ORDER_LIMIT}\n"
        assert peak < (2**26 if "graph6" in form else 2**20)
        assert len(err.encode()) < 1024

    def test_repeated_edge_rejected(self, capsys, tmp_path):
        # The header declares two edges, but the file holds one twice.
        twice = tmp_path / "twice.el"
        twice.write_text("3 2\n0 1\n1 0\n")
        code = main(["walks", "--graph", str(twice), "--depth", "2"])
        assert code == EXIT_USAGE
        assert "line 3: repeated edge" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["walks", "--graph", "{}", "--depth", "2"],
            ["compare", "--g1", "{}", "--g2", "star:3"],
            ["exfilter", "--family-file", "{}", "--infinity"],
        ],
    )
    def test_non_utf8_file_rejected(self, capsys, tmp_path, argv):
        binary = tmp_path / "bin.el"
        binary.write_bytes(b"3 2\n0 1\n1 \xff2\n")
        assert main([a.format(binary) for a in argv]) == EXIT_USAGE
        assert f"error: {binary} is not UTF-8 text" in capsys.readouterr().err

    def test_several_graph6_lines_rejected(self, capsys, tmp_path):
        two = tmp_path / "two.g6"
        two.write_text("Bw\nBo\n")
        assert main(["walks", "--graph", str(two), "--depth", "2"]) == EXIT_USAGE
        assert "2 graph6 lines" in capsys.readouterr().err

    def test_repeated_host_rejected(self, capsys):
        argv = ["solve-series", "--parts", "5,5",
                "--host", "1=star:4", "--host", "1=complete:3"]
        assert main(argv) == EXIT_USAGE
        assert "more than one host" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("solve-series --parts 3,x", "--parts: 'x' is not an integer"),
            ("perron --family star:5 --subset 0,a", "--subset: 'a' is not an integer"),
            ("enumerate --embeddings 10,2", "--embeddings expects n,r,t, got '10,2'"),
            ("enumerate --embeddings 10,2,x", "--embeddings: 'x' is not an integer"),
            ("rho --family turan:7,x", "family 'turan:7,x': 'x' is not an integer"),
        ],
        ids=["parts", "subset", "embeddings-count", "embeddings-integer", "family"],
    )
    def test_integer_list_refused(self, capsys, argv, message):
        code, out, err = run_captured(capsys, argv.split())
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    @pytest.mark.parametrize("length", [80, 81])
    def test_refused_argument_quoted_by_its_head(self, capsys, length):
        # 'x' declares 57 vertices, so neither string is a whole graph6 body.
        arg = "x" * length
        quoted = repr(arg) if length <= 80 else f"{arg[:80]!r}... (81 characters)"
        code, out, err = run_captured(capsys, ["compare", "--g1", arg, "--g2", "star:3"])
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: cannot interpret {quoted} as a file, family spec, ")

    @pytest.mark.parametrize(
        "argv, head, length",
        [
            (["rho", "--family", "complete_multipartite:" + "1," * 20_000],
             "family 'complete_multipartite:1,1,", 40_022),
            (["rho", "--family", "hypercube:" + "1," * 20_000],
             "unknown family 'hypercube:1,", 40_010),
            (["solve-series", "--parts", "1," * 20_000 + "x" * 20_000],
             "--parts: 'xxx", 20_000),
            (["solve-series", "--parts", "3,3", "--host", "x" * 20_000 + "=K3"],
             "--host part index: 'xxx", 20_000),
            (["enumerate", "--embeddings", "1," * 20_000],
             "--embeddings expects n,r,t, got '1,1,", 40_000),
        ],
        ids=["family-order", "family-name", "parts", "host", "embeddings"],
    )
    def test_long_refused_argument_quoted_by_its_head(self, capsys, argv, head, length):
        code, out, err = run_captured(capsys, argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: {head}")
        assert f"... ({length} characters)" in err
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize(
        "text, head, length",
        [
            ("2 1\n0 " + "x" * 20_000 + "\n", "line 2: endpoint: 'xxx", 20_000),
            ("2 1\n" + "0 " * 20_000 + "\n", "line 2: expected 'u v', got '0 0 ", 39_999),
        ],
        ids=["endpoints", "edge-line"],
    )
    def test_long_refused_file_line_quoted_by_its_head(
        self, capsys, tmp_path, text, head, length
    ):
        source = tmp_path / "long.el"
        source.write_text(text)
        code, out, err = run_captured(capsys, ["rho", "--graph", str(source)])
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: {source}: {head}")
        assert f"... ({length} characters)" in err
        assert len(err.encode()) < 1024

    # Each text of integers from outside, with its verdict under the one
    # grammar: surrounding whitespace, an optional '-', ASCII digits.
    INTEGER_TEXTS = {
        "7": "integer",
        " 7 ": "integer",
        "-7": "integer",
        "+7": "not an integer",
        "1_0": "not an integer",
        "\u0663": "not an integer",  # ARABIC-INDIC DIGIT THREE
        "7x": "not an integer",
        "1" * 5000: "too long",
    }
    # Every command-line entry point of integer text; '=' keeps argparse
    # from reading a leading '-' as a flag.
    INTEGER_ARGUMENTS = {
        "--parts": ["solve-series", "--parts=2,{}"],
        "--host": ["solve-series", "--parts=3,3,3,3,3,3,3", "--host={}=complete:3"],
        "family": ["rho", "--family=star:{}"],
        "--embeddings": ["enumerate", "--embeddings={},2,1"],
        "--subset": ["perron", "--family=star:8", "--subset={}"],
        "--depth": ["walks", "--family=star:3", "--depth={}"],
    }
    # Edge-list files: a header, then an endpoint.
    INTEGER_LINES = {"header": "{} 0\n", "endpoint": "8 1\n0 {}\n"}

    @staticmethod
    def integer_verdict(message):
        if "digits is too long" in message:
            return "too long"
        return "not an integer" if "is not an integer" in message else "integer"

    @pytest.mark.parametrize(
        "text",
        list(INTEGER_TEXTS),
        ids=["7", "spaced-7", "minus-7", "plus-7", "underscore", "arabic-indic", "7x", "long"],
    )
    def test_one_integer_grammar_everywhere(self, capsys, tmp_path, text):
        verdicts = {}
        for name, argv in self.INTEGER_ARGUMENTS.items():
            code, out, err = run_captured(capsys, [a.format(text) for a in argv])
            verdicts[name] = self.integer_verdict(err)
            assert len(err.encode()) < 1024
            if verdicts[name] == "integer":
                stripped = [a.format(text.strip()) for a in argv]
                assert (code, out, err) == run_captured(capsys, stripped)
        source = tmp_path / "g.el"
        for name, line in self.INTEGER_LINES.items():
            source.write_text(line.format(text), encoding="utf-8")
            for reader, arg in ((parse_edge_list, line.format(text)), (read_graph, source)):
                try:
                    reader(arg)
                    message = ""
                except FormatError as exc:
                    message = str(exc)
                verdicts[f"{name} through {reader.__name__}"] = self.integer_verdict(message)
                assert len(message.encode()) < 1024
        assert verdicts == dict.fromkeys(verdicts, self.INTEGER_TEXTS[text])

    @pytest.mark.parametrize(
        "argv, tail",
        [
            (["solve-series", "--parts", "3,3", "--host", "1" * 5000 + "=K3"],
             "error: --host part index: an integer of 5000 digits is too long\n"),
            (["rho", "--family", "star:" + "1" * 5000],
             f"error: family {quoted('star:' + '1' * 5000)}: an integer of 5000 digits is too long\n"),
            (["rho", "--graph", "{file}"],
             "error: {file}: line 1: header: an integer of 20000 digits is too long\n"),
            (["verify", "--theorem", "cor-2inf", "--m", "1" * 5000],
             "walkspectra verify: error: argument --m: an integer of 5000 digits is too long\n"),
        ],
        ids=["host", "family", "edge-list-header", "flag"],
    )
    def test_long_integer_named_too_long(self, capsys, tmp_path, argv, tail):
        source = tmp_path / "nines.el"
        source.write_text("1 " + "9" * 20_000 + "\n")
        argv = [a.replace("{file}", str(source)) for a in argv]
        code, out, err = run_captured(capsys, argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith(tail.replace("{file}", str(source)))
        assert len(err.encode()) < 1024

    def test_unknown_family(self, capsys):
        assert main(["walks", "--family", "hypercube:4", "--depth", "2"]) == EXIT_USAGE

    def test_needs_one_graph_option(self, capsys):
        assert main(["walks", "--depth", "2"]) == EXIT_USAGE
        assert (
            main(["walks", "--graph6", "Bw", "--family", "star:3", "--depth", "2"])
            == EXIT_USAGE
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["rho", "--family", "star:3", "--depth", "5"],
            ["walks", "--family", "star:3", "--seed", "1"],
            ["solve-series", "--parts", "2,2", "--seed", "1"],
            ["rho", "--family", "star:5", "--method", "dense", "--tol", "1e-3"],
            ["compare", "--g1", "star:3", "--g2", "complete:3", "--tol", "1"],
            ["walks", "--family", "star:3", "--tol", "1e-3"],
        ],
    )
    def test_options_only_where_read(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: unrecognized arguments: " + " ".join(argv[-2:]) in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            "rho --family star:9 --method power --tol 1e-3",
            "rho --method series --parts 5,5 --host 1=star:4 --tol 1e-3",
            "perron --family star:5 --subset 0 --tol 1e-3",
            "solve-series --parts 10,10 --host 1=star:4 --tol 1e-3",
            "verify --theorem multi-set --parts 5,5 --host 1=star:4 --tol 1e-14",
            "verify --theorem multi-set --sample 2 --seed 1 --tol 1e-14",
        ],
    )
    def test_no_tolerance_flag(self, capsys, argv):
        # Each precision is fixed, so no mode takes --tol.
        code, out, err = run_captured(capsys, argv.split())
        assert code == EXIT_USAGE
        assert out == ""
        assert "--tol" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            ("verify --theorem cor-tnrk --r 2 --k 3 --n 10 --n-min 5", "--n-min"),
            ("verify --theorem cor-tnrk --r 2 --k 3 --n 10 --n-max 12", "--n-max"),
            ("rho --family star:5 --parts 2,2", "--parts"),
            ("rho --method series --parts 2,2 --family star:5", "--family"),
            ("verify --theorem multi-set --sample 2 --parts 2,2", "--parts"),
            ("verify --theorem multi-set --parts 3,3 --seed 4", "--seed"),
            ("verify --theorem lemma-2degree --n 9 --m 3 --r 2", "--r"),
        ],
    )
    def test_unread_flag_rejected(self, capsys, argv, flag):
        assert main(argv.split()) == EXIT_USAGE
        assert flag in capsys.readouterr().err

    def test_unreadable_files_are_usage_errors(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.g6")
        assert main(["exfilter", "--family-file", missing, "--level", "2"]) == EXIT_USAGE
        assert "missing.g6" in capsys.readouterr().err
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["enumerate", "--m-edges", "3", "--cache-dir", str(blocker / "cache")]
        assert main(argv) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_cache_dir_naming_a_file(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["enumerate", "--m-edges", "3", "--cache-dir", str(blocker)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(blocker) in err
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("sample", ["0", "-1"])
    def test_sample_positive(self, capsys, sample):
        argv = ["verify", "--theorem", "multi-set", "--sample", sample]
        assert main(argv) == EXIT_USAGE
        assert "--sample must be at least 1" in capsys.readouterr().err

    ONE_SET = "verify --theorem one-set --s-size 3 --t-size 4 --h1 complete:3 --h2 star:4"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("walks --family star:3 --depth 100000000", "depth must be at most 10000"),
            ("walks --family star:3 --depth 10001 --per-vertex", "depth must be at most 10000"),
            (ONE_SET + " --n-min 7 --n-max 1000000000000",
             "--n-min..--n-max holds more than 10000 values"),
            (ONE_SET + " --n-min 7 --n-max 10007", "--n-min..--n-max holds more than 10000 values"),
            ("verify --theorem cor-tnrk --r 2 --k 4 --n-max 1000000000000",
             "--n-min..--n-max holds more than 10000 values"),
            ("verify --theorem cor-tnrk --r 2 --k 4 --n-min 8 --n-max 10008",
             "--n-min..--n-max holds more than 10000 values"),
        ],
        ids=["depth", "depth-past-limit", "one-set", "one-set-past-limit", "cor-tnrk",
             "cor-tnrk-past-limit"],
    )
    def test_count_limits_refused_before_counting(self, capsys, monkeypatch, argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError("counted past the limit")

        for name in ("walk_totals", "walk_profile", "verify_one_set", "verify_corollary_tnrk"):
            monkeypatch.setattr(cli, name, refuse)
        assert (cli.DEPTH_LIMIT, cli.N_RANGE_LIMIT) == (10_000, 10_000)
        code, out, err = run_captured(capsys, argv.split())
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    def test_count_limits_admit_the_limit(self, capsys):
        assert cli._n_range(7, 10006) == range(7, 10007)
        code, rep = run_json(capsys, ["walks", "--family", "star:3", "--depth", "10000"])
        assert (code, len(rep["totals"])) == (EXIT_OK, 10_000)
        # One large n is one value of n.
        argv = self.ONE_SET.split() + ["--n-min", "1000000000000", "--n-max", "1000000000000"]
        code, rep = run_json(capsys, argv)
        assert code in (EXIT_OK, EXIT_FAIL)
        assert [n for n, _ in rep["details"]["diffs"]] == [10**12]

    @pytest.mark.parametrize(
        "argv, tail",
        [
            (["verify", "--theorem", "x" * 5000], "(5000 characters) (choose from 'lemma-2degree', "),
            (["rho", "--method", "x" * 5000], "(5000 characters) (choose from 'power', "),
            (["rho", "--family", "star:3", "--format", "x" * 5000],
             "(5000 characters) (choose from 'json', "),
            (["walks", "--family", "star:3", "--bogus", "x" * 5000],
             "unrecognized arguments: '--bogus xxx"),
        ],
        ids=["theorem", "method", "format", "unrecognized"],
    )
    def test_long_argparse_refusal_quoted_by_its_head(self, capsys, argv, tail):
        code, out, err = run_captured(capsys, argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert tail in err
        assert len(err.encode()) < 1024

    def test_walk_depth_positive(self, capsys):
        assert main(["walks", "--family", "star:3", "--depth", "0"]) == EXIT_USAGE

    def test_filter_inputs_are_usage_errors(self, capsys, tmp_path):
        assert main(["exfilter", "--m-edges", "3", "--level", "0"]) == EXIT_USAGE
        assert "level must be at least 1" in capsys.readouterr().err
        empty = tmp_path / "empty.g6"
        empty.write_text("")
        assert main(["exfilter", "--family-file", str(empty), "--infinity"]) == EXIT_USAGE
        assert "family must be nonempty" in capsys.readouterr().err

    def test_dense_cap_is_usage_error(self, capsys):
        code = main(["rho", "--family", "complete:70", "--method", "dense"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("order", [10**400, 10**160, 2**53 + 1], ids=["1e400", "1e160", "2^53+1"])
    @pytest.mark.parametrize(
        "argv",
        [
            "verify --theorem cor-tnrk --r 2 --k 3 --n {n}",
            "verify --theorem cor-tnrk --r 2 --k 3 --n-min {n} --n-max {n}",
            "verify --theorem one-set --s-size 1 --t-size 4 --h1 star:4 --h2 complete:3 "
            "--n-min {n} --n-max {n}",
            "solve-series --parts {part},5 --host 2=star:4",
            "rho --method series --parts {part},5 --host 2=star:4",
            "verify --theorem multi-set --parts {part},5 --host 2=star:4",
            "enumerate --embeddings {n},2,1",
        ],
        ids=["cor-tnrk", "cor-tnrk-scan", "one-set", "solve-series", "rho-series",
             "multi-set", "enumerate"],
    )
    def test_order_above_2_53_refused(self, capsys, argv, order):
        # Past 2**53 part sizes are no longer exact floats: such orders once
        # ended in an OverflowError, a nan residual or a false inapplicable.
        code, out, err = run_captured(capsys, argv.format(n=order, part=order - 5).split())
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: order is above 2**53 = 9007199254740992; "
            "part sizes past it are not exact floats\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("verify --theorem one-set --s-size 1 --t-size 1000000 --h1 star:4 --h2 complete:3 "
             "--n-min 2000000 --n-max 2000000",
             f"quotient order s_size + t_size + 1 is above the limit {ORDER_LIMIT}"),
            ("verify --theorem one-set --s-size 5000 --t-size 5000 --h1 star:4 --h2 complete:3 "
             "--n-min 10000 --n-max 10000",
             f"quotient order s_size + t_size + 1 is above the limit {ORDER_LIMIT}"),
            ("verify --theorem cor-tnrk --r 1000000 --k 3 --n 3000000",
             f"1000000 parts are above the order limit {ORDER_LIMIT}"),
            ("verify --theorem cor-tnrk --r 1000000 --k 6 --n-max 6000000",
             f"1000000 parts are above the order limit {ORDER_LIMIT}"),
            ("verify --theorem cor-tnrk --r 9999 --k 3 --n 29997",
             f"quotient of order 10001 is above the limit {ORDER_LIMIT}"),
            ("verify --theorem multi-set --parts " + ",".join(["3"] * 9999) + " --host 1=star:3",
             f"quotient of order 10001 is above the limit {ORDER_LIMIT}"),
        ],
        ids=["one-set", "one-set-at-limit", "cor-tnrk", "cor-tnrk-scan", "cor-tnrk-at-limit",
             "multi-set"],
    )
    def test_quotient_above_order_limit_refused_unallocated(self, capsys, argv, message):
        # A quotient or padded host of more than ORDER_LIMIT vertices is
        # refused before its dense matrix is allocated (931 GiB at 10**6).
        tracemalloc.start()
        try:
            code, out, err = run_captured(capsys, argv.split())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")
        assert peak < 2**24


class TestReadme:
    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_documented_command(self, capsys, readme_dir, monkeypatch, argv):
        # in a fresh working directory that holds the README's edge-list files
        monkeypatch.chdir(readme_dir)
        monkeypatch.delenv("WALKSPECTRA_CACHE", raising=False)
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        json.loads(captured.out)

    def test_named_flags_are_defined(self):
        # The prose and the examples may name only flags the parser defines.
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme_cli_section()))
        parser = cli.build_parser()
        parsers = [parser]
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
        defined = {flag for p in parsers for a in p._actions for flag in a.option_strings}
        assert "--cache-dir" in named
        assert named <= defined, sorted(named - defined)


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        argv = ["verify", "--theorem", "lemma-2degree", "--n", "9", "--m", "3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_float_formatting(self, capsys):
        code, _ = run_json(capsys, ["rho", "--family", "star:4"])
        assert code == EXIT_OK
        main(["rho", "--family", "star:4"])
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if '"rho"' in l)
        # 17 significant digits of sqrt(3)
        assert "1.7320508075688" in line


class TestFormats:
    def test_table(self, capsys):
        code = main(["walks", "--graph6", "Bw", "--depth", "2", "--format", "table"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "totals" in out and "6 12" in out

    def test_csv(self, capsys):
        code = main(["walks", "--graph6", "Bw", "--depth", "2", "--format", "csv"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "key,value"

import json
import os
import shlex
from pathlib import Path

import pytest

from walkspectra import cli, extremal
from walkspectra.cli import (
    EXIT_FAIL,
    EXIT_INAPPLICABLE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


@pytest.fixture
def k3_file(tmp_path):
    p = tmp_path / "k3.el"
    p.write_text("3 3\n0 1\n1 2\n0 2\n")
    return str(p)


@pytest.fixture
def s3_file(tmp_path):
    p = tmp_path / "s3.el"
    p.write_text("4 3\n0 1\n0 2\n0 3\n")
    return str(p)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def readme_commands():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.strip()]


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
        real = extremal.read_graph6
        monkeypatch.setattr(extremal, "read_graph6", lambda path: reads.append(path) or real(path))
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == cold
        assert {os.path.basename(p) for p in reads} == files

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
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    # A flag argparse rejects, a flag the mode does not read, missing flags,
    # then a valid command.
    SEQUENCE = [
        "rho --family star:3 --depth 5",
        "walks --family star:3 --tol 1e-3",
        "verify --theorem lemma-2degree",
        "walks --graph6 Bw --depth 3",
    ]

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

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
        ],
    )
    def test_options_only_where_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, flag",
        [
            ("verify --theorem cor-tnrk --r 2 --k 3 --n 10 --n-min 5", "--n-min"),
            ("verify --theorem cor-tnrk --r 2 --k 3 --n 10 --n-max 12", "--n-max"),
            ("rho --family star:5 --parts 2,2", "--parts"),
            ("rho --method series --parts 2,2 --family star:5", "--family"),
            ("rho --family star:5 --method dense --tol 1e-3", "--tol"),
            ("verify --theorem multi-set --sample 2 --parts 2,2", "--parts"),
            ("verify --theorem multi-set --parts 3,3 --seed 4", "--seed"),
            ("verify --theorem lemma-2degree --n 9 --m 3 --r 2", "--r"),
            ("compare --g1 star:3 --g2 complete:3 --tol 1", "--tol"),
            ("walks --family star:3 --tol 1e-3", "--tol"),
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

    @pytest.mark.parametrize("sample", ["0", "-1"])
    def test_sample_positive(self, capsys, sample):
        argv = ["verify", "--theorem", "multi-set", "--sample", sample]
        assert main(argv) == EXIT_USAGE
        assert "--sample must be at least 1" in capsys.readouterr().err

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


class TestReadme:
    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_documented_command(self, capsys, tmp_path, monkeypatch, argv):
        # the README's edge-list examples, in a fresh working directory
        (tmp_path / "k3.el").write_text("3 3\n0 1\n1 2\n0 2\n")
        (tmp_path / "s3.el").write_text("4 3\n0 1\n0 2\n0 3\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("WALKSPECTRA_CACHE", raising=False)
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        json.loads(captured.out)


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

"""CLI contract: subcommands, formats, and the exit-code table."""

import csv
import hashlib
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import tridecomp
from tridecomp import cli
from tridecomp.cli import main
from tridecomp.errors import EdgeInNoTriangleError, EmptyGraphError, UnknownTriangleError
from tridecomp.graph import enumerate_rooted_k4_links
from tridecomp.instances import GenSpec, generate, write_edge_list
from tridecomp.peeling import peel_heavy_triangles

from conftest import complete_minus_edge, complete_graph


K4_HALVES = "0 1 2 1/2\n0 1 3 1/2\n0 2 3 1/2\n1 2 3 1/2\n"

# The start of an executable: bytes 0x80-0xff alone are never valid UTF-8.
NOT_UTF8 = b"\x7fELF\x02\x01\x01\x00" + bytes(range(0x80, 0x100))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_complete_7(self, capsys):
        code, out, err = run(capsys, "decompose", "--gen", "complete", "--n", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# triangles=35 total=7"
        assert len(lines) == 36
        assert all(line.endswith("1/5") for line in lines[1:])
        assert "verified" in err

    def test_hamilton_complement(self, capsys, tmp_path):
        out_path = tmp_path / "d.txt"
        code, _, err = run(
            capsys,
            "decompose",
            "--gen",
            "complete-minus-hamilton",
            "--n",
            "20",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert out_path.exists()
        assert "verified" in err

    def test_k5_minus_edge_cut_exit_2(self, capsys, tmp_path):
        graph_path = tmp_path / "g.el"
        graph_path.write_text(write_edge_list(complete_minus_edge(5, (3, 4))))
        code, out, _ = run(capsys, "decompose", "--input", str(graph_path))
        assert code == 2
        assert out.startswith("# INFEASIBLE-BY-FLOW M=6/7 cut=")

    def test_fallback_lp_rescues(self, capsys, tmp_path):
        graph_path = tmp_path / "g.el"
        graph_path.write_text(write_edge_list(complete_minus_edge(5, (3, 4))))
        code, out, _ = run(
            capsys, "decompose", "--input", str(graph_path), "--fallback-lp"
        )
        assert code == 0
        assert out.startswith("# triangles=")

    def test_missing_input_exit_3(self, capsys):
        code, _, err = run(capsys, "decompose", "--input", "/nonexistent/g.el")
        assert code == 3
        assert "input error" in err

    def test_non_utf8_input_exit_3(self, capsys, tmp_path):
        graph_path = tmp_path / "g.el"
        graph_path.write_bytes(NOT_UTF8)
        code, out, err = run(capsys, "decompose", "--input", str(graph_path))
        assert code == 3
        assert out == ""
        assert err.startswith(f"input error: cannot read {graph_path}:")

    @pytest.mark.parametrize("flag", ["--max-links", "--max-lp-triangles"])
    def test_negative_cap_exit_3(self, capsys, flag):
        code, out, err = run(capsys, "decompose", "--gen", "complete", "--n", "8", flag, "-1")
        assert code == 3
        assert out == ""
        assert err == f"input error: {flag} must be at least 0, got -1\n"

    def test_zero_max_links_is_a_guardrail(self, capsys):
        code, _, err = run(capsys, "decompose", "--gen", "complete", "--n", "8", "--max-links", "0")
        assert code == 4
        assert err.startswith("guardrail:")

    def test_gen_and_input_conflict(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "decompose", "--input", "x", "--gen", "complete", "--n", "5"
        )
        assert code == 3

    def test_guardrail_exit_4(self, capsys):
        code, _, err = run(
            capsys,
            "decompose",
            "--gen",
            "complete",
            "--n",
            "8",
            "--max-links",
            "3",
        )
        assert code == 4
        assert "guardrail" in err

    def test_link_cap_below_count_exit_4(self, capsys):
        # The residual of K13 minus a Hamilton cycle (nothing is peeled) has
        # 546 links.
        g = generate(GenSpec("complete-minus-hamilton", 13))
        assert peel_heavy_triangles(g).removed == []
        assert len(enumerate_rooted_k4_links(g)) == 546
        argv = ("decompose", "--gen", "complete-minus-hamilton", "--n", "13", "--max-links")
        code, out, err = run(capsys, *argv, "545")
        assert (code, out) == (4, "")
        assert err == "guardrail: rooted-K4 link count exceeds the cap of 545\n"
        code, out, _ = run(capsys, *argv, "546")
        assert code == 0 and out.startswith("# triangles=156")

    def test_huge_vertex_count_exit_4(self, capsys, tmp_path):
        # A header alone: the size guardrail must fire before any n x n array.
        graph_path = tmp_path / "g.el"
        graph_path.write_text("200000 0\n")
        code, _, err = run(capsys, "decompose", "--input", str(graph_path))
        assert code == 4
        assert "guardrail" in err
        assert "200000 vertices" in err

    @pytest.mark.parametrize(
        "error, code, prefix",
        [
            (UnknownTriangleError("transfer references a missing triangle"), 1, "internal error:"),
            (EmptyGraphError("no edges"), 1, "internal error:"),
            (EdgeInNoTriangleError(0, (0, 1)), 2, "infeasible:"),
        ],
    )
    def test_library_error_exit_codes(self, capsys, monkeypatch, error, code, prefix):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "decompose", fail)
        got, _, err = run(capsys, "decompose", "--gen", "complete", "--n", "5")
        assert got == code
        assert err.startswith(prefix)

    def test_float_mode(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--gen", "complete", "--n", "6", "--mode", "float"
        )
        assert code == 0
        assert out.startswith("# triangles=20")

    def test_regime_warning_is_one_line(self, capsys):
        # K13 minus a Hamilton cycle has deficiency 3/13, outside the regime.
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            code, _, err = run(capsys, "decompose", "--gen", "complete-minus-hamilton", "--n", "13")
        assert code == 0
        assert err.splitlines() == [
            "warning: deficiency 3/13 is at or above 1/10: outside the regime where the "
            "flow method is guaranteed",
            "verified: PASS: worst edge deviation 0, 0 negative weights, 0 invalid triangles",
        ]

    @pytest.mark.parametrize("argv", [("decompose", "--gen"), ("gen", "--family")])
    def test_huge_fraction_exponent_refused(self, capsys, argv):
        # Refused like any other non-fraction, without building 10**99999999.
        for value in ("abc", "1e99999999"):
            start = time.perf_counter()
            with pytest.raises(SystemExit) as exc:
                main([*argv, "random-min-degree", "--n", "10", "--fraction", value])
            assert time.perf_counter() - start < 1
            assert exc.value.code == 3
            err = capsys.readouterr().err
            assert err.startswith("input error: ")
            assert f"not a fraction: {value!r}" in err


class TestGoldenOutput:
    """`decompose` and `oracle` stdout, pinned byte for byte by its sha256."""

    @pytest.mark.parametrize(
        "argv, code, first_line, digest",
        [
            (
                ("decompose", "--gen", "complete-minus-hamilton", "--n", "13"),
                0,
                "# triangles=156 total=65/3",
                "2ce323029ae0423466bc4a30fd99c07443bee037355e27cc12ad1310d8c3042c",
            ),
            (
                ("decompose", "--gen", "random-min-degree", "--n", "14", "--fraction", "4/5", "--seed", "0"),
                0,
                "# triangles=280 total=28",
                "24f7fe6ade6e340043d7ab9da433467a0b33bd64d56211af8787af179fd67c9f",
            ),
            (
                ("decompose", "--gen", "random-min-degree", "--n", "14", "--fraction", "7/10", "--seed", "0"),
                2,
                "# INFEASIBLE-BY-FLOW M=45/16 cut=14639/7200",
                "2aae2c1335aa22c237b112f226b53626474cb6941c7925c115b5cf7f0f2acbd1",
            ),
            (
                # Correctly rounded weights; the total is their left-to-right
                # float sum.
                ("decompose", "--gen", "complete-minus-hamilton", "--n", "13", "--mode", "float"),
                0,
                "# triangles=156 total=21.6666666666667",
                "27c11f9e6b0970f08e31f166573c9be12edbae15a190db500c2941c39f64f9d5",
            ),
            (
                ("oracle", "--gen", "random-min-degree", "--n", "14", "--fraction", "4/5", "--seed", "0"),
                0,
                "# triangles=280 total=28",
                "f9c85dbfbe5abd1421718049fd1f638906670b75e4b2d73e983279cc6678cfeb",
            ),
            (
                ("oracle", "--gen", "random-min-degree", "--n", "14", "--fraction", "7/10", "--seed", "0"),
                0,
                "# triangles=160 total=71/3",
                "504f987135ae6a46fec181875ac1df804de71a479bd72279cec230d05a469a61",
            ),
            (
                # The flow returns a cut here, so the fallback prints the
                # oracle's witness.
                (
                    "decompose", "--gen", "random-min-degree", "--n", "14", "--fraction", "7/10",
                    "--seed", "0", "--fallback-lp",
                ),
                0,
                "# triangles=160 total=71/3",
                "504f987135ae6a46fec181875ac1df804de71a479bd72279cec230d05a469a61",
            ),
            (
                # The oracle's witness is read out in the requested mode too.
                (
                    "decompose", "--gen", "random-min-degree", "--n", "14", "--fraction", "7/10",
                    "--seed", "0", "--mode", "float", "--fallback-lp",
                ),
                0,
                "# triangles=160 total=23.666666666666668",
                "655ab265a999bcfcb21e9dbc205335dfbe2ce3608e230371ac739b1e740cb611",
            ),
        ],
    )
    def test_stdout_digest(self, capsys, argv, code, first_line, digest):
        got, out, _ = run(capsys, *argv)
        assert got == code
        assert out.splitlines()[0] == first_line
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_saturating_instance_transfers(self, capsys):
        # The first entry differs from the uniform weight 65/(3*156) = 5/36,
        # so the n=13 instance runs the transfer stage.
        _, out, _ = run(capsys, "decompose", "--gen", "complete-minus-hamilton", "--n", "13")
        assert out.splitlines()[1] == "0 2 4 5/54"


class TestVerifyCommand:
    def test_valid_pair(self, capsys, tmp_path):
        graph_path = tmp_path / "g.el"
        decomp_path = tmp_path / "d.txt"
        graph_path.write_text(write_edge_list(complete_graph(7)))
        run(
            capsys,
            "decompose",
            "--gen",
            "complete",
            "--n",
            "7",
            "--out",
            str(decomp_path),
        )
        code, out, _ = run(capsys, "verify", str(graph_path), str(decomp_path))
        assert code == 0
        assert "PASS" in out

    def test_invalid_pair(self, capsys, tmp_path):
        graph_path = tmp_path / "g.el"
        decomp_path = tmp_path / "d.txt"
        graph_path.write_text(write_edge_list(complete_graph(4)))
        decomp_path.write_text("0 1 2 1/3\n0 1 3 1/3\n0 2 3 1/3\n1 2 3 1/3\n")
        code, out, _ = run(capsys, "verify", str(graph_path), str(decomp_path))
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize(
        "line",
        ["0 1 99999999999999999999999 0", "-1 1 2 0", "0 1 2 0"],
    )
    def test_out_of_range_vertices_are_invalid(self, capsys, tmp_path, line):
        # Ids outside [0, n), even beyond int64, count as invalid triangles;
        # "0 1 2 0" is a valid triangle with a zero weight, so it passes.
        graph_path = tmp_path / "g.el"
        decomp_path = tmp_path / "d.txt"
        graph_path.write_text(write_edge_list(complete_graph(4)))
        decomp_path.write_text(K4_HALVES + line + "\n")
        for mode in ("exact", "float"):
            code, out, _ = run(capsys, "verify", str(graph_path), str(decomp_path), "--mode", mode)
            if line == "0 1 2 0":
                assert (code, out.split(":")[0]) == (0, "PASS")
            else:
                assert code == 1
                assert out.startswith("FAIL: worst edge deviation 0")
                assert out.endswith(", 0 negative weights, 1 invalid triangles\n")

    def test_float_mode_weight_beyond_float_range(self, capsys, tmp_path):
        graph_path = tmp_path / "g.el"
        decomp_path = tmp_path / "d.txt"
        graph_path.write_text(write_edge_list(complete_graph(4)))
        decomp_path.write_text(K4_HALVES + "0 1 2 1e400\n")
        code, out, _ = run(capsys, "verify", str(graph_path), str(decomp_path), "--mode", "float")
        assert code == 1
        assert out == "FAIL: worst edge deviation inf, 0 negative weights, 0 invalid triangles\n"

    def test_float_mode_passes_within_tolerance(self, capsys, tmp_path):
        # Each edge of K4 lies in two triangles, so every edge sum is off by
        # exactly 2e-10 from 1: inside the 1e-9 float tolerance, a failure in
        # exact mode.
        graph_path = tmp_path / "g.el"
        decomp_path = tmp_path / "d.txt"
        graph_path.write_text(write_edge_list(complete_graph(4)))
        decomp_path.write_text(K4_HALVES.replace("1/2", "0.5000000001"))
        code, out, _ = run(capsys, "verify", str(graph_path), str(decomp_path), "--mode", "float")
        assert (code, out.split(":")[0]) == (0, "PASS")
        code, out, _ = run(capsys, "verify", str(graph_path), str(decomp_path))
        assert code == 1
        assert out == "FAIL: worst edge deviation 1/5000000000, 0 negative weights, 0 invalid triangles\n"

    @pytest.mark.parametrize("binary", ["graph", "decomposition"])
    def test_non_utf8_file_exit_3(self, capsys, tmp_path, binary):
        paths = {"graph": tmp_path / "g.el", "decomposition": tmp_path / "d.txt"}
        paths["graph"].write_text(write_edge_list(complete_graph(4)))
        paths["decomposition"].write_text(K4_HALVES)
        paths[binary].write_bytes(NOT_UTF8)
        code, out, err = run(capsys, "verify", str(paths["graph"]), str(paths["decomposition"]))
        assert code == 3
        assert out == ""
        assert err.startswith(f"input error: cannot read {paths[binary]}:")

    def test_malformed_decomposition(self, capsys, tmp_path):
        graph_path = tmp_path / "g.el"
        decomp_path = tmp_path / "d.txt"
        graph_path.write_text(write_edge_list(complete_graph(4)))
        decomp_path.write_text("0 1 nope\n")
        code, _, _ = run(capsys, "verify", str(graph_path), str(decomp_path))
        assert code == 3

    def test_huge_exponent_exit_3(self, capsys, tmp_path):
        # Expanding 1e99999999 would take minutes; the parser refuses it.
        graph_path = tmp_path / "g.el"
        decomp_path = tmp_path / "d.txt"
        graph_path.write_text(write_edge_list(complete_graph(4)))
        decomp_path.write_text("0 1 2 1e99999999\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", str(graph_path), str(decomp_path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err.startswith("input error: line 1: exponent of '1e99999999' exceeds 4300")


class TestOracle:
    def test_feasible(self, capsys):
        code, out, _ = run(capsys, "oracle", "--gen", "complete", "--n", "5")
        assert code == 0
        assert out.startswith("# triangles=10")

    def test_triangle_free_infeasible(self, capsys, tmp_path):
        graph_path = tmp_path / "g.el"
        graph_path.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
        code, out, _ = run(capsys, "oracle", "--input", str(graph_path))
        assert code == 2
        assert out.strip() == "INFEASIBLE"

    def test_guardrail(self, capsys):
        code, _, _ = run(
            capsys, "oracle", "--gen", "complete", "--n", "8", "--max-lp-triangles", "5"
        )
        assert code == 4

    def test_zero_cap_is_a_guardrail(self, capsys):
        code, _, err = run(
            capsys, "oracle", "--gen", "complete", "--n", "4", "--max-lp-triangles", "0"
        )
        assert code == 4
        assert err == "guardrail: LP has 4 triangle variables, above the cap of 0\n"

    def test_negative_cap_exit_3(self, capsys, tmp_path):
        graph_path = tmp_path / "k4.el"
        graph_path.write_text(write_edge_list(complete_graph(4)))
        code, out, err = run(
            capsys, "oracle", "--input", str(graph_path), "--max-lp-triangles", "-1"
        )
        assert code == 3
        assert out == ""
        assert err == "input error: --max-lp-triangles must be at least 0, got -1\n"

    def test_non_utf8_input_exit_3(self, capsys, tmp_path):
        graph_path = tmp_path / "g.el"
        graph_path.write_bytes(NOT_UTF8)
        code, _, err = run(capsys, "oracle", "--input", str(graph_path))
        assert code == 3
        assert err.startswith(f"input error: cannot read {graph_path}:")


class TestGen:
    def test_deterministic(self, capsys):
        argv = [
            "gen",
            "--family",
            "random-min-degree",
            "--n",
            "40",
            "--fraction",
            "19/20",
            "--seed",
            "7",
        ]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        header = first.splitlines()[0].split()
        assert header[0] == "40"

    def test_multipartite(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "complete-multipartite", "--parts", "2,2,2")
        assert code == 0
        assert out.splitlines()[0] == "6 12"

    def test_bad_family(self, capsys):
        code, _, _ = run(capsys, "gen", "--family", "mystery", "--n", "4")
        assert code == 3

    def test_huge_vertex_count_exit_4(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "complete", "--n", "200000")
        assert code == 4
        assert "guardrail" in err

    def test_unwritable_out_exit_3(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code, _, err = run(capsys, "gen", "--family", "complete", "--n", "5", "--out", str(target))
        assert code == 3
        assert err.startswith("input error:")


class TestScan:
    def test_empty_grid(self, capsys):
        code, out, _ = run(capsys, "scan", "--n", "10", "--fractions", "")
        assert code == 0
        assert out.strip() == "fraction,n,seed,flow_ok,lp_ok,peeled,M,value"

    def test_small_scan(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, _, err = run(
            capsys,
            "scan",
            "--n",
            "9",
            "--fractions",
            "1,3/4",
            "--samples",
            "3",
            "--seed",
            "5",
            "--out",
            str(out_path),
        )
        assert code == 0
        with open(out_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        # fraction 1 means complete graphs: flow always succeeds with M = 0.
        for row in rows[:3]:
            assert row["flow_ok"] == "1"
            assert row["M"] == "0"
            assert row["lp_ok"] == "1"
        assert "fraction 1: 3/3 flow successes" in err

    def test_rows_deterministic(self, capsys):
        argv = ["scan", "--n", "8", "--fractions", "3/4", "--samples", "2"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            ("--n", "0", "--fractions", "9/10"),
            ("--n", "12", "--fractions", "2"),
            ("--n", "12", "--fractions", "9/10", "--samples", "-1"),
            ("--n", "12", "--fractions", "9/10", "--samples", "0"),
            ("--n", "12", "--fractions", "9/10", "--max-links", "-1"),
            ("--n", "12", "--fractions", "9/10", "--max-lp-triangles", "-1"),
        ],
    )
    def test_bad_input_exit_3(self, capsys, argv):
        code, out, err = run(capsys, "scan", *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("input error:")

    def test_no_mode_option(self, capsys):
        # The scan's result is always exact; --mode changed no byte of it.
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--n", "8", "--fractions", "1", "--mode", "float"])
        assert exc.value.code == 3
        assert "unrecognized arguments: --mode float" in capsys.readouterr().err

    def test_unwritable_out_exit_3(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, _, err = run(
            capsys, "scan", "--n", "8", "--fractions", "1", "--samples", "1", "--out", str(target)
        )
        assert code == 3
        assert err.startswith("input error:")

    def test_unwritable_out_fails_before_any_trial(self, capsys, monkeypatch, tmp_path):
        def trial(*args, **kwargs):
            raise AssertionError("a trial ran before --out was opened")

        monkeypatch.setattr(cli, "_scan_one", trial)
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(
            capsys, "scan", "--n", "30", "--fractions", "9/10", "--samples", "2", "--out", str(target)
        )
        assert code == 3
        assert out == ""
        assert err.startswith("input error: cannot write")


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--family", "complete", "--n", "5", "--fraction", "abc"),
            ("gen", "--family", "complete", "--bogus"),
            ("oracle", "--gen", "complete", "--n", "x"),
            ("nosuch",),
            (),
        ],
    )
    def test_refusal_exit_3(self, capsys, argv):
        # Exit 2 means infeasible, so argparse's refusals exit 3 like any
        # other input error.
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")

    def test_refusal_exit_3_from_the_shell(self):
        src = str(Path(tridecomp.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "tridecomp.cli", "gen", "--family", "complete", "--n", "5",
             "--fraction", "abc"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("input error: argument --fraction: not a fraction: 'abc'")

    @pytest.mark.parametrize("argv", [("--help",), ("oracle", "--help")])
    def test_help_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tridecomp")

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_successive_calls_do_not_leak(self, capsys, tmp_path):
        target = tmp_path / "g.el"
        assert main(
            ["gen", "--family", "complete-multipartite", "--parts", "2,2,2", "--out", str(target)]
        ) == 0
        written = target.read_text()
        code, out, _ = run(capsys, "gen", "--family", "complete", "--n", "5")
        assert code == 0
        assert out.splitlines()[0] == "5 10"
        assert target.read_text() == written
        code, out, _ = run(capsys, "decompose", "--gen", "complete", "--n", "7", "--mode", "float")
        assert code == 0 and out.splitlines()[1] == "0 1 2 0.2"
        code, out, _ = run(capsys, "decompose", "--gen", "complete", "--n", "7")
        assert code == 0 and out.splitlines()[1] == "0 1 2 1/5"


def test_oracle_does_not_load_scipy():
    # scipy.sparse alone adds about 20 MB to the process; the oracle needs
    # only numpy.
    src = str(Path(tridecomp.__file__).resolve().parents[1])
    code = (
        "import os, sys, tridecomp.cli; "
        "code = tridecomp.cli.main(['oracle', '--gen', 'random-min-degree', '--n', '14', "
        "'--fraction', '4/5', '--out', os.devnull]); "
        "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "0 []"


def test_cli_import_does_not_load_scipy():
    # max_flow imports scipy on its first call, so start-up does not pay for it.
    src = str(Path(tridecomp.__file__).resolve().parents[1])
    code = (
        "import sys, tridecomp.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"

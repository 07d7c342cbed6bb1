"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q pipebench

The smoke test runs every workload for one op in each mode (about half a
minute) and checks the emitted metric names and units against BENCHMARK.json.
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

from check import check_cut_certificate, check_output, highs_feasible
from tracing import Tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
K4_HALVES = "# triangles=4 total=2\n0 1 2 1/2\n0 1 3 1/2\n0 2 3 1/2\n1 2 3 1/2\n"


def test_checker_accepts_correct_outputs():
    assert check_output("decompose", 0, K4, K4_HALVES) is None
    assert check_output("oracle", 0, K4, K4_HALVES, lp_verdict=True) is None
    assert check_output("oracle", 2, K4, "INFEASIBLE\n", lp_verdict=False) is None
    assert check_output("decompose", 2, K4, "# INFEASIBLE-BY-FLOW M=3/2 cut=1\n0\n4\n") is None


def test_checker_flags_changed_weight_and_flipped_verdict():
    changed = K4_HALVES.replace("0 2 3 1/2", "0 2 3 1/3")
    assert check_output("decompose", 0, K4, changed) is not None
    assert check_output("decompose", 0, K4, K4_HALVES.replace("1/2\n1 2", "-1/2\n1 2")) is not None
    assert check_output("oracle", 2, K4, "INFEASIBLE\n", lp_verdict=True) is not None
    assert check_output("oracle", 0, K4, K4_HALVES, lp_verdict=False) is not None
    assert check_output("decompose", 1, K4, K4_HALVES) is not None


def test_checker_flags_bad_cut_certificates():
    assert check_cut_certificate(K4, "# INFEASIBLE-BY-FLOW M=1 cut=1\n0\n") is not None
    assert check_cut_certificate(K4, "# INFEASIBLE-BY-FLOW M=2 cut=1\n6\n") is not None
    assert check_cut_certificate(K4, "M=2 cut=1\n0\n") is not None


def test_highs_verdicts():
    assert highs_feasible(4, K4) is True
    # K4 minus an edge: the two remaining triangles cannot both cover edge (0, 1).
    assert highs_feasible(4, [p for p in K4 if p != (2, 3)]) is False


def test_tracer_reports_missing_names_as_absent(monkeypatch):
    def decompose(g):
        return fake_cli.read_edge_list(g)

    fake_cli = types.SimpleNamespace(read_edge_list=lambda text: text, decompose=decompose)
    monkeypatch.setitem(sys.modules, "tridecomp.cli", fake_cli)
    for name in ("tridecomp.decompose", "tridecomp.kernels", "tridecomp.lp"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tracer = Tracer()
    tracer.install()
    try:
        assert fake_cli.decompose("x") == "x"
    finally:
        tracer.uninstall()
    assert fake_cli.decompose is decompose
    assert "tridecomp.cli.verify" in tracer.absent
    absent = tracer.absent_metrics()
    assert "kernels.dinic_s" in absent and "lp.t" in absent
    assert "instances.read_s" not in absent and "decompose.cuts" not in absent
    inner = tracer.self_s["instances.read_edge_list"]
    assert inner > 0 and tracer.self_s["decompose.decompose"] > 0
    assert tracer.root_s == pytest.approx(inner + tracer.self_s["decompose.decompose"])
    assert tracer.take_counts() == {"decompose.cuts": 0}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_one_op(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.splitlines()
    detail, result = json.loads(lines[0]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + trace
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in expected}
    assert detail["absent_sites"] == detail["absent_metrics"] == []

"""The benchmark ladders still run against the package. Each reaches into its
internals: `flow_ladder.py` wraps `decompose.max_flow` and reads the arc
network, `lp_ladder.py` finds a line of `lp._float_basis` by its text. A
refactor that moves either breaks the script, and only these tests notice."""

import importlib.util
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_flow_ladder_instance():
    script = BENCHMARKS / "flow_ladder.py"
    argv = [sys.executable, str(script), "complete-minus-hamilton", "13", "-"]
    record = json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)
    assert record["outcome"] == "saturates"
    assert record["slots"] > 0 and record["capacity_dtype"] == "int32"
    stages = ["build_network_s", "to_arc_network_s", "max_flow_s", "apply_transfer_s", "solve_s"]
    assert all(record[stage] is not None for stage in stages), record


def test_lp_ladder_rows():
    spec = importlib.util.spec_from_file_location("lp_ladder", BENCHMARKS / "lp_ladder.py")
    lp_ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lp_ladder)
    feasible = lp_ladder.run(14, Fraction(4, 5), 0)
    assert feasible["verdict"] == "FEASIBLE" and feasible["fallback"] is False
    assert feasible["pivots"] > 0 and feasible["lp_feasible_s"] is not None
    # The C4 blow-up on 12 vertices.
    infeasible = lp_ladder.run(12, None, None)
    assert infeasible["verdict"] == "INFEASIBLE" and infeasible["support"] is None

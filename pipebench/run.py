#!/usr/bin/env python3
"""Pipeline benchmark: CLI commands run in-process by one closed-loop client.

    python3 pipebench/run.py --workload flow-dense --seed 1 --seconds 30 --trace 0

Each run is one process. Set-up generates the workload's edge-list files from
the seed. The measured phase then sends `tridecomp.cli.main` one command at a
time until `--seconds` have passed, and every output is checked afterwards by
the benchmark's own checker. `--trace 0` reports the end-to-end metrics of an
untraced run; `--trace 1` runs each op untraced and then traced, and reports
per-layer self times and counts per op plus the tracing overhead. The last
line of standard output is one JSON object with the metrics. See README.md.
"""

import os

# One client on a small machine: keep numeric libraries single-threaded.
# Set before numpy is imported, here or in a set-up probe.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from check import check_output, highs_feasible
from tracing import COUNT_METRICS, SPAN_METRICS, Tracer
from workloads import WORKLOADS, make_instances

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "cpu_per_op_s": "s",
    "peak_rss_mb": "MB",
    "ok_ops_frac": "ratio",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in SPAN_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "maxflow.denominator_bits": "bits",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def import_cli():
    """Import the CLI from this checkout's source tree, never from elsewhere."""
    if not (SRC / "tridecomp" / "__init__.py").is_file():
        raise SystemExit(f"run.py: package source {SRC / 'tridecomp'} not found")
    sys.path.insert(0, str(SRC))
    from tridecomp import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"run.py: imported tridecomp from {cli.__file__}, not {SRC}")
    regime = getattr(sys.modules.get("tridecomp.errors"), "RegimeWarning", UserWarning)
    # Every instance here lies outside the d < 1/10 regime on purpose.
    warnings.simplefilter("ignore", regime)
    return cli


def program_fingerprint():
    digest = hashlib.sha256()
    for path in sorted((SRC / "tridecomp").rglob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def measure_setup(args, work):
    """Median over fresh processes of start to inputs written and CLI imported."""
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [
            sys.executable, str(Path(__file__)), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe", str(work / f"setup-{i}"),
        ]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"run.py: set-up probe {i} failed")
        times.append(ready)
    return statistics.median(times)


@dataclass
class OpRecord:
    instance: object
    out_path: Path
    seconds: float
    exit_code: int | None
    error: str | None
    traced: bool = False
    counts: dict = field(default_factory=dict)
    out_lines: int | None = None


def run_op(cli, inst, out_path):
    argv = [inst.command, "--input", str(inst.path), "--out", str(out_path)]
    captured = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(captured):
            code = cli.main(argv)
        error = None
    except (Exception, SystemExit) as exc:  # SystemExit: argparse refused the argv
        code, error = None, f"raised {exc!r}; stderr: {captured.getvalue()[-300:]!r}"
    return OpRecord(inst, out_path, time.perf_counter() - start, code, error)


def measure(cli, instances, seconds, work, tracer):
    """Closed loop over the instances until `seconds` pass; with a tracer, each
    instance runs untraced and then traced."""
    records = []
    cpu_start = time.process_time()
    start = time.perf_counter()
    step = 0
    while True:
        inst = instances[step % len(instances)]
        records.append(run_op(cli, inst, work / f"out-{len(records)}.txt"))
        if tracer is not None:
            tracer.install()
            try:
                rec = run_op(cli, inst, work / f"out-{len(records)}.txt")
            finally:
                tracer.uninstall()
            rec.traced, rec.counts = True, tracer.take_counts()
            records.append(rec)
        step += 1
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return records, wall, cpu, rss_mb


def check_records(records):
    """Independent output check of every op; records each output's line count
    and returns one message per failed op."""
    verdicts = {}
    failures = []
    for rec in records:
        inst = rec.instance
        problem = rec.error
        if problem is None:
            try:
                text = rec.out_path.read_text()
            except OSError as exc:
                text, problem = None, f"no output: {exc!r}"
        if problem is None:
            rec.out_lines = len(text.splitlines())
            try:
                if inst.command == "oracle" and inst.digest not in verdicts:
                    verdicts[inst.digest] = highs_feasible(inst.n, inst.pairs)
                problem = check_output(
                    inst.command, rec.exit_code, inst.pairs, text, verdicts.get(inst.digest)
                )
            except RuntimeError as exc:
                problem = f"check could not run: {exc!r}"
        if problem is not None:
            failures.append(f"{inst.label}: {problem}")
    return failures


def observations(rec):
    obs = {"exit": rec.exit_code, "out_lines": rec.out_lines}
    obs.update(rec.counts)
    return obs


def compare_counts(workload, records):
    """Exact counts must repeat for the same input: within this run, and
    against earlier runs of the same program recorded in .state/."""
    store_path = HERE / ".state" / "counts.json"
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    prefix = f"{program_fingerprint()}/{workload}/"
    mismatches = []
    for rec in records:
        if rec.out_lines is None:
            continue
        key = prefix + rec.instance.digest
        seen = store.setdefault(key, {})
        for name, value in observations(rec).items():
            if seen.setdefault(name, value) != value:
                mismatches.append(f"{rec.instance.label}: {name} {value} != earlier {seen[name]}")
    store_path.parent.mkdir(exist_ok=True)
    tmp = store_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, sort_keys=True))
    os.replace(tmp, store_path)
    return mismatches


def end_to_end_metrics(records, wall, cpu, rss_mb, setup_s, failed):
    ops = len(records)
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(r.seconds for r in records),
        "ops_per_s": ops / wall,
        "cpu_per_op_s": cpu / ops,
        "peak_rss_mb": rss_mb,
        "ok_ops_frac": (ops - failed) / ops,
    }


def per_layer_metrics(records, tracer):
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    n = len(traced)
    metrics = {}
    for name, span in SPAN_METRICS.items():
        metrics[name] = tracer.self_s.get(span, 0.0) / n
    for name in COUNT_METRICS:
        metrics[name] = sum(r.counts.get(name, 0) for r in traced) / n
    traced_s = sum(r.seconds for r in traced)
    metrics["trace.coverage"] = tracer.root_s / traced_s
    metrics["trace.overhead_s"] = statistics.median(r.seconds for r in traced) - statistics.median(
        r.seconds for r in plain
    )
    return metrics


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    cli = import_cli()
    if args.setup_probe:
        make_instances(args.workload, args.seed, args.setup_probe)
        print("ready", flush=True)
        return 0

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = None if args.trace else measure_setup(args, work)
        instances = make_instances(args.workload, args.seed, work / "inputs")
        tracer = Tracer() if args.trace else None
        records, wall, cpu, rss_mb = measure(cli, instances, args.seconds, work, tracer)
        failures = check_records(records)
        mismatches = compare_counts(args.workload, records)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / ".work").rmdir()

    if tracer is None:
        metrics = end_to_end_metrics(records, wall, cpu, rss_mb, setup_s, len(failures))
        units = END_TO_END_UNITS
    else:
        metrics = per_layer_metrics(records, tracer)
        units = PER_LAYER_UNITS
    per_instance = {}
    for rec in records:
        if rec.out_lines is not None:
            per_instance.setdefault(rec.instance.label, {}).update(observations(rec))
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": len(records),
        "op_s": [round(r.seconds, 4) for r in records],
        "exit_codes": dict(Counter(str(r.exit_code) for r in records)),
        "failed_ops_frac": len(failures) / len(records),
        "failures": failures[:10],
        "count_mismatches": mismatches[:10],
        "absent_sites": tracer.absent if tracer else [],
        "absent_metrics": tracer.absent_metrics() if tracer else [],
        "per_instance": per_instance,
    }
    for message in failures + mismatches:
        print(f"run.py: {message}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(f"{'failed_ops_frac':32} {detail['failed_ops_frac']:.6g} ratio  ({len(records)} ops)")
    for name, value in metrics.items():
        print(f"{name:32} {value:.6g} {units[name]}")
    result = {
        "correct": not failures and not mismatches,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

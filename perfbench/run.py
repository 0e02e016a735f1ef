"""Benchmark of qif-mzi: three workloads through ``qif_mzi.cli.main``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-table --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics (setup_s, pass_s, cpu_s,
peak_rss_mb); ``--trace 1`` reports the per-layer metrics from spans around
the program's public functions.  Every output is checked against
computations made apart from the program before any figure is reported.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import workloads
from spans import METRICS, Tracer

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

SETUP_REPEATS = 9  # timed fresh-interpreter set-ups per run; the median is reported
MIN_PASSES = 3  # measured passes per run, even when --seconds is shorter
PROBE_TIMEOUT_S = 120

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = METRICS + (("trace.untraced_pass_s", "s"), ("trace.traced_pass_s", "s"), ("trace.overhead_pct", "%"))


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it becomes the seed key of verify)")
    return args


def _probe(kind: str, workload: str, seed: int, outdir: Path) -> str:
    done = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), kind, workload, str(seed), str(outdir)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=harness.ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{kind} probe failed ({done.returncode}): {done.stderr.strip()}")
    return done.stdout.strip().splitlines()[-1]


def _setup_seconds(workload: str, seed: int, outdir: Path) -> float:
    _probe("setup", workload, seed, outdir)  # untimed: fills the bytecode and file caches
    return statistics.median(float(_probe("setup", workload, seed, outdir)) for _ in range(SETUP_REPEATS))


def _program_modules() -> dict:
    from qif_mzi import analytic, cli, core, experiment, numeric, verify

    return {"cli": cli, "analytic": analytic, "numeric": numeric, "experiment": experiment,
            "verify": verify, "core": core}


def measure(args) -> dict:
    tables = OUT / "tables" / args.workload
    shutil.rmtree(tables, ignore_errors=True)
    tables.mkdir(parents=True)
    ops = workloads.operations(args.workload, args.seed, tables)
    env = harness.environment(args.seed)
    print("environment: " + json.dumps(env))
    print(f"workload {args.workload}: {len(ops)} operation(s) per pass, closed loop, one at a time")

    metrics: dict[str, float] = {}
    if not args.trace:
        metrics["setup_s"] = _setup_seconds(args.workload, args.seed, tables / "setup")
        peak_kib = int(_probe("rss", args.workload, args.seed, tables / "rss"))
        metrics["peak_rss_mb"] = peak_kib / 1024.0

    modules = _program_modules()
    cli = modules["cli"]

    # Warm-up pass: not counted, checked in full; later passes must repeat it byte for byte.
    harness.clear_outputs(ops)
    reference = harness.run_pass(cli, ops)
    harness.collect(ops, reference, keep_data=True)
    problems = harness.check_pass(ops, reference)
    for op, found in zip(ops, problems):
        for problem in found:
            tag = "known fault" if op.known_fault else "FAILED"
            print(f"{tag}: {op.label}: {problem}")
    unexpected = [op.label for op, found in zip(ops, problems) if found and not op.known_fault]
    for outcome in reference:
        outcome.data = None

    tracer = Tracer(modules) if args.trace else None
    attempted = failed = drifted = 0
    walls: dict[bool, list[float]] = {False: [], True: []}
    cpus: list[float] = []
    deadline = time.perf_counter() + args.seconds
    n = 0
    while True:
        traced = tracer is not None and n % 2 == 1
        harness.clear_outputs(ops)
        if traced:
            tracer.install()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        outcomes = harness.run_pass(cli, ops)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if traced:
            tracer.remove()
        walls[traced].append(wall)
        cpus.append(cpu)
        harness.collect(ops, outcomes, keep_data=False)
        for op, ref, outcome, found in zip(ops, reference, outcomes, problems):
            attempted += 1
            if outcome.fingerprint() != ref.fingerprint():
                drifted += 1
                failed += 1
                print(f"FAILED: {op.label}: output differs from the warm-up pass")
            elif found:
                failed += 1
        n += 1
        if n >= MIN_PASSES and time.perf_counter() >= deadline and (tracer is None or n % 2 == 0):
            break

    print(f"{n} measured pass(es); {attempted} operation(s) attempted, {failed} failed")
    correct = not unexpected and drifted == 0
    if tracer is None:
        metrics["pass_s"] = statistics.median(walls[False])
        metrics["cpu_s"] = statistics.median(cpus)
        specs = END_TO_END
    else:
        for name, _ in METRICS:
            metrics[name] = tracer.metric(name, len(walls[True]))
        untraced, traced_median = statistics.median(walls[False]), statistics.median(walls[True])
        metrics["trace.untraced_pass_s"] = untraced
        metrics["trace.traced_pass_s"] = traced_median
        metrics["trace.overhead_pct"] = 100.0 * (traced_median - untraced) / untraced
        specs = PER_LAYER
        print(f"tracing overhead: {metrics['trace.overhead_pct']:+.1f}% of the untraced pass "
              f"({untraced:.4f} s untraced, {traced_median:.4f} s traced)")
    for name, unit in specs:
        print(f"  {name} = {metrics[name]:.6g} {unit}")

    record = {"workload": args.workload, "trace": args.trace, "environment": env,
              "passes": n, "attempted": attempted, "failed": failed, "correct": correct,
              "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in specs}}
    stem = f"{args.workload}-seed{args.seed}"
    if tracer is not None:
        tracer.write(OUT / f"trace-{stem}.jsonl", record)
    else:
        (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        harness.prepare()
    except harness.SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    finally:
        shutil.rmtree(OUT / "tables", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

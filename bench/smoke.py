"""Smoke check of the benchmark harness at tiny sizes; takes about 15 seconds.

    python3 bench/smoke.py

Runs every workload's code path, untraced and traced, on shrunken instances
for a fraction of a second each, and checks that every run is correct and
reports exactly the metrics BENCHMARK.json names, each end-to-end one
nonzero. Then checks that run.py refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and the benchmark.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run
from instances import WORKLOADS

# Shrunken sizes: large enough that the Monte Carlo and simulation checks keep
# their tolerances, small enough that a run takes about a second.
TINY = {
    "analytic-300x1000": dict(statistics=6, equations=10, mc_samples=1_000, sim_trials=2_000),
    "montecarlo-50x100": dict(statistics=6, equations=10, mc_samples=100_000, sim_trials=2_000),
}
ONE_EACH = {"score": 1, "compare": 1, "optimize": 1, "mc_score": 1, "simulate": 1}


def check_runs(dpbudget, declared: dict) -> list[str]:
    problems = []
    for name, spec in WORKLOADS.items():
        tiny = replace(spec, per_round=ONE_EACH, **{"cli_mix": ("validate",), **TINY[name]})
        for trace in (False, True):
            metrics, harness = run.run(dpbudget, tiny, seed=1, seconds=0.1, trace=trace)
            where = f"{name} trace={int(trace)}"
            expected = declared["per_layer" if trace else "end_to_end"]
            if harness.failed or not harness.attempted:
                problems.append(f"{where}: {harness.failed} of {harness.attempted} operations failed")
            if set(metrics) != set(expected):
                problems.append(f"{where}: metrics {sorted(set(metrics) ^ set(expected))} differ from BENCHMARK.json")
            for metric, (value, unit) in metrics.items():
                if metric in expected and unit != expected[metric]:
                    problems.append(f"{where}: {metric} has unit {unit}, BENCHMARK.json says {expected[metric]}")
                if not trace and not value > 0:
                    problems.append(f"{where}: {metric} = {value}")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "montecarlo-50x100", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"run.py without sources exited {done.returncode} with output {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    dpbudget = run.import_dpbudget()
    if dpbudget is None:
        return 2
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {kind: {m["name"]: m["unit"] for m in config[kind]} for kind in ("end_to_end", "per_layer")}
    if set(w["name"] for w in config["workloads"]) != set(WORKLOADS):
        print("FAIL: BENCHMARK.json workloads differ from instances.WORKLOADS")
        return 1
    problems = check_runs(dpbudget, declared) + check_refuses_without_sources()
    for problem in problems:
        print(f"FAIL: {problem}")
    print("smoke check passed" if not problems else f"smoke check failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

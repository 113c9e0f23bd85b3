"""dpbudget benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; dpbudget is imported from its ``src``.
The benchmark is a closed loop with one client: it repeats rounds of the
workload's calls until ``--seconds`` have passed, with at most one child
process at a time. The first round warms caches and is checked but not
timed. Every result is checked (see checks.py); a call that raises, exits
with an unexpected code or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones, from spans recorded around every call into each
module's public functions (tracing.py). The traced run alternates traced
and untraced rounds so it can report the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Generated inputs live under
``.bench_build/dpbench`` and are removed at exit; traces are kept there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from checks import MC_RTOL, ClosedForm, close, require  # noqa: E402
from instances import CLI_SUBCOMMANDS, WORKLOADS, Inputs, generate  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "dpbench"

GRID_RESOLUTION = 100
# Setup is measured in a fresh interpreter once per round and at least this often.
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 120
ENVIRONMENT_NOTE = (
    "Caches are not dropped, CPUs are not pinned and no machine setting is changed: "
    "times include whatever the page cache, frequency scaling and other tenants of "
    "this machine did during the run, so compare runs made on the same machine only."
)
# End-to-end metric -> (unit, the samples it summarizes, how). Setup and the
# pooled CLI mix are medians; each in-process call is an interquartile mean.
END_TO_END = {
    "setup_s": ("s", "setup", "median"),
    "cli_ms": ("ms", "cli", "median"),
    "cli_p90_ms": ("ms", "cli", "p90"),
    "score_ms": ("ms", "score", "interquartile mean"),
    "compare_ms": ("ms", "compare", "interquartile mean"),
    "optimize_ms": ("ms", "optimize", "interquartile mean"),
    "mc_score_ms": ("ms", "mc_score", "interquartile mean"),
    "simulate_ms": ("ms", "simulate", "interquartile mean"),
    "peak_rss_mb": ("MB", None, None),
}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the samples.

    On a shared VM the same call runs in fast and slow phases of the machine,
    and in bursts of hypervisor steal. The median of a dozen such samples
    jumps between phases, and the mean takes in the bursts; the middle half
    does neither as much.
    """
    if not values:
        return 0.0
    cut = len(values) // 4
    return statistics.fmean(sorted(values)[cut:len(values) - cut])


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Harness:
    """One benchmark run: loaded inputs, their checks and the collected samples."""

    def __init__(self, dpbudget, spec, inputs: Inputs, seed: int, tracer: Tracer | None):
        self.dp = dpbudget
        self.spec = spec
        self.inputs = inputs
        self.seed = seed
        self.tracer = tracer
        self.timing = False
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.first: dict[str, object] = {}
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

        read = lambda path: path.read_text(encoding="utf-8")  # noqa: E731
        self.main_text = read(inputs.main)
        self.workload = dpbudget.load_workload(self.main_text)
        self.pool = [dpbudget.load_allocation(read(p), self.workload) for p in inputs.pool]
        self.separable = dpbudget.load_workload(read(inputs.separable))
        self.separable_pool = [dpbudget.load_allocation(read(p), self.separable) for p in inputs.separable_pool]
        self.small = dpbudget.load_workload(read(inputs.small))
        self.small_pool = [dpbudget.load_allocation(read(p), self.small) for p in inputs.small_pool]
        self.forms = {
            "main": ClosedForm(dpbudget, self.workload),
            "separable": ClosedForm(dpbudget, self.separable),
            "small": ClosedForm(dpbudget, self.small),
        }
        self.mc_options = replace(self.workload.options, estimator="montecarlo", mc_samples=spec.mc_samples)

    # -- bookkeeping -------------------------------------------------------

    def record(self, metric: str, value: float) -> None:
        if self.timing:
            self.samples.setdefault(metric, []).append(value)

    def attempt(self, metric: str, call, check, also: tuple[str, ...] = ()):
        """Times one call, checks its result and counts it; returns the result or None.

        A passing call's time is recorded under ``metric`` and every name in ``also``.
        """
        self.attempted += 1
        traced = self.tracer is not None and self.tracer.active
        try:
            with self.tracer.span(f"op.{metric}") if traced else contextlib.nullcontext():
                start = time.perf_counter()
                result = call()
                elapsed = time.perf_counter() - start
            check(result)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            print(f"FAILED {metric}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        for name in (metric,) + also:
            self.record(name, elapsed)
        return result

    def same_as_first(self, key: str, value) -> None:
        first = self.first.setdefault(key, value)
        require(value == first, f"{key}: result differs from the first identical call in this run")

    # -- in-process calls --------------------------------------------------

    def score(self, k: int) -> None:
        allocation = self.pool[k % len(self.pool)]
        form = self.forms["main"]

        def check(report):
            form.check_report(allocation.budgets, report.metric, report.us_terms, report.ue_terms, "score")

        self.attempt("score", lambda: self.dp.score_allocation(self.workload, allocation), check)

    def compare(self) -> None:
        named = [(f"alloc{k}", allocation) for k, allocation in enumerate(self.pool)]
        form = self.forms["main"]

        def check(ranking):
            require([entry.rank for entry in ranking] == list(range(1, len(named) + 1)), "compare: ranks")
            require(sorted(entry.name for entry in ranking) == sorted(n for n, _ in named), "compare: names")
            metrics = [entry.report.metric for entry in ranking]
            require(metrics == sorted(metrics), "compare: not sorted by metric")
            by_name = dict(named)
            for entry in ranking:
                report = entry.report
                budgets = by_name[entry.name].budgets
                form.check_report(budgets, report.metric, report.us_terms, report.ue_terms, f"compare {entry.name}")

        self.attempt("compare", lambda: self.dp.compare_allocations(self.workload, named), check)

    def optimize(self) -> object:
        form = self.forms["main"]
        candidates = [a.budgets for a in self.pool]

        def check(result):
            require(result.converged, "descent did not converge")
            form.check_optimum(result.allocation.budgets, result.metric, candidates, "descent")
            self.same_as_first("descent", (result.allocation.budgets, result.metric, result.iterations))

        return self.attempt("optimize", lambda: self.dp.optimize_descent(self.workload), check)

    def mc_score(self) -> None:
        allocation = self.pool[1]
        budgets = allocation.budgets
        form = self.forms["main"]
        us, _, analytic, _ = form.terms(budgets)

        def check(report):
            require(set(report.ue_terms) == {eq.id for eq in self.workload.equations}, "mc score: equation ids")
            for key, value in report.us_terms.items():
                close(value, us[key], 1e-9, f"mc score us_terms[{key}]")
            if self.spec.name == "montecarlo-50x100":
                close(report.metric, analytic, MC_RTOL, "mc score metric against the analytic metric")
            self.same_as_first("mc_score", report.to_dict())

        self.attempt(
            "mc_score",
            lambda: self.dp.score_allocation(self.workload, allocation, self.mc_options, self.seed),
            check,
        )

    def simulate(self) -> None:
        allocation = self.pool[1]
        form = self.forms["main"]
        trials = self.spec.sim_trials

        def check(report):
            data = report.to_dict()
            require(data["trials"] == trials and data["seed"] == self.seed, "simulate: trials or seed")
            form.check_simulation(data, allocation.budgets, "simulate")
            self.same_as_first("simulate", data)

        self.attempt("simulate", lambda: self.dp.simulate_pipeline(self.workload, allocation, trials, self.seed), check)

    def sqrt_rule(self) -> object:
        form = self.forms["separable"]
        candidates = [a.budgets for a in self.separable_pool]
        return self.attempt(
            "sqrt",
            lambda: self.dp.sqrt_rule_allocation(self.separable),
            lambda r: form.check_optimum(r.allocation.budgets, r.metric, candidates, "sqrt rule"),
        )

    def grid(self) -> object:
        form = self.forms["small"]
        candidates = [a.budgets for a in self.small_pool]
        return self.attempt(
            "grid",
            lambda: self.dp.grid_search(self.small, GRID_RESOLUTION),
            lambda r: form.check_optimum(r.allocation.budgets, r.metric, candidates, "grid"),
        )

    def layer_probes(self) -> None:
        """Direct calls into single layers, so every per-layer metric has samples
        even where no end-to-end call reaches that layer through a traced name."""
        dp = self.dp
        allocation = self.pool[1]
        refs = self.workload.reference_values()
        equations = self.workload.equations[:20]
        rmse = self.forms["main"].terms(allocation.budgets)[3]

        def check_rmse(results):
            for equation, result in zip(equations, results):
                close(result.rmse, rmse[equation.id], 1e-9, f"propagate_variance_analytic {equation.id}")

        def check_gradients(gradients):
            for equation, gradient in zip(equations, gradients):
                require(set(gradient) == self.dp.free_statistics(equation.expression), f"gradient {equation.id}")

        self.attempt("load", lambda: dp.load_workload(self.main_text),
                     lambda w: require(len(w.equations) == len(self.workload.equations), "load: equations"))
        self.attempt("model_build", lambda: dp.objective_gradient(self.workload, allocation),
                     lambda g: require(set(g) == set(self.workload.statistic_ids), "objective_gradient: ids"))
        self.attempt("validate_allocation", lambda: dp.validate_allocation(self.workload, allocation),
                     lambda a: require(a.budgets == allocation.budgets, "validate_allocation: budgets"))
        self.attempt("gradient", lambda: [dp.gradient_at_reference(eq.expression, refs) for eq in equations],
                     check_gradients)
        self.attempt("analytic",
                     lambda: [dp.propagate_variance_analytic(eq.expression, self.workload, allocation)
                              for eq in equations], check_rmse)
        self.attempt("mc_equation",
                     lambda: dp.propagate_variance_montecarlo(
                         equations[0].expression, self.workload, allocation, self.spec.mc_samples, self.seed),
                     lambda r: self.same_as_first("mc_equation", r))
        spec = self.workload.statistics[0]
        scale = spec.sensitivity / allocation.budgets[spec.id]
        self.attempt("draw", lambda: dp.sample_noise_batch(scale, dp.noise_stream(self.seed, 0), self.spec.mc_samples),
                     lambda x: require(len(x) == self.spec.mc_samples, "sample_noise_batch: count"))

    # -- child processes ---------------------------------------------------

    def child(self, metric: str, argv: list[str], check, key: str | None = None, also=()) -> None:
        """Runs one fresh interpreter to completion and checks its output."""

        def call():
            return subprocess.run(
                [sys.executable] + argv,
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                timeout=CHILD_TIMEOUT_S,
            )

        def full_check(done):
            require(done.returncode == 0, f"exit code {done.returncode}: {done.stderr.decode()[-500:]}")
            if key is not None:
                self.same_as_first(f"stdout {key}", done.stdout)
            check(json.loads(done.stdout) if done.stdout.strip() else None)

        self.attempt(metric, call, full_check, also)

    def setup_probe(self) -> None:
        def check(data):
            require(
                data == {
                    "statistics": len(self.workload.statistics),
                    "equations": len(self.workload.equations),
                    "allocations": len(self.pool),
                },
                f"setup probe loaded {data}",
            )

        self.child("setup", [str(BENCH_DIR / "probe.py"), "setup", str(self.inputs.directory)], check)

    def cli(self, subcommand: str, pooled: bool = True) -> None:
        """One CLI process; its time counts toward cli_ms only when ``pooled``."""
        argv, check = self._cli_command(subcommand)
        names = ("cli", f"cli.{subcommand}") if pooled else (f"cli.{subcommand}",)
        self.child(names[0], ["-m", "dpbudget"] + argv, check, key=subcommand, also=names[1:])

    def _cli_command(self, subcommand: str):
        inputs = self.inputs
        main, pool = str(inputs.main), [str(p) for p in inputs.pool]
        form = self.forms["main"]
        budgets = [a.budgets for a in self.pool]

        def check_optimum(form, candidates, what):
            def check(data):
                require(data["converged"] is True, f"{what}: not converged")
                form.check_optimum(data["allocation"]["budgets"], data["metric"], candidates, what)

            return check

        if subcommand == "validate":
            argv = ["validate", "--workload", main, "--allocation", pool[1]]

            def check(data):
                require(data == {"valid": True, "issues": []}, f"validate reported {data}")

        elif subcommand == "score":
            argv = ["score", "--workload", main, "--allocation", pool[1]]

            def check(data):
                form.check_report(budgets[1], data["metric"], data["us_terms"], data["ue_terms"], "cli score")

        elif subcommand == "compare":
            argv = ["compare", "--workload", main, pool[0], pool[1]]

            def check(data):
                require([entry["rank"] for entry in data] == [1, 2], "cli compare: ranks")
                by_name = {Path(pool[k]).name: budgets[k] for k in (0, 1)}
                require(sorted(entry["name"] for entry in data) == sorted(by_name), "cli compare: names")
                for entry in data:
                    form.check_report(by_name[entry["name"]], entry["metric"], entry["us_terms"],
                                      entry["ue_terms"], "cli compare")
                require(data[0]["metric"] <= data[1]["metric"], "cli compare: order")

        elif subcommand == "optimize_descent":
            argv = ["optimize", "--workload", main, "--method", "descent"]
            check = check_optimum(form, budgets, "cli descent")
        elif subcommand == "optimize_grid":
            argv = ["optimize", "--workload", str(inputs.small), "--method", "grid",
                    "--grid-resolution", str(GRID_RESOLUTION)]
            check = check_optimum(self.forms["small"], [a.budgets for a in self.small_pool], "cli grid")
        elif subcommand == "optimize_sqrt":
            argv = ["optimize", "--workload", str(inputs.separable), "--method", "sqrt"]
            check = check_optimum(self.forms["separable"], [a.budgets for a in self.separable_pool],
                                  "cli sqrt")
        elif subcommand == "simulate":
            trials = self.spec.sim_trials
            argv = ["simulate", "--workload", main, "--allocation", pool[1], "--trials", str(trials),
                    "--seed", str(self.seed)]

            def check(data):
                require(data["trials"] == trials and data["seed"] == self.seed, "cli simulate: trials or seed")
                form.check_simulation(data, budgets[1], "cli simulate")

        else:
            raise ValueError(subcommand)
        return argv, check

    def interpreter_probe(self) -> None:
        self.child("cli.interpreter", ["-c", "pass"], lambda data: None)

    def import_probe(self) -> None:
        def check(data):
            require(data["import_s"] > 0, f"import probe reported {data}")
            self.record("cli.import", data["import_s"])

        self.child("cli.import_process", [str(BENCH_DIR / "probe.py"), "import"], check)


def end_to_end_round(harness: Harness, k: int) -> None:
    harness.setup_probe()
    for subcommand in harness.spec.cli_mix:
        harness.cli(subcommand)
    in_process_round(harness, k)


def in_process_round(harness: Harness, k: int):
    per_round = harness.spec.per_round
    for j in range(per_round["score"]):
        harness.score(k * per_round["score"] + j)
    for _ in range(per_round["compare"]):
        harness.compare()
    for _ in range(per_round["optimize"]):
        descent = harness.optimize()
    for _ in range(per_round["mc_score"]):
        harness.mc_score()
    for _ in range(per_round["simulate"]):
        harness.simulate()
    return descent


def run_rounds(harness: Harness, seconds: float, body, min_rounds: int) -> int:
    """Warm-up round, then timed rounds while another fits before the deadline."""
    start = time.perf_counter()
    deadline = start + seconds
    durations = []
    rounds = 0
    while True:
        harness.timing = rounds > 0
        began = time.perf_counter()
        body(rounds)
        durations.append(time.perf_counter() - began)
        rounds += 1
        if rounds > min_rounds and time.perf_counter() + median(durations) > deadline:
            return rounds - 1


def end_to_end_metrics(harness: Harness) -> dict[str, float]:
    while len(harness.samples.get("setup", [])) < MIN_SETUPS:
        harness.timing = True
        harness.setup_probe()
    summaries = {"median": median, "p90": p90, "interquartile mean": interquartile_mean}
    metrics = {}
    for name, (unit, samples, how) in END_TO_END.items():
        if samples is not None:
            value = summaries[how](harness.samples.get(samples, []))
            metrics[name] = value * 1e3 if unit == "ms" else value
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = max(own, children) / 1024.0
    return metrics


def traced_run(harness: Harness, dpbudget, seconds: float) -> dict:
    """Alternates untraced and traced rounds; returns {metric: (value, unit)} per layer."""
    tracer = harness.tracer
    results: dict[str, object] = {}
    untraced: dict[str, list[float]] = {}
    traced: dict[str, list[float]] = {}
    ops = ("score", "compare", "optimize", "mc_score", "simulate")

    def body(k: int) -> None:
        # Every round makes the same calls, so the untraced rounds are the
        # baseline for the tracing overhead. The first round, untraced and
        # untimed, warms caches such as grid search's lattice.
        trace_this = k % 2 == 1
        if trace_this:
            missing = tracer.install(dpbudget)
            if missing and k == 1:
                print(f"note: layer functions not found, reported as 0: {missing}", file=sys.stderr)
        before = {op: len(harness.samples.get(op, [])) for op in ops}
        with tracer.span("round") if trace_this else contextlib.nullcontext():
            descent = in_process_round(harness, k)
            grid = harness.grid()
            harness.sqrt_rule()
            harness.layer_probes()
        tracer.uninstall()
        if trace_this:
            results["descent"] = descent or results.get("descent")
            results["grid"] = grid or results.get("grid")
        harness.interpreter_probe()
        harness.import_probe()
        if k == 1:
            for subcommand in CLI_SUBCOMMANDS:
                harness.cli(subcommand, pooled=False)
        if harness.timing:
            target = traced if trace_this else untraced
            for op in ops:
                target.setdefault(op, []).extend(harness.samples.get(op, [])[before[op]:])

    run_rounds(harness, seconds, body, min_rounds=2)
    overhead = 100.0 * (
        sum(median(traced.get(op, [])) for op in ops) / sum(median(untraced.get(op, [])) for op in ops) - 1.0
    )
    return layer_metrics(harness, tracer, results, overhead)


def layer_metrics(harness: Harness, tracer: Tracer, results: dict, overhead: float):
    s = harness.samples
    ms = lambda name: median(s.get(name, [])) * 1e3  # noqa: E731
    span_ms = lambda name, parent=None: median(tracer.durations(name, parent)) * 1e3  # noqa: E731
    span_us = lambda name, parent=None: median(tracer.durations(name, parent)) * 1e6  # noqa: E731

    parse = tracer.durations("expressions.parse_expression", "workload.load_workload")
    draws = tracer.named("noise.sample_noise_batch")
    drawn = sum(span.note or 0 for span in draws)
    ratios = []
    for root in tracer.named("op.mc_score"):
        inner = tracer.within(root)
        keys = {span.note for span in inner if span.name == "noise.noise_stream"}
        batches = sum(1 for span in inner if span.name == "noise.sample_noise_batch")
        if batches:
            ratios.append(len(keys) / batches)
    descent = results.get("descent")
    iterations = descent.iterations if descent else 0
    grid = results.get("grid")

    metrics = {
        "cli.interpreter_ms": (ms("cli.interpreter"), "ms"),
        "cli.import_ms": (ms("cli.import"), "ms"),
    }
    for subcommand in CLI_SUBCOMMANDS:
        metrics[f"cli.{subcommand}_ms"] = (ms(f"cli.{subcommand}"), "ms")
    metrics.update({
        "workload.load_ms": (span_ms("workload.load_workload", "op.load"), "ms"),
        "expressions.parse_us_per_eq": (sum(parse) / len(parse) * 1e6 if parse else 0.0, "us"),
        "expressions.nodes": (harness.inputs.nodes, "count"),
        "workload.validate_allocation_us": (span_us("workload.validate_allocation"), "us"),
        "propagation.gradient_us_per_eq": (span_us("propagation.gradient_at_reference"), "us"),
        "propagation.analytic_us_per_eq": (span_us("propagation.propagate_variance_analytic"), "us"),
        "allocator.model_build_ms": (span_ms("allocator.objective_gradient", "op.model_build"), "ms"),
        "allocator.descent.iterations": (iterations, "count"),
        "allocator.descent_ms_per_iter": (span_ms("op.optimize") / iterations if iterations else 0.0, "ms"),
        "allocator.grid_ms": (span_ms("op.grid"), "ms"),
        "allocator.grid.cells": (grid.iterations if grid else 0, "count"),
        "allocator.sqrt_ms": (span_ms("op.sqrt"), "ms"),
        "scoring.score_p90_ms": (p90(tracer.durations("op.score")) * 1e3, "ms"),
        "scoring.compare_ms_per_allocation": (span_ms("op.compare") / len(harness.pool), "ms"),
        "noise.draw_ns": (sum(span.seconds for span in draws) / drawn * 1e9 if drawn else 0.0, "ns"),
        "propagation.mc_ms_per_eq": (span_ms("propagation.propagate_variance_montecarlo"), "ms"),
        "propagation.mc.useful_draw_ratio": (median(ratios), "ratio"),
        "expressions.evaluate_batch_ms": (span_ms("expressions.evaluate_batch"), "ms"),
        "simulation.us_per_trial": (span_us("op.simulate") / harness.spec.sim_trials, "us"),
        "trace.overhead_pct": (overhead, "%"),
    })
    return metrics


def cpu_jiffies() -> tuple[int, int] | None:
    """Machine-wide (steal, total) CPU time from /proc/stat, or None where it is missing."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal; guest time is already in user.
    return (fields[7], sum(fields[:8])) if len(fields) >= 8 else None


def steal_pct(before: tuple[int, int] | None, after: tuple[int, int] | None) -> float | None:
    """Share of the machine's CPU time that its hypervisor gave to others between two readings."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return round(100.0 * (after[0] - before[0]) / (after[1] - before[1]), 2)


def environment(dpbudget, steal: float | None) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dpbudget").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "dpbudget": getattr(dpbudget, "__version__", None),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "steal_pct": steal,
        "note": ENVIRONMENT_NOTE,
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_dpbudget():
    """Imports dpbudget from this checkout's src; returns None when it is not there."""
    if not (SRC / "dpbudget" / "__init__.py").is_file():
        print(f"error: no dpbudget sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import dpbudget

    if Path(dpbudget.__file__).resolve().parent != (SRC / "dpbudget").resolve():
        print(f"error: imported dpbudget from {dpbudget.__file__}, not from {SRC}", file=sys.stderr)
        return None
    return dpbudget


def run(dpbudget, spec, seed: int, seconds: float, trace: bool) -> tuple[dict, Harness]:
    """Runs one workload; returns {metric: (value, unit)} and the harness."""
    workdir = WORK / f"{spec.name}-seed{seed}-pid{os.getpid()}"
    try:
        inputs = generate(spec, seed, workdir)
        harness = Harness(dpbudget, spec, inputs, seed, Tracer() if trace else None)
        if trace:
            metrics = traced_run(harness, dpbudget, seconds)
            trace_path = WORK / "traces" / f"{spec.name}-seed{seed}.jsonl"
            harness.tracer.write(trace_path, first="round")
            print(f"trace: {len(harness.tracer.spans)} spans; the first traced round and a summary "
                  f"of all are in {trace_path.relative_to(ROOT)}")
        else:
            rounds = run_rounds(harness, seconds, lambda k: end_to_end_round(harness, k), min_rounds=1)
            print(f"rounds timed: {rounds}")
            metrics = {name: (value, END_TO_END[name][0]) for name, value in end_to_end_metrics(harness).items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return metrics, harness


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    dpbudget = import_dpbudget()
    if dpbudget is None:
        return 2
    spec = WORKLOADS[args.workload]
    before = cpu_jiffies()
    metrics, harness = run(dpbudget, spec, args.seed, args.seconds, bool(args.trace))
    steal = steal_pct(before, cpu_jiffies())

    print("environment: " + json.dumps(environment(dpbudget, steal), sort_keys=True))
    print(f"workload {spec.name}: {spec.why}")
    for name, (value, unit) in metrics.items():
        _, key, how = END_TO_END.get(name, (None, None, None))
        samples = harness.samples.get(key, []) if key else []
        count = f"  ({how} of {len(samples)})" if samples and not args.trace else ""
        print(f"  {name:36s} {value:14.6f} {unit}{count}")
    print(f"  failed_frac {harness.failed / max(harness.attempted, 1):.6f} "
          f"({harness.failed} of {harness.attempted} operations)")
    result = {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line interface.

Subcommands: validate, score, compare, optimize, simulate. Reports go to
standard output (JSON and CSV formats are stable; text is for humans),
diagnostics go to standard error.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 computation
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DPBudgetError, ValidationError, ValidationIssue
from .workload import (
    MIN_GRID_RESOLUTION,
    MIN_MC_SAMPLES,
    MetricOptions,
    Workload,
    allocation_to_dict,
    load_allocation,
    load_workload,
)

# The modules that need numpy are imported by the handlers that use them,
# so that validate starts without it.
if TYPE_CHECKING:
    from .allocator import OptimizationResult
    from .scoring import RankedAllocation, UtilityReport
    from .simulation import SimulationReport

# Cells of the trial dump formatted at once; at 1300 columns, a slice of 25 rows.
_DUMP_CELLS = 1 << 15

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_COMPUTE = 3


class _UsageError(Exception):
    pass


def _parse_seed(text: str) -> int:
    try:
        value = int(text, 16) if text.lower().startswith("0x") else int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be a decimal or 0x-hex integer, got {text!r}") from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits, got {text!r}")
    return value


def _int_at_least(minimum: int, name: str):
    """An argparse type: an integer of at least ``minimum``, named ``name`` in its error."""

    def parse(text: str) -> int:
        with contextlib.suppress(ValueError):
            if (value := int(text)) >= minimum:
                return value
        raise argparse.ArgumentTypeError(f"{name} must be an integer of at least {minimum}, got {text!r}")

    return parse


def _parse_tol(text: str) -> float:
    with contextlib.suppress(ValueError):
        if 0.0 <= (value := float(text)) < math.inf:
            return value
    raise argparse.ArgumentTypeError(f"tol must be a finite number of at least 0, got {text!r}")


def _add_common(parser: argparse.ArgumentParser, *, allocation: str | None = None, estimator: bool = False):
    parser.add_argument("--workload", required=True, metavar="PATH", help="workload document (JSON)")
    if allocation == "single":
        parser.add_argument("--allocation", required=True, metavar="PATH", help="allocation document (JSON)")
    elif allocation == "optional":
        parser.add_argument("--allocation", metavar="PATH", help="allocation document (JSON)")
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json", help="output format")
    if estimator:
        parser.add_argument("--estimator", choices=("analytic", "montecarlo"), default=None,
                            help="override the workload's estimator")
        parser.add_argument("--mc-samples", type=_int_at_least(MIN_MC_SAMPLES, "mc-samples"), default=None,
                            help=f"override the Monte Carlo sample count (at least {MIN_MC_SAMPLES})")
        parser.add_argument("--seed", type=_parse_seed, default=None,
                            help="rng seed (decimal or 0x-hex); required for montecarlo")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpbudget",
        description="Plan privacy-budget allocations for Laplace-released summary statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a workload (and optionally an allocation) document")
    _add_common(p, allocation="optional")

    p = sub.add_parser("score", help="score one allocation against a workload")
    _add_common(p, allocation="single", estimator=True)

    p = sub.add_parser("compare", help="rank two or more allocations")
    _add_common(p, estimator=True)
    p.add_argument("allocations", nargs="*", metavar="ALLOCATION", help="allocation documents (JSON)")
    p.add_argument("--allocation", action="append", default=[], metavar="PATH", dest="allocation_flags",
                   help="additional allocation document (repeatable)")

    p = sub.add_parser("optimize", help="search for a low-metric allocation")
    _add_common(p)
    p.add_argument("--method", choices=("sqrt", "grid", "descent"), default="descent")
    p.add_argument("--grid-resolution", type=_int_at_least(MIN_GRID_RESOLUTION, "grid-resolution"), default=100,
                   help=f"lattice parts for --method grid (at least {MIN_GRID_RESOLUTION})")
    p.add_argument("--max-iters", type=_int_at_least(1, "max-iters"), default=5000,
                   help="iteration cap for --method descent")
    p.add_argument("--tol", type=_parse_tol, default=1e-10,
                   help="stop --method descent once the Frank-Wolfe gap is at most this times the metric")
    p.add_argument("--allow-nonconverged", action="store_true",
                   help="exit 0 even when descent hits the iteration cap")
    p.add_argument("--out", metavar="PATH", help="write the resulting allocation document here")

    p = sub.add_parser("simulate", help="replay noisy releases and check errors against predictions")
    _add_common(p, allocation="single")
    p.add_argument("--trials", type=_int_at_least(1, "trials"), default=10000)
    p.add_argument("--seed", type=_parse_seed, default=None, required=False,
                   help="rng seed (decimal or 0x-hex); required")
    p.add_argument("--dump-trials", metavar="PATH", help="also write per-trial errors as CSV")

    return parser


def _read_file(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise _UsageError(f"file not found: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError([ValidationIssue("MalformedDocument", f"invalid UTF-8: {exc}")]) from None


def _effective_options(workload: Workload, args: argparse.Namespace) -> MetricOptions:
    options = workload.options
    changes = {}
    if getattr(args, "estimator", None) is not None:
        changes["estimator"] = args.estimator
    if getattr(args, "mc_samples", None) is not None:
        changes["mc_samples"] = args.mc_samples
    return replace(options, **changes) if changes else options


def _require_seed_for_montecarlo(options: MetricOptions, args: argparse.Namespace):
    if options.estimator == "montecarlo" and args.seed is None:
        raise _UsageError("the montecarlo estimator requires an explicit --seed")


def _dump_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def _print_report(report: UtilityReport, workload: Workload, fmt: str):
    if fmt == "json":
        _dump_json(report.to_dict())
    elif fmt == "csv":
        writer = _csv_writer()
        writer.writerow(["kind", "id", "value"])
        writer.writerow(["metric", "", repr(report.metric)])
        for stat_id in workload.statistic_ids:
            writer.writerow(["us", stat_id, repr(report.us_terms[stat_id])])
        for equation in workload.equations:
            writer.writerow(["ue", equation.id, repr(report.ue_terms[equation.id])])
    else:
        print(f"metric: {report.metric:.6g}  (lower is better)")
        for stat_id in workload.statistic_ids:
            print(f"  statistic {stat_id}: {report.us_terms[stat_id]:.6g}")
        for equation in workload.equations:
            print(f"  equation {equation.id}: {report.ue_terms[equation.id]:.6g}")


def _print_ranking(ranking: list[RankedAllocation], fmt: str):
    if fmt == "json":
        _dump_json([entry.to_dict() for entry in ranking])
    elif fmt == "csv":
        writer = _csv_writer()
        writer.writerow(["rank", "name", "metric"])
        for entry in ranking:
            writer.writerow([entry.rank, entry.name, repr(entry.report.metric)])
    else:
        for entry in ranking:
            print(f"{entry.rank}. {entry.name}: metric {entry.report.metric:.6g}")


def _print_optimization(result: OptimizationResult, fmt: str):
    if fmt == "json":
        _dump_json(result.to_dict())
    elif fmt == "csv":
        writer = _csv_writer()
        writer.writerow(["id", "budget"])
        for stat_id, budget in result.allocation.budgets.items():
            writer.writerow([stat_id, repr(budget)])
    else:
        state = "converged" if result.converged else "NOT converged"
        print(
            f"method {result.method}: metric {result.metric:.6g}, gap {result.gap:.3g}, "
            f"after {result.iterations} iterations ({state})"
        )
        for stat_id, budget in result.allocation.budgets.items():
            print(f"  {stat_id}: {budget:.6g}")


def _print_simulation(report: SimulationReport, fmt: str):
    if fmt == "json":
        _dump_json(report.to_dict())
    elif fmt == "csv":
        writer = _csv_writer()
        writer.writerow(["kind", "id", "empirical_rmse", "trimmed_rmse", "bias", "predicted_rmse"])
        for stat_id, summary in report.per_statistic.items():
            writer.writerow(["stat", stat_id, repr(summary.empirical_rmse), "", "", repr(summary.predicted_rmse)])
        for eq_id, summary in report.per_equation.items():
            writer.writerow([
                "eq", eq_id, repr(summary.empirical_rmse), repr(summary.trimmed_rmse),
                repr(summary.bias), repr(summary.predicted_rmse),
            ])
    else:
        reliable = "" if report.rmse_reliable else "  [rmse unreliable: too few trials]"
        print(f"trials: {report.trials}  seed: {report.seed}{reliable}")
        for stat_id, summary in report.per_statistic.items():
            print(f"  statistic {stat_id}: empirical {summary.empirical_rmse:.6g}, predicted {summary.predicted_rmse:.6g}")
        for eq_id, summary in report.per_equation.items():
            print(
                f"  equation {eq_id}: empirical {summary.empirical_rmse:.6g}, trimmed {summary.trimmed_rmse:.6g}, "
                f"bias {summary.bias:.6g}, predicted {summary.predicted_rmse:.6g}"
            )


def _cmd_validate(args: argparse.Namespace) -> int:
    issues = []
    workload = None
    try:
        workload = load_workload(_read_file(args.workload))
    except ValidationError as exc:
        issues.extend(exc.issues)
    if workload is not None and args.allocation:
        try:
            load_allocation(_read_file(args.allocation), workload)
        except ValidationError as exc:
            issues.extend(exc.issues)
    if args.format == "json":
        _dump_json({
            "valid": not issues,
            "issues": [{"code": i.code, "message": i.message, "subject": i.subject} for i in issues],
        })
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["code", "subject", "message"])
        for issue in issues:
            writer.writerow([issue.code, issue.subject or "", issue.message])
    else:
        print("\n".join(map(str, issues)) if issues else "OK")
    return EXIT_VALIDATION if issues else EXIT_OK


def _cmd_score(args: argparse.Namespace) -> int:
    from .scoring import score_allocation

    workload = load_workload(_read_file(args.workload))
    options = _effective_options(workload, args)
    _require_seed_for_montecarlo(options, args)
    allocation = load_allocation(_read_file(args.allocation), workload)
    report = score_allocation(workload, allocation, options, args.seed)
    _print_report(report, workload, args.format)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    from .scoring import compare_allocations

    paths = list(args.allocations) + list(args.allocation_flags)
    if len(paths) < 2:
        raise _UsageError("compare needs at least two allocation documents")
    workload = load_workload(_read_file(args.workload))
    options = _effective_options(workload, args)
    _require_seed_for_montecarlo(options, args)
    named = []
    for path in paths:
        try:
            named.append((Path(path).name, load_allocation(_read_file(path), workload)))
        except ValidationError as exc:
            raise ValidationError(
                [type(issue)(issue.code, f"{path}: {issue.message}", issue.subject) for issue in exc.issues]
            ) from None
    ranking = compare_allocations(workload, named, options, args.seed)
    _print_ranking(ranking, args.format)
    return EXIT_OK


def _cmd_optimize(args: argparse.Namespace) -> int:
    from .allocator import grid_search, optimize_descent, sqrt_rule_allocation

    workload = load_workload(_read_file(args.workload))
    with _output_file(args.out) if args.out else contextlib.nullcontext() as handle:
        if args.method == "sqrt":
            result = sqrt_rule_allocation(workload)
        elif args.method == "grid":
            result = grid_search(workload, args.grid_resolution)
        else:
            result = optimize_descent(workload, max_iters=args.max_iters, tol=args.tol)
        if handle is not None and (result.converged or args.allow_nonconverged):
            handle.write(json.dumps(allocation_to_dict(result.allocation), sort_keys=True, indent=2) + "\n")
    _print_optimization(result, args.format)  # after the block: a closed stdout is not an unwritable --out
    if not result.converged and not args.allow_nonconverged:
        print(
            f"descent did not converge within {args.max_iters} iterations "
            "(pass --allow-nonconverged to accept the best allocation found)",
            file=sys.stderr,
        )
        return EXIT_COMPUTE
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simulation import _simulate

    if args.seed is None:
        raise _UsageError("simulate requires an explicit --seed")
    workload = load_workload(_read_file(args.workload))
    allocation = load_allocation(_read_file(args.allocation), workload)
    if not args.dump_trials:
        report = _simulate(workload, allocation, args.trials, args.seed, None)
    else:
        with _output_file(args.dump_trials) as handle:
            writer = csv.writer(handle, lineterminator="\n")
            stat_keys = [f"stat:{stat_id}" for stat_id in workload.statistic_ids]
            writer.writerow(["trial", *stat_keys, *(f"eq:{equation.id}" for equation in workload.equations)])
            sink = functools.partial(_write_trial_rows, handle)
            report = _simulate(workload, allocation, args.trials, args.seed, sink)
    _print_simulation(report, args.format)
    return EXIT_OK


def _write_trial_rows(handle, start: int, chunk_errors) -> None:
    """Writes a chunk's ``--dump-trials`` rows (trial number, then one cell per column), _DUMP_CELLS cells
    at a time as one string, so memory holds a slice's text, not the chunk's. A cell is the value's repr,
    empty for an excluded (NaN) trial; none needs CSV quoting."""
    import numpy as np

    size = chunk_errors[0].size
    step = max(1, _DUMP_CELLS // len(chunk_errors))
    gapped = [column for column, errors in enumerate(chunk_errors) if np.isnan(errors).any()]
    for low in range(0, size, step):
        high = min(low + step, size)
        cells = [list(map(repr, errors[low:high].tolist())) for errors in chunk_errors]
        for column in gapped:
            for row in np.flatnonzero(np.isnan(chunk_errors[column][low:high])).tolist():
                cells[column][row] = ""
        handle.write("\n".join(map(",".join, zip(map(str, range(start + low, start + high)), *cells))) + "\n")


@contextlib.contextmanager
def _output_file(path: str):
    """A text handle on a new file beside ``path`` that replaces it if the block writes to it and succeeds,
    and is removed otherwise. An unwritable path is a usage error, raised before the block runs."""
    partial = Path(path).with_name(f".{Path(path).name}.partial")
    if os.path.isdir(path):
        raise _UsageError(f"cannot write {path}: it is a directory")
    try:
        with open(partial, "w", encoding="utf-8", newline="") as handle:
            yield handle
            written = handle.tell() > 0
        if written:
            os.replace(partial, path)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        partial.unlink(missing_ok=True)


_HANDLERS = {
    "validate": _cmd_validate,
    "score": _cmd_score,
    "compare": _cmd_compare,
    "optimize": _cmd_optimize,
    "simulate": _cmd_simulate,
}


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        for issue in exc.issues:
            print(str(issue), file=sys.stderr)
        return EXIT_VALIDATION
    except (DPBudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def main() -> None:
    try:
        code = run_cli(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``| head``): Python's recipe, so that nothing is flushed there at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main()

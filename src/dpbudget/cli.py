"""Command-line interface.

Subcommands: validate, score, compare, optimize, simulate. Each handler
loads its documents, calls the library and hands one report to ``_emit``,
the only code that reads ``--format``: it prints the report to standard
output as JSON or CSV (both stable) or as text (for humans). Diagnostics
go to standard error.

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


def _add_common(parser: argparse.ArgumentParser, handler, *, allocation: str | None = None, estimator: bool = False):
    parser.set_defaults(handler=handler)
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
    _add_common(p, _cmd_validate, allocation="optional")

    p = sub.add_parser("score", help="score one allocation against a workload")
    _add_common(p, _cmd_score, allocation="single", estimator=True)

    p = sub.add_parser("compare", help="rank two or more allocations")
    _add_common(p, _cmd_compare, estimator=True)
    p.add_argument("allocations", nargs="*", metavar="ALLOCATION", help="allocation documents (JSON)")
    p.add_argument("--allocation", action="append", default=[], metavar="PATH", dest="allocation_flags",
                   help="additional allocation document (repeatable)")

    p = sub.add_parser("optimize", help="search for a low-metric allocation")
    _add_common(p, _cmd_optimize)
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
    _add_common(p, _cmd_simulate, allocation="single")
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
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from None


def _metric_options(workload: Workload, args: argparse.Namespace) -> MetricOptions:
    """The workload's options with the --estimator and --mc-samples overrides; a Monte Carlo run needs --seed."""
    changes = {name: value for name in ("estimator", "mc_samples") if (value := getattr(args, name)) is not None}
    options = replace(workload.options, **changes) if changes else workload.options
    if options.estimator == "montecarlo" and args.seed is None:
        raise _UsageError("the montecarlo estimator requires an explicit --seed")
    return options


def _emit(fmt: str, payload, rows, lines) -> None:
    """Prints one report: ``payload`` as JSON, the lists ``rows()`` gives (header first) as CSV, or the strings
    ``lines()`` gives as text. Only the chosen format's view is built."""
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows())
    else:
        print("\n".join(lines()))


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
    _emit(
        args.format,
        {"valid": not issues, "issues": [{"code": i.code, "message": i.message, "subject": i.subject} for i in issues]},
        lambda: [["code", "subject", "message"], *([i.code, i.subject or "", i.message] for i in issues)],
        lambda: map(str, issues) if issues else ["OK"],
    )
    return EXIT_VALIDATION if issues else EXIT_OK


def _cmd_score(args: argparse.Namespace) -> int:
    from .scoring import score_allocation

    workload = load_workload(_read_file(args.workload))
    options = _metric_options(workload, args)
    allocation = load_allocation(_read_file(args.allocation), workload)
    report = score_allocation(workload, allocation, options, args.seed)
    statistics, equations = report.us_terms.items(), report.ue_terms.items()  # each in the workload's order
    _emit(
        args.format, report.to_dict(),
        lambda: [
            ["kind", "id", "value"],
            ["metric", "", repr(report.metric)],
            *(["us", key, repr(value)] for key, value in statistics),
            *(["ue", key, repr(value)] for key, value in equations),
        ],
        lambda: [
            f"metric: {report.metric:.6g}  (lower is better)",
            *(f"  statistic {key}: {value:.6g}" for key, value in statistics),
            *(f"  equation {key}: {value:.6g}" for key, value in equations),
        ],
    )
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    from .scoring import compare_allocations

    paths = list(args.allocations) + list(args.allocation_flags)
    if len(paths) < 2:
        raise _UsageError("compare needs at least two allocation documents")
    workload = load_workload(_read_file(args.workload))
    options = _metric_options(workload, args)
    named = []
    for path in paths:
        try:
            named.append((Path(path).name, load_allocation(_read_file(path), workload)))
        except ValidationError as exc:
            raise ValidationError(
                [type(issue)(issue.code, f"{path}: {issue.message}", issue.subject) for issue in exc.issues]
            ) from None
    ranking = compare_allocations(workload, named, options, args.seed)
    _emit(
        args.format, [entry.to_dict() for entry in ranking],
        lambda: [["rank", "name", "metric"], *([e.rank, e.name, repr(e.report.metric)] for e in ranking)],
        lambda: [f"{e.rank}. {e.name}: metric {e.report.metric:.6g}" for e in ranking],
    )
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
    # After the block: a closed stdout is not an unwritable --out.
    budgets = result.allocation.budgets.items()
    state = "converged" if result.converged else "NOT converged"
    _emit(
        args.format, result.to_dict(),
        lambda: [["id", "budget"], *([stat_id, repr(budget)] for stat_id, budget in budgets)],
        lambda: [
            f"method {result.method}: metric {result.metric:.6g}, gap {result.gap:.3g}, "
            f"after {result.iterations} iterations ({state})",
            *(f"  {stat_id}: {budget:.6g}" for stat_id, budget in budgets),
        ],
    )
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
    with _output_file(args.dump_trials) if args.dump_trials else contextlib.nullcontext() as handle:
        sink = None
        if handle is not None:
            columns = [f"stat:{stat_id}" for stat_id in workload.statistic_ids]
            columns += [f"eq:{equation.id}" for equation in workload.equations]
            handle.write(",".join(["trial", *columns]) + "\n")  # ids are identifiers: no cell needs CSV quoting
            sink = functools.partial(_write_trial_rows, handle)
        report = _simulate(workload, allocation, args.trials, args.seed, sink)
    statistics, equations = report.per_statistic.items(), report.per_equation.items()
    reliable = "" if report.rmse_reliable else "  [rmse unreliable: too few trials]"
    _emit(
        args.format, report.to_dict(),
        lambda: [
            ["kind", "id", "empirical_rmse", "trimmed_rmse", "bias", "predicted_rmse"],
            *(["stat", key, repr(s.empirical_rmse), "", "", repr(s.predicted_rmse)] for key, s in statistics),
            *(
                ["eq", key, repr(s.empirical_rmse), repr(s.trimmed_rmse), repr(s.bias), repr(s.predicted_rmse)]
                for key, s in equations
            ),
        ],
        lambda: [
            f"trials: {report.trials}  seed: {report.seed}{reliable}",
            *(
                f"  statistic {key}: empirical {s.empirical_rmse:.6g}, predicted {s.predicted_rmse:.6g}"
                for key, s in statistics
            ),
            *(
                f"  equation {key}: empirical {s.empirical_rmse:.6g}, trimmed {s.trimmed_rmse:.6g}, "
                f"bias {s.bias:.6g}, predicted {s.predicted_rmse:.6g}"
                for key, s in equations
            ),
        ],
    )
    return EXIT_OK


def _write_trial_rows(handle, start: int, block) -> None:
    """Writes a chunk's ``--dump-trials`` rows (trial number, then a cell per column: a row of the kernel's
    ``block``), _DUMP_CELLS cells at a time as one string, so memory holds a slice's text, not the chunk's. A cell
    is the value's repr, emptied for an excluded trial: repr writes NaN as ``nan``, and no other float's has it."""
    step = max(1, _DUMP_CELLS // len(block))
    for low in range(0, block.shape[1], step):
        cells = map(repr, block[:, low : low + step].T.ravel().tolist())  # the slice, row by row
        rows = zip(map(str, range(start + low, start + low + step)), *[cells] * len(block))  # a row per tuple
        handle.write("\n".join(map(",".join, rows)).replace("nan", "") + "\n")


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


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
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

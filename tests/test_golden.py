"""Golden bytes: the CLI reports on tests/data/paper4.json, compared byte for byte.

The files under tests/data/golden/ were written by this module's
``__main__`` at commit d1c7822 ("Stream --dump-trials through the Monte
Carlo sink and drop simulate_with_series"); the multi-chunk cases
(``*_multichunk*``) at commit cae7f97 ("Compute every partial with one
reverse sweep and drop the forward-mode gradient"); the descent CSV and
the simulate text report at commit 2087c54 ("One first-order model behind
every analytic path"); the text reports of score, compare and optimize, the
compare and simulate CSVs, every validate report and the runs that exit
nonzero (whose stderr is stored too) at commit 5de29da ("Check caller
options by the workload's rules; one expression list per Monte Carlo
call"); the ``partials_*`` cases at commit 8684859 ("One report path in the
CLI: one --format switch, handlers on the parser"). The multi-chunk cases run the Monte Carlo kernel
over several 16384-sample chunks, the last one partial, and the dump is
stored as the sha256 of its bytes. The ``partials_*`` cases run
tests/data/partials.json, whose equations repeat a statistic (``s1 * s1``,
``s2 * s1 * s2``), cancel one (``s1 - s1``, which has no model entry),
negate a quotient (``-(s2 / s3) + s2``) and hold only a constant (``2.5``),
so they pin how the first-order model merges and drops partials. The ``exclusion_*`` cases, recorded at
commit 6a79228 ("One fused reverse-mode pass per equation builds the first-order model"), run
tests/data/exclusion.json, whose statistic d has noise scale 2e-9 around reference 1e-9: the two
divisions of ``s1 / d + s1 / (d - 2e-9)`` meet near-zero denominators in different trials (32 of
50,010 excluded at seed 6), and ``s1 + d`` divides by nothing, so they pin how excluded samples are
counted, dropped and dumped. The ``wide_*`` cases, recorded at commit 9c5c2cb ("CHANGES: one
exclusion rule, the aim 2 removals, the identity tool's output and the benchmark pairs"), run
tests/data/wide.json, whose equations read 12 statistics: three groups of noise streams per full
chunk, so the Monte Carlo kernel starts its helper thread. They run 2 x 16384 + 9 trials, two full
chunks and a partial one whose streams are grouped again. A refactor that is meant to
leave every report unchanged must keep this test passing; tools/cli_identity.py
builds its golden commands from CASES, FAILING_CASES and DUMP_DIGESTS. A change that
moves a value on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says in its commit which values moved, and by how much.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from dpbudget import (
    load_allocation,
    load_workload,
    objective_gradient,
    optimize_descent,
    propagate_variance_analytic,
    propagate_variance_montecarlo,
    score_allocation,
    simulate_pipeline,
)
from dpbudget.cli import run_cli
from dpbudget.errors import NonFiniteError

from helpers import allocation, make_workload

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
_W = ["--workload", str(DATA / "paper4.json")]
_UNIFORM = str(DATA / "uniform.json")
_TUNED = str(DATA / "tuned.json")
_BAD_SUM = str(DATA / "bad_sum.json")
_PARTIALS = ["--workload", str(DATA / "partials.json")]
_EXCLUSION = ["--workload", str(DATA / "exclusion.json"), "--allocation", str(DATA / "exclusion_allocation.json")]
_WIDE = ["--workload", str(DATA / "wide.json"), "--allocation", str(DATA / "wide_allocation.json")]

CASES = {
    "score_uniform.json": ["score", *_W, "--allocation", _UNIFORM],
    "score_uniform.csv": ["score", *_W, "--allocation", _UNIFORM, "--format", "csv"],
    "score_tuned.json": ["score", *_W, "--allocation", _TUNED],
    "score_tuned.csv": ["score", *_W, "--allocation", _TUNED, "--format", "csv"],
    "compare.json": ["compare", *_W, _UNIFORM, _TUNED],
    "optimize_descent.json": ["optimize", *_W, "--method", "descent"],
    "optimize_descent.csv": ["optimize", *_W, "--method", "descent", "--format", "csv"],
    "optimize_grid.json": ["optimize", *_W, "--method", "grid"],
    "simulate.json": ["simulate", *_W, "--allocation", _UNIFORM, "--trials", "2000", "--seed", "7"],
    "simulate.txt": ["simulate", *_W, "--allocation", _UNIFORM, "--trials", "2000", "--seed", "7", "--format", "text"],
    # Four chunks, the last one partial.
    "simulate_multichunk.json": ["simulate", *_W, "--allocation", _UNIFORM, "--trials", "50010", "--seed", "7"],
    "score_montecarlo_multichunk.json": [
        "score", *_W, "--allocation", _UNIFORM, "--estimator", "montecarlo", "--mc-samples", "70000", "--seed", "3",
    ],
    "score_uniform.txt": ["score", *_W, "--allocation", _UNIFORM, "--format", "text"],
    "compare.csv": ["compare", *_W, _UNIFORM, _TUNED, "--format", "csv"],
    "compare.txt": ["compare", *_W, _UNIFORM, _TUNED, "--format", "text"],
    "optimize_descent.txt": ["optimize", *_W, "--method", "descent", "--format", "text"],
    "optimize_grid20.txt": ["optimize", *_W, "--method", "grid", "--grid-resolution", "20", "--format", "text"],
    "simulate.csv": ["simulate", *_W, "--allocation", _UNIFORM, "--trials", "3000", "--seed", "7", "--format", "csv"],
    "validate.json": ["validate", *_W, "--allocation", _UNIFORM],
    "validate.csv": ["validate", *_W, "--allocation", _UNIFORM, "--format", "csv"],
    "validate.txt": ["validate", *_W, "--allocation", _UNIFORM, "--format", "text"],
    "partials_score.json": ["score", *_PARTIALS, "--allocation", _TUNED],
    "partials_compare.json": ["compare", *_PARTIALS, _UNIFORM, _TUNED],
    "partials_optimize_descent.json": ["optimize", *_PARTIALS, "--method", "descent"],
    "exclusion_simulate.json": ["simulate", *_EXCLUSION, "--trials", "50010", "--seed", "6"],
    "exclusion_score_montecarlo.json": [
        "score", *_EXCLUSION, "--estimator", "montecarlo", "--mc-samples", "50010", "--seed", "6",
    ],
    # Three stream groups per full chunk: two full chunks and a partial one.
    "wide_simulate.json": ["simulate", *_WIDE, "--trials", "32777", "--seed", "8"],
    "wide_score_montecarlo.json": [
        "score", *_WIDE, "--estimator", "montecarlo", "--mc-samples", "32777", "--seed", "8",
    ],
}
# Runs that exit nonzero, with their exit codes: stdout is stored as <name>, stderr as <name>.stderr.
FAILING_CASES = {
    "validate_bad_sum.json": (1, ["validate", *_W, "--allocation", _BAD_SUM]),
    "validate_bad_sum.csv": (1, ["validate", *_W, "--allocation", _BAD_SUM, "--format", "csv"]),
    "validate_bad_sum.txt": (1, ["validate", *_W, "--allocation", _BAD_SUM, "--format", "text"]),
    "optimize_nonconverged.txt": (3, ["optimize", *_W, "--max-iters", "2", "--format", "text"]),
}
# The --dump-trials file of a case's run, stored as its sha256 (each file is ~1 MB), by the case.
DUMP_DIGESTS = {
    "simulate_multichunk.json": "simulate_multichunk_dump.sha256",
    "exclusion_simulate.json": "exclusion_simulate_dump.sha256",
    "wide_simulate.json": "wide_simulate_dump.sha256",
}
# repr of propagate_variance_montecarlo on each equation at uniform.json, 70,000 samples (four full chunks
# and a partial one), seed 3; recorded at commit 67f1f88, whose kernel drew these on a helper thread.
MONTECARLO_PROPAGATION = {
    "eq1": (
        "PropagationResult(variance=64.43642510990584, rmse=8.027238584203165, method='montecarlo', "
        "mc_detail=MonteCarloDetail(samples=70000, bias_estimate=-0.01158351475949847, "
        "trimmed_rmse=7.937984431204504))"
    ),
    "eq2": (
        "PropagationResult(variance=0.006785339099037636, rmse=0.08237603651709685, method='montecarlo', "
        "mc_detail=MonteCarloDetail(samples=70000, bias_estimate=0.0006872359336059738, "
        "trimmed_rmse=0.08138682502988094))"
    ),
}
# repr of propagate_variance_montecarlo on each equation of exclusion.json at its allocation, 50,010 samples,
# seed 6, recorded at commit 6a79228: 32 samples of "quotients" are excluded, none of "sum".
EXCLUSION_PROPAGATION = {
    "quotients": (
        "PropagationResult(variance=6.201659191717255e+22, rmse=249031843888.30942, method='montecarlo', "
        "mc_detail=MonteCarloDetail(samples=49978, bias_estimate=517062122.71485937, "
        "trimmed_rmse=148032984162.69238))"
    ),
    "sum": (
        "PropagationResult(variance=2.0212415109764312, rmse=1.4217178419824041, method='montecarlo', "
        "mc_detail=MonteCarloDetail(samples=50010, bias_estimate=0.006333343088209805, "
        "trimmed_rmse=1.398975262694167))"
    ),
}

# repr of every analytic route on a workload whose first-order amplitude, sqrt(2) * 1e300 * 1e10, overflows
# at budget 1, so the model reads budgets in a unit of the smallest power of four not below epsilon 2e100;
# at budgets 1e100 / 1e100, recorded at commit 2a2cafa. The analytic propagation's variance overflows there.
BUDGET_UNIT = {
    "score": (
        "UtilityReport(metric=1.4142135623730952e+210, us_terms={'s1': 1.414213562373095e-100, "
        "'s2': 1.414213562373095e-100}, ue_terms={'eq': 1.4142135623730952e+210}, "
        "options=MetricOptions(normalize_by_sensitivity=True, estimator='analytic', mc_samples=100000, "
        "min_budget_fraction=1e-06))"
    ),
    "descent": (
        "OptimizationResult(allocation=BudgetAllocation(budgets={'s1': 1.9999980000000002e+100, 's2': 2e+94}), "
        "metric=7.071074882940359e+209, iterations=2, converged=True, method='descent', gap=0.0)"
    ),
    "gradient": "{'s1': -1.414213562373095e+110, 's2': -1.414213562373095e-200}",
    "propagation": "NonFiniteError('the predicted variance overflows at this allocation (inf)')",
    "predicted_rmse": "{'s1': 1.4142135623730952e-90, 's2': 1.414213562373095e-100, 'eq': 1.4142135623730952e+210}",
}


def _run(argv: list[str]) -> tuple[int, bytes, bytes]:
    """The exit code, stdout bytes and stderr bytes of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def _stdout(argv: list[str]) -> bytes:
    code, out, _ = _run(argv)
    assert code == 0
    return out


def _dump_digest(directory: Path, name: str) -> bytes:
    """Runs case ``name``'s command with --dump-trials; returns the dump's sha256 line."""
    dump = directory / "trials.csv"
    assert _stdout([*CASES[name], "--dump-trials", str(dump)]) == _stdout(CASES[name])
    return (hashlib.sha256(dump.read_bytes()).hexdigest() + "\n").encode("ascii")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name):
    assert _run(CASES[name]) == (0, (GOLDEN / name).read_bytes(), b"")


@pytest.mark.parametrize("name", sorted(FAILING_CASES))
def test_failing_run_bytes_match_golden(name):
    code, argv = FAILING_CASES[name]
    assert _run(argv) == (code, (GOLDEN / name).read_bytes(), (GOLDEN / f"{name}.stderr").read_bytes())


def test_multichunk_dump_digest_matches_golden(tmp_path):
    name = "simulate_multichunk.json"
    assert _dump_digest(tmp_path, name) == (GOLDEN / DUMP_DIGESTS[name]).read_bytes()


def test_exclusion_dump_digest_matches_golden(tmp_path):
    name = "exclusion_simulate.json"
    assert _dump_digest(tmp_path, name) == (GOLDEN / DUMP_DIGESTS[name]).read_bytes()


def test_wide_dump_digest_matches_golden(tmp_path):
    name = "wide_simulate.json"
    assert _dump_digest(tmp_path, name) == (GOLDEN / DUMP_DIGESTS[name]).read_bytes()


def test_every_golden_file_belongs_to_one_case():
    # A case's files: its stdout, a failing run's stderr, a dumped case's digest.
    named = [*CASES, *FAILING_CASES, *(f"{name}.stderr" for name in FAILING_CASES), *DUMP_DIGESTS.values()]
    assert len(set(named)) == len(named)
    assert set(DUMP_DIGESTS) <= set(CASES)
    assert {path.name for path in GOLDEN.iterdir()} == set(named)


def test_montecarlo_propagation_matches_golden():
    workload = load_workload((DATA / "paper4.json").read_text(encoding="utf-8"))
    uniform = load_allocation(Path(_UNIFORM).read_text(encoding="utf-8"), workload)
    results = {
        equation.id: repr(propagate_variance_montecarlo(equation.expression, workload, uniform, 70000, seed=3))
        for equation in workload.equations
    }
    assert results == MONTECARLO_PROPAGATION


def test_exclusion_propagation_matches_golden():
    workload = load_workload((DATA / "exclusion.json").read_text(encoding="utf-8"))
    budgets = load_allocation((DATA / "exclusion_allocation.json").read_text(encoding="utf-8"), workload)
    results = {
        equation.id: repr(propagate_variance_montecarlo(equation.expression, workload, budgets, 50010, seed=6))
        for equation in workload.equations
    }
    assert results == EXCLUSION_PROPAGATION


def test_budget_unit_routes_match_golden():
    workload = make_workload(
        epsilon=2e100, stats=(("s1", 1e10, 1e-90), ("s2", 1.0, 1e300)), equations=(("eq", "s1 * s2", 1.0),)
    )
    alloc = allocation(workload, 1e100, 1e100)
    with pytest.raises(NonFiniteError) as propagation:
        propagate_variance_analytic(workload.equations[0].expression, workload, alloc)
    report = simulate_pipeline(workload, alloc, 2000, seed=3)
    summaries = {**report.per_statistic, **report.per_equation}
    predicted = {key: summary.predicted_rmse for key, summary in summaries.items()}
    results = {
        "score": repr(score_allocation(workload, alloc)),
        "descent": repr(optimize_descent(workload)),
        "gradient": repr(objective_gradient(workload, alloc)),
        "propagation": repr(propagation.value),
        "predicted_rmse": repr(predicted),
    }
    assert results == BUDGET_UNIT


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / name).write_bytes(_stdout(argv))
    for name, (code, argv) in FAILING_CASES.items():
        exit_code, out, err = _run(argv)
        assert exit_code == code
        (GOLDEN / name).write_bytes(out)
        (GOLDEN / f"{name}.stderr").write_bytes(err)
    with tempfile.TemporaryDirectory() as directory:
        for name, digest in DUMP_DIGESTS.items():
            (GOLDEN / digest).write_bytes(_dump_digest(Path(directory), name))

import csv
import errno
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpbudget import (
    allocation_to_dict,
    free_statistics,
    load_allocation,
    load_workload,
    noise_stream,
    sample_noise_batch,
    score_allocation,
    uniform_allocation,
    validate_allocation,
)
from dpbudget.cli import run_cli
from dpbudget.errors import DivisionNearZeroError
from dpbudget.expressions import evaluate
from dpbudget.simulation import _simulate

from helpers import DEEP_EXPRESSIONS, random_allocation, random_instance

DATA = Path(__file__).parent / "data"
PAPER = str(DATA / "paper4.json")
UNIFORM = str(DATA / "uniform.json")
TUNED = str(DATA / "tuned.json")
BAD_SUM = str(DATA / "bad_sum.json")
SRC = str(Path(__file__).resolve().parents[1] / "src")


def module_env(**overrides):
    """Environment for a ``python -m dpbudget`` child that finds the package in src/."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **overrides)


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "--workload", PAPER, "--allocation", UNIFORM, "--format", "text")
    assert code == 0
    assert out.strip() == "OK"


def test_validate_reports_budget_sum_mismatch(capsys):
    code, out, _ = run(capsys, "validate", "--workload", PAPER, "--allocation", BAD_SUM, "--format", "text")
    assert code == 1
    assert "BudgetSumMismatch" in out


def test_validate_json_lists_issues(capsys):
    code, out, _ = run(capsys, "validate", "--workload", PAPER, "--allocation", BAD_SUM)
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["issues"][0]["code"] == "BudgetSumMismatch"


def test_score_json_matches_library(capsys):
    code, out, _ = run(capsys, "score", "--workload", PAPER, "--allocation", UNIFORM)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"metric", "us_terms", "ue_terms", "options"}
    assert set(payload["us_terms"]) == {"s1", "s2", "s3", "s4"}
    assert set(payload["ue_terms"]) == {"eq1", "eq2"}
    workload = load_workload(Path(PAPER).read_text())
    alloc = load_allocation(Path(UNIFORM).read_text(), workload)
    assert payload["metric"] == score_allocation(workload, alloc).metric


def test_score_csv_has_fixed_columns(capsys):
    code, out, _ = run(capsys, "score", "--workload", PAPER, "--allocation", UNIFORM, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,id,value"
    assert lines[1].startswith("metric,,")
    assert [line.split(",")[1] for line in lines[2:6]] == ["s1", "s2", "s3", "s4"]
    assert [line.split(",")[1] for line in lines[6:8]] == ["eq1", "eq2"]


def test_compare_ranks_lower_metric_first(capsys):
    code, out, _ = run(capsys, "compare", "--workload", PAPER, UNIFORM, TUNED)
    assert code == 0
    ranking = json.loads(out)
    assert [entry["name"] for entry in ranking] == ["tuned.json", "uniform.json"]
    assert [entry["rank"] for entry in ranking] == [1, 2]
    assert ranking[0]["metric"] < ranking[1]["metric"]


def test_compare_accepts_repeatable_allocation_flag(capsys):
    code, out, _ = run(
        capsys, "compare", "--workload", PAPER, "--allocation", UNIFORM, "--allocation", TUNED,
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rank,name,metric"
    assert len(lines) == 3


def test_compare_needs_two_files(capsys):
    code, _, err = run(capsys, "compare", "--workload", PAPER, UNIFORM)
    assert code == 2
    assert "two allocation" in err


def test_optimize_writes_valid_allocation(tmp_path, capsys):
    out_path = tmp_path / "best.json"
    code, out, _ = run(capsys, "optimize", "--workload", PAPER, "--method", "descent", "--out", str(out_path))
    assert code == 0
    result = json.loads(out)
    assert result["method"] == "descent"
    assert result["converged"] is True
    code2, out2, _ = run(capsys, "validate", "--workload", PAPER, "--allocation", str(out_path), "--format", "text")
    assert code2 == 0
    assert out2.strip() == "OK"


def test_optimize_methods_agree_on_ordering(tmp_path, capsys):
    code_g, out_g, _ = run(capsys, "optimize", "--workload", PAPER, "--method", "grid", "--grid-resolution", "100")
    code_d, out_d, _ = run(capsys, "optimize", "--workload", PAPER, "--method", "descent")
    assert code_g == code_d == 0
    grid_metric = json.loads(out_g)["metric"]
    descent_metric = json.loads(out_d)["metric"]
    assert descent_metric <= grid_metric + 1e-3


def test_optimize_sqrt_on_coupled_workload_fails_cleanly(capsys):
    code, _, err = run(capsys, "optimize", "--workload", PAPER, "--method", "sqrt")
    assert code == 3
    assert "couples" in err


def test_optimize_nonconverged_exit_code(tmp_path, capsys):
    out_path = tmp_path / "alloc.json"
    code, _, err = run(
        capsys, "optimize", "--workload", PAPER, "--max-iters", "1", "--out", str(out_path)
    )
    assert code == 3
    assert not out_path.exists()
    code2, _, _ = run(
        capsys, "optimize", "--workload", PAPER, "--max-iters", "1", "--out", str(out_path),
        "--allow-nonconverged",
    )
    assert code2 == 0
    assert out_path.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--max-iters", "0"), ("--max-iters", "-3"), ("--max-iters", "2.5"),
     ("--tol", "nan"), ("--tol", "-0.5"), ("--tol", "inf"), ("--tol", "tight")],
)
def test_descent_iteration_cap_and_tolerance_are_usage_rules(capsys, flag, value):
    code, out, err = run(capsys, "optimize", "--workload", PAPER, flag, value)
    assert (code, out) == (2, "")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {flag}: " in errors[0], err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("simulate", "--allocation", UNIFORM, "--seed", "1", "--trials", trials), "--trials")
        for trials in ("0", "-2", "1e3")
    ]
    + [
        (("optimize", "--method", "grid", "--grid-resolution", resolution), "--grid-resolution")
        for resolution in ("5", "9", "fine")
    ]
    + [(("simulate", "--allocation", UNIFORM, "--seed", seed), "--seed") for seed in ("abc", str(1 << 64))],
)
def test_trial_count_and_grid_resolution_are_usage_rules(capsys, argv, flag):
    code, out, err = run(capsys, argv[0], "--workload", PAPER, *argv[1:])
    assert (code, out) == (2, "")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {flag}: " in errors[0], err


def test_a_valid_tolerance_bounds_the_descent_gap(capsys):
    code, out, err = run(capsys, "optimize", "--workload", PAPER, "--tol", "1e-6")
    result = json.loads(out)
    assert (code, err, result["converged"]) == (0, "", True)
    assert 0.0 <= result["gap"] <= 1e-6 * result["metric"]


def test_compare_prefixes_invalid_allocation_issues_with_the_path(capsys):
    code, out, err = run(capsys, "compare", "--workload", PAPER, UNIFORM, BAD_SUM)
    assert (code, out) == (1, "")
    assert err == f"BudgetSumMismatch: {BAD_SUM}: budgets sum to 1.1 but epsilon is 1.0\n"


@pytest.mark.parametrize("subcommand", ["optimize", "validate"])
def test_a_closed_stdout_is_a_usage_error_without_a_traceback(subcommand):
    # The reader's end is closed before the child starts, so its first write to stdout fails.
    reader, writer = os.pipe()
    os.close(reader)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "dpbudget", subcommand, "--workload", PAPER],
            stdout=writer, stderr=subprocess.PIPE, env=module_env(), timeout=60,
        )
    finally:
        os.close(writer)
    assert child.returncode == 2
    assert b"Traceback" not in child.stderr and b"Exception ignored" not in child.stderr, child.stderr


def test_optimize_descent_certifies_a_workload_whose_cubic_overflows(tmp_path, capsys):
    # s2's reference 1e300 makes s1's amplitude dwarf its coefficient; descent once printed NaN budgets here.
    workload = _write(tmp_path, "w.json", json.dumps({
        "epsilon": 1.0,
        "statistics": [
            {"id": "s1", "sensitivity": 1.0, "reference_value": 1.0},
            {"id": "s2", "sensitivity": 1.0, "reference_value": 1e300},
        ],
        "equations": [{"id": "eq", "expression": "s1 * s2", "sensitivity": 1.0}],
    }))
    code, out, err = run(capsys, "optimize", "--workload", workload)
    assert (code, err) == (0, "")
    result = json.loads(out)
    assert result["converged"] and 0.0 <= result["gap"] <= 1e-10 * result["metric"] < math.inf
    assert result["allocation"]["budgets"] == {"s1": pytest.approx(1.0 - 1e-6), "s2": 1e-6}


def test_simulate_requires_seed(capsys):
    code, _, err = run(capsys, "simulate", "--workload", PAPER, "--allocation", UNIFORM)
    assert code == 2
    assert "--seed" in err


def test_simulate_reports(capsys):
    code, out, _ = run(
        capsys, "simulate", "--workload", PAPER, "--allocation", UNIFORM, "--trials", "2000", "--seed", "0x2A"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 2000
    assert payload["seed"] == 42
    assert set(payload["per_statistic"]) == {"s1", "s2", "s3", "s4"}
    assert set(payload["per_equation"]) == {"eq1", "eq2"}


def test_simulate_dump_trials(tmp_path, capsys):
    dump = tmp_path / "trials.csv"
    code, _, _ = run(
        capsys, "simulate", "--workload", PAPER, "--allocation", UNIFORM, "--trials", "50",
        "--seed", "7", "--dump-trials", str(dump),
    )
    assert code == 0
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "trial,stat:s1,stat:s2,stat:s3,stat:s4,eq:eq1,eq:eq2"
    assert len(lines) == 51


def test_simulate_report_is_unchanged_by_trial_dump(tmp_path, capsys):
    argv = ("simulate", "--workload", PAPER, "--allocation", UNIFORM, "--trials", "40000", "--seed", "5")
    plain = run(capsys, *argv)
    dumped = run(capsys, *argv, "--dump-trials", str(tmp_path / "trials.csv"))
    assert plain[0] == 0
    assert plain == dumped


def test_heavy_tail_abort_names_the_equation(tmp_path, capsys):
    workload = tmp_path / "heavy.json"
    workload.write_text(json.dumps({
        "epsilon": 2.0,
        "statistics": [
            {"id": "s1", "sensitivity": 1.0, "reference_value": 10.0},
            {"id": "s4", "sensitivity": 1e-10, "reference_value": 1e-11},
        ],
        "equations": [
            {"id": "fine", "expression": "s1 + s4", "sensitivity": 1.0},
            {"id": "ratio", "expression": "s1 / s4", "sensitivity": 1.0},
        ],
    }))
    budgets = tmp_path / "budgets.json"
    budgets.write_text(json.dumps({"budgets": {"s1": 1.0, "s4": 1.0}}))
    for argv in (
        ("score", "--estimator", "montecarlo", "--mc-samples", "10000", "--seed", "3"),
        ("simulate", "--trials", "10000", "--seed", "3"),
    ):
        code, out, err = run(capsys, argv[0], "--workload", str(workload), "--allocation", str(budgets), *argv[1:])
        assert code == 3
        assert out == ""
        assert "'ratio'" in err
        assert "'fine'" not in err


def test_montecarlo_score_requires_seed(capsys):
    code, _, err = run(
        capsys, "score", "--workload", PAPER, "--allocation", UNIFORM, "--estimator", "montecarlo"
    )
    assert code == 2
    assert "--seed" in err


def test_montecarlo_score_runs_with_seed(capsys):
    code, out, _ = run(
        capsys, "score", "--workload", PAPER, "--allocation", UNIFORM,
        "--estimator", "montecarlo", "--mc-samples", "20000", "--seed", "11",
    )
    assert code == 0
    assert json.loads(out)["options"]["estimator"] == "montecarlo"


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "score", "--workload", "nope.json", "--allocation", UNIFORM)
    assert code == 2
    assert "not found" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "score", "--workload", PAPER, "--allocation", UNIFORM, "--bogus")
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_invalid_workload_document_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"epsilon": -1, "statistics": []}')
    code, _, err = run(capsys, "score", "--workload", str(bad), "--allocation", UNIFORM)
    assert code == 1
    assert "NonPositiveEpsilon" in err


def test_seeded_subcommands_are_byte_identical_across_runs(capsys):
    seeded_invocations = [
        ("score", "--workload", PAPER, "--allocation", UNIFORM,
         "--estimator", "montecarlo", "--mc-samples", "20000", "--seed", "31"),
        ("simulate", "--workload", PAPER, "--allocation", UNIFORM, "--trials", "3000", "--seed", "31"),
        ("compare", "--workload", PAPER, UNIFORM, TUNED,
         "--estimator", "montecarlo", "--mc-samples", "20000", "--seed", "31"),
    ]
    for argv in seeded_invocations:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0


def test_reports_are_byte_identical_across_hash_seeds(tmp_path):
    # Set iteration order over statistic ids changes with PYTHONHASHSEED, so
    # only separate processes can show a report that depends on it.
    rng = random.Random(4)
    workload = random_instance(rng, 30, neq=60)
    assert {len(free_statistics(eq.expression)) for eq in workload.equations} == {2, 3}
    paths = {}
    for name, document in (
        ("workload", workload.to_dict()),
        ("random", allocation_to_dict(random_allocation(rng, workload))),
        ("uniform", allocation_to_dict(uniform_allocation(workload))),
    ):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(document), encoding="utf-8")
    invocations = [
        ("score", "--workload", paths["workload"], "--allocation", paths["random"]),
        ("compare", "--workload", paths["workload"], paths["random"], paths["uniform"]),
        ("simulate", "--workload", paths["workload"], "--allocation", paths["random"],
         "--trials", "2000", "--seed", "17"),
    ]
    for argv in invocations:
        outputs = []
        for hash_seed in ("0", "1"):
            completed = subprocess.run(
                [sys.executable, "-m", "dpbudget", *map(str, argv)],
                capture_output=True,
                env=module_env(PYTHONHASHSEED=hash_seed),
            )
            assert completed.returncode == 0, completed.stderr.decode()
            outputs.append(completed.stdout)
        assert outputs[0] == outputs[1], argv[0]


def test_module_entry_point_runs():
    completed = subprocess.run(
        [sys.executable, "-m", "dpbudget", "validate", "--workload", PAPER, "--format", "text"],
        capture_output=True,
        text=True,
        env=module_env(),
    )
    assert completed.returncode == 0
    assert completed.stdout.strip() == "OK"


def test_text_formats_smoke(capsys):
    for argv in (
        ("score", "--workload", PAPER, "--allocation", UNIFORM, "--format", "text"),
        ("compare", "--workload", PAPER, UNIFORM, TUNED, "--format", "text"),
        ("optimize", "--workload", PAPER, "--method", "grid", "--grid-resolution", "60", "--format", "text"),
        ("simulate", "--workload", PAPER, "--allocation", UNIFORM, "--trials", "1500", "--seed", "9",
         "--format", "csv"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_integers_past_float_range_are_malformed_documents(tmp_path, capsys):
    big = "9" * 401
    paper = (DATA / "paper4.json").read_text()
    big_epsilon = _write(tmp_path, "epsilon.json", paper.replace('"epsilon": 1.0', f'"epsilon": {big}'))
    big_sensitivity = _write(tmp_path, "sensitivity.json", paper.replace('"sensitivity": 2.0', f'"sensitivity": {big}'))
    big_budget = _write(tmp_path, "budget.json", '{"budgets": {"s1": %s, "s2": 0.25, "s3": 0.25, "s4": 0.25}}' % big)
    for argv in (
        ("validate", "--workload", big_epsilon),
        ("validate", "--workload", big_sensitivity),
        ("validate", "--workload", PAPER, "--allocation", big_budget),
    ):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 1, argv
        payload = json.loads(out)
        assert payload["valid"] is False
        assert [issue["code"] for issue in payload["issues"]] == ["MalformedDocument"], argv
    code, out, err = run(capsys, "score", "--workload", PAPER, "--allocation", big_budget)
    assert (code, out) == (1, "")
    assert err.startswith("MalformedDocument: budget for 's1' must be a finite number")


def test_unparseable_json_is_malformed_document(tmp_path, capsys):
    past_digit_limit = _write(tmp_path, "digits.json", '{"epsilon": %s, "statistics": []}' % ("9" * 5000))
    past_recursion_limit = _write(tmp_path, "nested.json", '{"epsilon": %s%s}' % ("[" * 100000, "]" * 100000))
    for path in (past_digit_limit, past_recursion_limit):
        code, out, _ = run(capsys, "validate", "--workload", path, "--format", "json")
        assert code == 1
        assert [issue["code"] for issue in json.loads(out)["issues"]] == ["MalformedDocument"]


def test_monte_carlo_sample_floor_is_a_validation_and_usage_rule(tmp_path, capsys):
    paper = json.loads((DATA / "paper4.json").read_text())
    paper["options"].update(estimator="montecarlo", mc_samples=500)
    few = _write(tmp_path, "few.json", json.dumps(paper))
    code, out, _ = run(capsys, "validate", "--workload", few, "--format", "json")
    assert code == 1
    assert [(issue["code"], issue["message"]) for issue in json.loads(out)["issues"]] == [
        ("MalformedDocument", "options.mc_samples must be an integer of at least 1000, got 500")
    ]
    for samples in ("0", "999", "lots"):
        code, out, err = run(
            capsys, "score", "--workload", PAPER, "--allocation", UNIFORM,
            "--estimator", "montecarlo", "--mc-samples", samples, "--seed", "1",
        )
        assert (code, out) == (2, ""), samples
        assert "--mc-samples" in err


def test_trial_dump_cells_match_the_series(tmp_path, capsys):
    # The s1 / d instance of test_propagation.py: d's noise crosses zero in a
    # few trials, which are excluded (an empty cell in the dump).
    document = json.dumps({
        "epsilon": 2.0,
        "statistics": [
            {"id": "s1", "sensitivity": 1.0, "reference_value": 10.0},
            {"id": "d", "sensitivity": 2e-9, "reference_value": 1e-9},
        ],
        "equations": [{"id": "q", "expression": "s1 / d", "sensitivity": 1.0}],
    })
    budgets = '{"budgets": {"s1": 1.0, "d": 1.0}}'
    dump = tmp_path / "trials.csv"
    trials = 50_010
    code, _, _ = run(
        capsys, "simulate", "--workload", _write(tmp_path, "w.json", document),
        "--allocation", _write(tmp_path, "a.json", budgets), "--trials", str(trials), "--seed", "6",
        "--dump-trials", str(dump),
    )
    assert code == 0
    # The reference: one draw per statistic's stream, and each trial's equation
    # evaluated one at a time, refused where its denominator is within DIVISION_GUARD.
    workload = load_workload(document)
    alloc = load_allocation(budgets, workload)
    refs = workload.reference_values()
    noise = {
        spec.id: sample_noise_batch(spec.sensitivity / alloc.budgets[spec.id], noise_stream(6, index), trials).tolist()
        for index, spec in enumerate(workload.statistics)
    }
    equation = workload.equations[0].expression
    reference_output = evaluate(equation, refs)
    with open(dump, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["trial", "stat:s1", "stat:d", "eq:q"]
    assert len(rows) == trials + 1
    for t, row in enumerate(rows[1:]):
        released = {stat_id: refs[stat_id] + noise[stat_id][t] for stat_id in refs}
        expected = [str(t)] + [repr(released[stat_id] - refs[stat_id]) for stat_id in workload.statistic_ids]
        try:
            expected.append(repr(evaluate(equation, released) - reference_output))
        except DivisionNearZeroError:
            expected.append("")
        assert row == expected, t
    assert 0 < sum(row[3] == "" for row in rows[1:]) < 50


def test_unwritable_output_paths_are_usage_errors(tmp_path, capsys):
    missing = str(tmp_path / "no" / "such" / "dir" / "out")
    for path in (missing, str(tmp_path)):
        for argv in (
            ("optimize", "--workload", PAPER, "--out", path),
            ("simulate", "--workload", PAPER, "--allocation", UNIFORM, "--seed", "1", "--dump-trials", path),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1, err
    assert [p.name for p in tmp_path.iterdir()] == []


def test_failed_simulation_leaves_no_dump(tmp_path, capsys):
    heavy = _write(tmp_path, "heavy.json", json.dumps({
        "epsilon": 2.0,
        "statistics": [
            {"id": "s1", "sensitivity": 1.0, "reference_value": 10.0},
            {"id": "s4", "sensitivity": 1e-10, "reference_value": 1e-11},
        ],
        "equations": [{"id": "ratio", "expression": "s1 / s4", "sensitivity": 1.0}],
    }))
    # Noise scale 1e308: its predicted rmse is finite, its largest draws are not.
    overflowing = _write(tmp_path, "huge.json", json.dumps({
        "epsilon": 1e-8,
        "statistics": [{"id": "s1", "sensitivity": 1e300, "reference_value": 1.0}],
        "equations": [],
    }))
    budgets = _write(tmp_path, "budgets.json", '{"budgets": {"s1": 1.0, "s4": 1.0}}')
    tiny = _write(tmp_path, "tiny.json", '{"budgets": {"s1": 1e-8}}')
    kept = tmp_path / "kept.csv"
    fresh = tmp_path / "fresh.csv"
    kept.write_text("an earlier dump\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    for workload, allocation, trials, expected, error in (
        (heavy, budgets, "10000", 3, "error: equation 'ratio': "),
        (overflowing, tiny, "1000", 3, "error: statistic 's1': "),
        (PAPER, UNIFORM, "0", 2, "error: argument --trials: trials must be an integer of at least 1"),
    ):
        for dump in (kept, fresh):
            code, out, err = run(
                capsys, "simulate", "--workload", workload, "--allocation", allocation, "--trials", trials,
                "--seed", "3", "--dump-trials", str(dump),
            )
            assert (code, out) == (expected, ""), workload
            assert error in err.splitlines()[-1], err
            assert sorted(p.name for p in tmp_path.iterdir()) == before
            assert kept.read_text() == "an earlier dump\n"


def test_trial_dump_memory_does_not_grow_with_trials(tmp_path, capsys):
    # 13 chunks: holding the whole run's series and their cells peaked near 40 MB;
    # the dump holds one chunk's cells at a time.
    workload = _write(tmp_path, "w.json", json.dumps({
        "epsilon": 1.0,
        "statistics": [{"id": "s1", "sensitivity": 1.0, "reference_value": 10.0}],
        "equations": [{"id": "eq", "expression": "2 * s1", "sensitivity": 1.0}],
    }))
    budgets = _write(tmp_path, "a.json", '{"budgets": {"s1": 1.0}}')
    dump = tmp_path / "trials.csv"
    argv = ["simulate", "--workload", workload, "--allocation", budgets, "--seed", "1", "--dump-trials", str(dump)]
    assert run_cli([*argv, "--trials", "10"]) == 0  # imports the simulating modules, which would count below
    trials = 200_000
    tracemalloc.start()
    try:
        code = run_cli([*argv, "--trials", str(trials)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 8 * 10**6
    with open(dump, encoding="utf-8") as handle:
        assert sum(1 for _ in handle) == trials + 1


def test_a_wide_trial_dump_holds_a_few_megabytes_beyond_the_kernel(tmp_path, capsys):
    # 1003 columns. Formatting a chunk's cells all at once held a million strings here, some 80 MB (a
    # 1300-column dump of 16384 trials peaked at 2 GB RSS); a slice of the chunk holds a few MB.
    n, trials = 1000, 1000
    document = {
        "epsilon": float(n),
        "statistics": [{"id": f"s{i}", "sensitivity": 1.0, "reference_value": 100.0 + i} for i in range(n)],
        "equations": [
            {"id": "sum", "expression": "s0 + s1", "sensitivity": 1.0},
            {"id": "ratio", "expression": "s2 / s3", "sensitivity": 1.0},
        ],
    }
    workload = _write(tmp_path, "w.json", json.dumps(document))
    budgets = _write(tmp_path, "a.json", json.dumps({"budgets": {f"s{i}": 1.0 for i in range(n)}}))
    dump = tmp_path / "trials.csv"
    argv = ["simulate", "--workload", workload, "--allocation", budgets, "--seed", "1", "--dump-trials", str(dump)]
    assert run_cli([*argv, "--trials", "10"]) == 0  # imports the simulating modules, which would count below
    loaded = load_workload(Path(workload).read_text(encoding="utf-8"))
    alloc = load_allocation(Path(budgets).read_text(encoding="utf-8"), loaded)
    tracemalloc.start()
    try:
        # The kernel's own peak, with a sink that keeps its chunk errors alive as the dump's does.
        _simulate(loaded, alloc, trials, 1, lambda start, chunk_errors: None)
        _, kernel_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        code = run_cli([*argv, "--trials", str(trials)])
        _, dump_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert dump_peak - kernel_peak < 8 * 10**6
    with open(dump, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert len(lines) == trials + 1
    assert {line.count(",") for line in lines} == {n + 2}


def test_non_utf8_documents_are_malformed(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    for argv in (("--workload", str(binary)), ("--workload", PAPER, "--allocation", str(binary))):
        code, out, _ = run(capsys, "validate", *argv, "--format", "json")
        assert code == 1
        assert [issue["code"] for issue in json.loads(out)["issues"]] == ["MalformedDocument"]
        code, out, _ = run(capsys, "validate", *argv, "--format", "csv")
        assert code == 1
        assert out.splitlines()[1].startswith("MalformedDocument,,invalid UTF-8: ")
    code, out, err = run(capsys, "score", "--workload", str(binary), "--allocation", UNIFORM)
    assert (code, out) == (1, "")
    assert err.startswith("MalformedDocument: invalid UTF-8: ")


@pytest.mark.parametrize("unreadable", ["workload", "allocation"])
def test_an_unreadable_document_is_a_usage_error(monkeypatch, capsys, unreadable):
    path = {"workload": PAPER, "allocation": UNIFORM}[unreadable]
    read_text = Path.read_text

    def refuse(self, *args, **kwargs):
        if str(self) == path:
            raise PermissionError(errno.EACCES, "Permission denied", path)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", refuse)
    for argv in (
        ("validate", "--workload", PAPER, "--allocation", UNIFORM, "--format", "text"),
        ("score", "--workload", PAPER, "--allocation", UNIFORM),
    ):
        assert run(capsys, *argv) == (2, "", f"error: cannot read {path}: Permission denied\n"), argv


@pytest.mark.parametrize("shape", sorted(DEEP_EXPRESSIONS))
def test_deep_expressions_run_through_the_cli(tmp_path, capsys, shape):
    workload = _write(tmp_path, "deep.json", json.dumps({
        "epsilon": 1.0,
        "statistics": [
            {"id": "s1", "sensitivity": 1e-3, "reference_value": 1.0},
            {"id": "s2", "sensitivity": 1e-3, "reference_value": 2.0},
        ],
        "equations": [{"id": "deep", "expression": DEEP_EXPRESSIONS[shape], "sensitivity": 1.0}],
    }))
    budgets = _write(tmp_path, "budgets.json", '{"budgets": {"s1": 0.5, "s2": 0.5}}')
    for argv in (
        ("validate",),
        ("score",),
        ("score", "--estimator", "montecarlo", "--mc-samples", "1000", "--seed", "1"),
        ("simulate", "--trials", "1000", "--seed", "1"),
    ):
        code, out, err = run(capsys, argv[0], "--workload", workload, "--allocation", budgets, *argv[1:])
        assert (code, err) == (0, ""), argv
        json.loads(out)


def test_a_sum_over_twenty_thousand_statistics_runs_in_linear_time(tmp_path, capsys):
    # One equation summing every statistic: a gradient that merges a dict per node takes ~9 s at 8,000 terms.
    n = 20_000
    ids = [f"s{i}" for i in range(n)]
    workload = _write(tmp_path, "wide.json", json.dumps({
        "epsilon": 1.0,
        "statistics": [{"id": stat_id, "sensitivity": 1.0, "reference_value": 10.0} for stat_id in ids],
        "equations": [{"id": "total", "expression": " + ".join(ids), "sensitivity": 1.0}],
    }))
    budgets = _write(tmp_path, "budgets.json", json.dumps({"budgets": {stat_id: 1.0 / n for stat_id in ids}}))
    start = time.perf_counter()
    for argv in (("validate", "--allocation", budgets), ("score", "--allocation", budgets), ("optimize",)):
        code, out, err = run(capsys, argv[0], "--workload", workload, *argv[1:])
        assert (code, err) == (0, ""), argv
        strict_json(out)
    assert time.perf_counter() - start < 60.0


TINY = 2.2250738585072014e-308  # the smallest normal float
OVERFLOWING = {
    # (statistic (sensitivity, reference) pairs, equation, budgets, how stderr starts)
    "at the reference": ([(1.0, 1e300), (1.0, 1.0)], "s1 * s1", [0.5, 0.5], "error: equation 'eq': "),
    "budgets too small": ([(1.0, 1.0), (1.0, 1.0)], "s1 + s2", [TINY / 2, TINY / 2], "error: "),
    # At epsilon 1 the budget unit stays 1, where s2's first-order amplitude, sqrt(2) * 1e300 * 1e10, is inf
    # (the Monte Carlo score builds no amplitude: its errors overflow).
    "amplitude at budget unit 1": ([(1.0, 1e300), (1e10, 1.0)], "s1 * s2", [0.5, 0.5], "error: equation 'eq': "),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING))
def test_overflowing_values_are_a_computation_error(tmp_path, capsys, case):
    statistics, expression, budgets, prefix = OVERFLOWING[case]
    workload = _write(tmp_path, "huge.json", json.dumps({
        "epsilon": sum(budgets),
        "statistics": [
            {"id": f"s{i + 1}", "sensitivity": sensitivity, "reference_value": reference}
            for i, (sensitivity, reference) in enumerate(statistics)
        ],
        "equations": [{"id": "eq", "expression": expression, "sensitivity": 1.0}],
    }))
    budgets = _write(tmp_path, "budgets.json", json.dumps({"budgets": {"s1": budgets[0], "s2": budgets[1]}}))
    for argv in (
        ("score", "--allocation", budgets),
        ("score", "--allocation", budgets, "--estimator", "montecarlo", "--mc-samples", "1000", "--seed", "1"),
        ("compare", budgets, budgets),
        ("optimize",),
        ("simulate", "--allocation", budgets, "--trials", "1000", "--seed", "1"),
    ):
        code, out, err = run(capsys, argv[0], "--workload", workload, *argv[1:])
        assert (code, out) == (3, ""), argv
        assert err.startswith(prefix), argv


_TINY_BUDGETS = ([(1.0, 1.0), (1.0, 1.0)], "s1 + s2", [TINY / 2, TINY / 2])
OVERFLOW_RUNS = {
    # (statistics' (sensitivity, reference) pairs, equation, budgets), subcommand and flags
    "score, budgets too small": (_TINY_BUDGETS, ("score",)),
    "montecarlo score, budgets too small": (
        _TINY_BUDGETS, ("score", "--estimator", "montecarlo", "--mc-samples", "1000", "--seed", "1"),
    ),
    "compare, budgets too small": (_TINY_BUDGETS, ("compare",)),
    "optimize, budgets too small": (_TINY_BUDGETS, ("optimize",)),
    "optimize grid, budgets too small": (_TINY_BUDGETS, ("optimize", "--method", "grid")),
    "simulate, budgets too small": (_TINY_BUDGETS, ("simulate", "--trials", "1000", "--seed", "1")),
    # s1 is in no equation and its noise scale, 1e308, and predicted rmse are finite, but its
    # largest draws overflow. (Squares that overflow are rescaled, so budget 0.5 would simulate.)
    "simulate, sensitivity 1e300": (
        ([(1e300, 1.0), (1.0, 1.0)], "2 * s2", [1e-8, 0.5]), ("simulate", "--trials", "1000", "--seed", "1"),
    ),
    # s1's noise scale, 1e10 / 5e-301, overflows, which the kernel refuses, naming s1, before any draw.
    "montecarlo score, noise scale overflows": (
        ([(1e10, 1.0), (1.0, 1.0)], "s1 + s2", [5e-301, 5e-301]),
        ("score", "--estimator", "montecarlo", "--mc-samples", "1000", "--seed", "1"),
    ),
}


@pytest.mark.parametrize("case", sorted(OVERFLOW_RUNS))
def test_overflow_prints_only_the_error_line(tmp_path, capsys, case):
    (statistics, expression, budgets), argv = OVERFLOW_RUNS[case]
    workload = _write(tmp_path, "huge.json", json.dumps({
        "epsilon": sum(budgets),
        "statistics": [
            {"id": f"s{i + 1}", "sensitivity": sensitivity, "reference_value": reference}
            for i, (sensitivity, reference) in enumerate(statistics)
        ],
        "equations": [{"id": "eq", "expression": expression, "sensitivity": 1.0}],
    }))
    allocation = _write(tmp_path, "budgets.json", json.dumps({"budgets": {"s1": budgets[0], "s2": budgets[1]}}))
    subcommand, *flags = argv
    if subcommand == "compare":
        flags = [allocation, allocation]
    elif subcommand != "optimize":
        flags = ["--allocation", allocation, *flags]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, subcommand, "--workload", workload, *flags)
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_optimize_reports_the_gap(capsys):
    code, out, _ = run(capsys, "optimize", "--workload", PAPER)
    assert code == 0
    result = json.loads(out)
    assert 0.0 <= result["gap"] <= 1e-10 * result["metric"]
    code, out, _ = run(capsys, "optimize", "--workload", PAPER, "--method", "grid", "--format", "text")
    assert code == 0
    assert ", gap " in out.splitlines()[0]


def test_grid_over_its_cell_cap_is_refused(capsys):
    code, out, err = run(capsys, "optimize", "--workload", PAPER, "--method", "grid", "--grid-resolution", "3000")
    assert (code, out) == (3, "")
    assert err == "error: resolution 3000 needs 4491005499 lattice cells, over the cap of 4194304\n"


# Mostly well-formed values, so that many documents get past validation to
# score and simulate, with malformed and extreme ones mixed in.
def _mostly(common, rare):
    """``common`` nine times in ten, ``rare`` otherwise."""
    return st.integers(0, 9).flatmap(lambda roll: rare if roll == 0 else common)


_anything = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3))
_numbers = _mostly(
    st.floats(min_value=0.1, max_value=50.0),
    st.one_of(st.sampled_from([0, 1e-300, 1e-13, 1e200, 1e300, 10**400]), _anything),
)
_references = _mostly(st.floats(min_value=-50.0, max_value=50.0), st.one_of(st.sampled_from([1e-13, 1e300]), _anything))
_arithmetic = st.recursive(
    st.sampled_from(["s1", "s2", "s3", "2", "0.5", "0"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        inner.map(lambda e: f"-{e}"),
    ),
    max_leaves=8,
)
_expressions = _mostly(
    _arithmetic,
    st.one_of(
        st.text(alphabet="s12 +-*/().e9$", max_size=30),
        st.sampled_from(["s1 / (s2 - s2)", "s1 / (s2 - 1e-13)", "1e999", *DEEP_EXPRESSIONS.values()]),
    ),
)
_statistics = st.lists(
    st.fixed_dictionaries({"sensitivity": _numbers, "reference_value": _references}), min_size=1, max_size=3
).map(lambda entries: [{"id": f"s{i + 1}", **entry} for i, entry in enumerate(entries)])
_equations = st.lists(
    st.fixed_dictionaries({"expression": _expressions, "sensitivity": _numbers}), max_size=3
).map(lambda entries: [{"id": f"eq{j + 1}", **entry} for j, entry in enumerate(entries)])
_documents = st.fixed_dictionaries(
    {"epsilon": _numbers, "statistics": _mostly(_statistics, _anything), "equations": _equations},
    optional={
        "options": st.fixed_dictionaries({}, optional={
            "estimator": st.sampled_from(["analytic", "montecarlo", "other"]),
            "mc_samples": st.one_of(st.integers(0, 2000), _anything),
            "min_budget_fraction": _numbers,
            "normalize_by_sensitivity": st.one_of(st.booleans(), _anything),
        }),
    },
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document=_mostly(_documents, _anything))
def test_fuzzed_documents_end_in_a_documented_exit_code(tmp_path, capsys, document):
    statistics = document.get("statistics") if isinstance(document, dict) else None
    ids = [entry["id"] for entry in statistics] if isinstance(statistics, list) else []
    epsilon = document.get("epsilon") if isinstance(document, dict) else None
    share = epsilon / len(ids) if ids and isinstance(epsilon, float) and math.isfinite(epsilon) else 1.0
    workload = _write(tmp_path, "fuzz.json", json.dumps(document))
    budgets = _write(tmp_path, "budgets.json", json.dumps({"budgets": {stat_id: share for stat_id in ids}}))
    code, out, err = run(capsys, "validate", "--workload", workload, "--allocation", budgets, "--format", "json")
    assert code in (0, 1)
    assert strict_json(out)["valid"] is (code == 0)
    for argv in (
        ("score", "--allocation", budgets),
        ("score", "--allocation", budgets, "--estimator", "montecarlo", "--mc-samples", "1000", "--seed", "1"),
        ("simulate", "--allocation", budgets, "--trials", "200", "--seed", "1"),
        ("optimize",),
        ("optimize", "--method", "grid", "--grid-resolution", "30"),
    ):
        code, out, err = run(capsys, argv[0], "--workload", workload, *argv[1:])
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err
        if code == 0:
            strict_json(out)
        if argv[0] == "simulate":
            # The dump changes no report, and a failed run leaves none.
            dump = tmp_path / "trials.csv"
            dump.unlink(missing_ok=True)
            dumped = run(capsys, argv[0], "--workload", workload, *argv[1:], "--dump-trials", str(dump))
            assert dumped == (code, out, err)
            left = {"budgets.json", "fuzz.json", "trials.csv"} if code == 0 else {"budgets.json", "fuzz.json"}
            assert {p.name for p in tmp_path.iterdir()} == left
            if code == 0:
                assert dump.read_text(encoding="utf-8").count("\n") == 201

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dpbudget import (
    allocation_to_dict,
    free_statistics,
    load_allocation,
    load_workload,
    score_allocation,
    uniform_allocation,
    validate_allocation,
)
from dpbudget.cli import run_cli

from helpers import random_allocation, random_instance

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

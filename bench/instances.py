"""Seeded instance generator for the benchmark workloads.

Every document the benchmark feeds to dpbudget is built here from the
workload name and seed alone, so the same seed always gives byte-identical
inputs. Nothing here imports dpbudget: the program receives only the
generated JSON documents.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# The paper's reference instance (README "Documents" example): four counts,
# one linear and one quotient equation.
PAPER4 = {
    "epsilon": 1.0,
    "options": {
        "normalize_by_sensitivity": True,
        "estimator": "analytic",
        "mc_samples": 100000,
        "min_budget_fraction": 1e-06,
    },
    "statistics": [
        {"id": "s1", "label": "first count", "sensitivity": 1.0, "reference_value": 10.0},
        {"id": "s2", "label": "second count", "sensitivity": 1.0, "reference_value": 20.0},
        {"id": "s3", "label": "third count", "sensitivity": 1.0, "reference_value": 7.0},
        {"id": "s4", "label": "population", "sensitivity": 1.0, "reference_value": 100.0},
    ],
    "equations": [
        {"id": "eq1", "expression": "s2 + s3", "sensitivity": 2.0},
        {"id": "eq2", "expression": "(s1 + s2) / s4", "sensitivity": 1.0},
    ],
}

# Coupled equation shapes: linear, product and quotient, as an analyst
# combines released counts.
_COUPLED_PATTERNS = ("{a} + {b}", "{a} - {b}", "{a} * {b}", "({a} + {b}) / {c}", "{a} + {b} + {c}")
# One-statistic shapes, so the square-root rule's closed form applies.
_SEPARABLE_PATTERNS = ("{a}", "2.5 * {a}", "{a} / 4.0", "{a} + 1.5", "{a} * {a}")

# Allocation weights are drawn from this range before normalizing to
# epsilon, so no budget is smaller than a fifth of the largest.
_WEIGHT_RANGE = (0.2, 1.0)
# With epsilon equal to the number of statistics, every pool budget is at
# least 1/3 and every noise sd at most sqrt(2) * 2.0 * 3 < 8.5; reference
# values of 100 and more keep every denominator over 11 sd from zero.
_REFERENCE_RANGE = (100.0, 1000.0)
_SENSITIVITY_RANGE = (0.5, 2.0)
_EQ_SENSITIVITY_RANGE = (0.5, 3.0)


# The CLI subcommands the benchmark times, each a fresh `python -m dpbudget`.
CLI_SUBCOMMANDS = ("validate", "score", "compare", "optimize_descent", "optimize_grid", "optimize_sqrt", "simulate")


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: instance shape, call sizes and why it exists."""

    name: str
    why: str
    statistics: int
    equations: int
    mc_samples: int
    sim_trials: int
    # In-process calls per round, by end-to-end metric: cheap calls repeat so
    # that every median in a run rests on enough samples.
    per_round: dict[str, int]
    # CLI subcommands per round. The 300x1000 workload times two `validate`
    # calls and one `score`, so that a round stays short; its traced run times
    # the whole subcommand mix. The slow subcommands are a seventh to a third
    # of each mix, so cli_p90_ms falls among them, not in the noise tail of
    # identical calls, and cli_ms among the fast ones.
    cli_mix: tuple[str, ...]


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="analytic-300x1000",
            why="coupled 300x1000 instance: the closed-form path (validation, gradients, "
            "dense model build) dominates and Monte Carlo is light",
            statistics=300,
            equations=1000,
            mc_samples=1_000,
            sim_trials=10_000,
            per_round={"score": 2, "compare": 1, "optimize": 1, "mc_score": 1, "simulate": 1},
            cli_mix=("validate", "validate", "score"),
        ),
        WorkloadSpec(
            name="montecarlo-50x100",
            why="well-conditioned coupled 50x100 instance: noise sampling, batch evaluation "
            "and trimming dominate in process; its CLI calls are dominated by start-up and import",
            statistics=50,
            equations=100,
            mc_samples=100_000,
            sim_trials=100_000,
            per_round={"score": 8, "compare": 4, "optimize": 4, "mc_score": 1, "simulate": 1},
            cli_mix=CLI_SUBCOMMANDS,
        ),
    )
}

POOL_SIZE = 4


def coupled_workload(rng: random.Random, statistics: int, equations: int) -> dict:
    """Random coupled workload whose denominators stay far from zero under noise."""
    stats = [
        {
            "id": f"s{i + 1}",
            "label": "",
            "sensitivity": round(rng.uniform(*_SENSITIVITY_RANGE), 3),
            "reference_value": round(rng.uniform(*_REFERENCE_RANGE), 3),
        }
        for i in range(statistics)
    ]
    ids = [s["id"] for s in stats]
    eqs = []
    for j in range(equations):
        pattern = rng.choice(_COUPLED_PATTERNS)
        picks = rng.sample(ids, 3 if "{c}" in pattern else 2)
        eqs.append(
            {
                "id": f"eq{j + 1}",
                "expression": pattern.format(a=picks[0], b=picks[1], c=picks[-1]),
                "sensitivity": round(rng.uniform(*_EQ_SENSITIVITY_RANGE), 3),
            }
        )
    return _document(float(statistics), stats, eqs)


def separable_workload(rng: random.Random, statistics: int) -> dict:
    """Companion with one single-statistic equation per statistic."""
    stats = [
        {
            "id": f"s{i + 1}",
            "label": "",
            "sensitivity": round(rng.uniform(*_SENSITIVITY_RANGE), 3),
            "reference_value": round(rng.uniform(*_REFERENCE_RANGE), 3),
        }
        for i in range(statistics)
    ]
    eqs = [
        {
            "id": f"eq{i + 1}",
            "expression": rng.choice(_SEPARABLE_PATTERNS).format(a=stat["id"]),
            "sensitivity": round(rng.uniform(*_EQ_SENSITIVITY_RANGE), 3),
        }
        for i, stat in enumerate(stats)
    ]
    return _document(float(statistics), stats, eqs)


def _document(epsilon: float, stats: list[dict], eqs: list[dict]) -> dict:
    options = dict(PAPER4["options"])
    return {"epsilon": epsilon, "options": options, "statistics": stats, "equations": eqs}


def allocation_pool(rng: random.Random, document: dict, size: int) -> list[dict]:
    """Uniform split first, then ``size - 1`` random splits that sum to epsilon."""
    ids = [s["id"] for s in document["statistics"]]
    epsilon = document["epsilon"]
    pool = [{stat_id: epsilon / len(ids) for stat_id in ids}]
    for _ in range(size - 1):
        weights = [rng.uniform(*_WEIGHT_RANGE) for _ in ids]
        total = sum(weights)
        budgets = [epsilon * w / total for w in weights]
        # Put the rounding residue on the largest budget so the sum is exact.
        largest = max(range(len(ids)), key=budgets.__getitem__)
        budgets[largest] += epsilon - sum(budgets)
        pool.append(dict(zip(ids, budgets)))
    return [{"budgets": budgets} for budgets in pool]


def expression_nodes(text: str) -> int:
    """Tree nodes of an expression, counted on its text: every number,
    identifier and operator is one node, parentheses are none."""
    nodes = 0
    previous_operand = False
    for char in text:
        if char.isalnum() or char in "._":
            if not previous_operand:
                nodes += 1
            previous_operand = True
        else:
            previous_operand = False
            if char in "+-*/":
                nodes += 1
    return nodes


@dataclass(frozen=True)
class Inputs:
    """Paths of one workload's generated documents."""

    directory: Path
    main: Path
    separable: Path
    small: Path
    pool: tuple[Path, ...]
    separable_pool: tuple[Path, ...]
    small_pool: tuple[Path, ...]
    nodes: int


def generate(spec: WorkloadSpec, seed: int, directory: Path) -> Inputs:
    """Writes the workload's documents under ``directory``.

    ``main`` is the instance every in-process call and most CLI calls run on;
    ``separable`` is its same-size companion for the square-root rule;
    ``small`` is the paper's 4x2 document, the only size grid search takes.

    The two instances are the same for every seed: descent's iteration count
    ranges from 22 to 60 over random 50x100 instances, so a seeded instance
    would make the run-to-run spread of optimize_ms measure the instance, not
    the program. The seed draws the allocation pools; the benchmark also
    passes it to every Monte Carlo score and simulation.
    """
    instance_rng = random.Random(f"dpbudget-bench:{spec.name}:instance")
    main = coupled_workload(instance_rng, spec.statistics, spec.equations)
    separable = separable_workload(instance_rng, spec.statistics)
    rng = random.Random(f"dpbudget-bench:{spec.name}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    main_pool = allocation_pool(rng, main, POOL_SIZE)
    separable_pool = allocation_pool(rng, separable, 2)
    small_pool = allocation_pool(rng, PAPER4, 2)

    def write(name: str, document: dict) -> Path:
        path = directory / name
        path.write_text(json.dumps(document, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        return path

    return Inputs(
        directory=directory,
        main=write("workload.json", main),
        separable=write("separable.json", separable),
        small=write("paper4.json", PAPER4),
        pool=tuple(write(f"alloc{k}.json", doc) for k, doc in enumerate(main_pool)),
        separable_pool=tuple(write(f"separable_alloc{k}.json", doc) for k, doc in enumerate(separable_pool)),
        small_pool=tuple(write(f"paper4_alloc{k}.json", doc) for k, doc in enumerate(small_pool)),
        nodes=sum(expression_nodes(eq["expression"]) for eq in main["equations"]),
    )

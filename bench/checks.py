"""Output checks: an independent closed form of the analytic metric and the
invariants every benchmarked result must satisfy.

The closed form is assembled here from three inputs only: the program's
``gradient_at_reference`` per equation, the sensitivities and the budgets.
A statistic's term is sqrt(2) * s_i / b_i (s_i = 1 when normalizing), an
equation's is sqrt(sum_i 2 g_i^2 s_i^2 / b_i^2) / n_j (n_j its sensitivity
when normalizing, else 1).
"""

from __future__ import annotations

import math

# Relative agreement required between a reported analytic value and the closed form.
ANALYTIC_RTOL = 1e-9
# Relative agreement required between the Monte Carlo and the analytic metric on
# montecarlo-50x100 (1e5 samples, every denominator over 11 noise sd from zero).
# Measured over seeds 1-20: at most 2.1e-3, median 6.0e-4.
MC_RTOL = 0.01
# Per-statistic and per-equation empirical rmse against the prediction in a
# simulation of at least 1e4 trials (Laplace rmse estimates have ~1.1% sd there).
# It holds because the generated denominators stay far from zero: the paper's
# quotient (s1 + s2) / s4 under a random allocation put s4 5.6 noise sd from
# zero and missed the prediction by 18%, the limit test_05 covers.
SIM_RTOL = 0.15
_SQRT2 = math.sqrt(2.0)


class CheckFailed(Exception):
    """A benchmarked result violated one of its checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(actual: float, expected: float, rtol: float, what: str) -> None:
    require(
        math.isfinite(actual) and abs(actual - expected) <= rtol * abs(expected),
        f"{what}: got {actual!r}, expected {expected!r} (rtol {rtol})",
    )


class ClosedForm:
    """The analytic metric of one workload, independent of scoring and allocator code."""

    def __init__(self, dpbudget, workload):
        self.workload = workload
        self.ids = list(workload.statistic_ids)
        self.epsilon = workload.epsilon
        self.floor = workload.min_budget
        normalize = workload.options.normalize_by_sensitivity
        refs = {spec.id: spec.reference_value for spec in workload.statistics}
        sens = {spec.id: spec.sensitivity for spec in workload.statistics}
        self.us_coeff = {i: _SQRT2 * (1.0 if normalize else sens[i]) for i in self.ids}
        self.equations = []
        for equation in workload.equations:
            gradient = dpbudget.gradient_at_reference(equation.expression, refs)
            weights = [(i, 2.0 * g * g * sens[i] * sens[i]) for i, g in gradient.items()]
            norm = equation.sensitivity if normalize else 1.0
            self.equations.append((equation.id, weights, norm))
        self._cache: dict[tuple, tuple] = {}

    def terms(self, budgets: dict[str, float]):
        """(us_terms, ue_terms, metric, equation rmse) at these budgets."""
        key = tuple(budgets[i] for i in self.ids)
        if key not in self._cache:
            us = {i: self.us_coeff[i] / budgets[i] for i in self.ids}
            rmse = {
                eq_id: math.sqrt(math.fsum(w / (budgets[i] * budgets[i]) for i, w in weights))
                for eq_id, weights, _ in self.equations
            }
            ue = {eq_id: rmse[eq_id] / norm for eq_id, _, norm in self.equations}
            metric = math.fsum(us.values()) + math.fsum(ue.values())
            self._cache[key] = (us, ue, metric, rmse)
        return self._cache[key]

    def metric(self, budgets: dict[str, float]) -> float:
        return self.terms(budgets)[2]

    def check_report(self, budgets: dict[str, float], metric, us_terms, ue_terms, what: str) -> None:
        us, ue, expected, _ = self.terms(budgets)
        close(metric, expected, ANALYTIC_RTOL, f"{what} metric")
        require(set(us_terms) == set(us) and set(ue_terms) == set(ue), f"{what}: term ids differ")
        for key, value in us_terms.items():
            close(value, us[key], ANALYTIC_RTOL, f"{what} us_terms[{key}]")
        for key, value in ue_terms.items():
            close(value, ue[key], ANALYTIC_RTOL, f"{what} ue_terms[{key}]")

    def check_feasible(self, budgets: dict[str, float], what: str) -> None:
        require(set(budgets) == set(self.ids), f"{what}: budget ids differ")
        total = math.fsum(budgets.values())
        require(abs(total - self.epsilon) <= 1e-9 * self.epsilon, f"{what}: budgets sum to {total!r}")
        low = min(budgets.values())
        require(low >= self.floor * (1 - 1e-12), f"{what}: budget {low!r} below the floor {self.floor!r}")

    def check_optimum(self, budgets: dict[str, float], metric: float, candidates, what: str) -> None:
        """Feasible, reported metric is the closed form, and no candidate scores lower."""
        self.check_feasible(budgets, what)
        close(metric, self.metric(budgets), ANALYTIC_RTOL, f"{what} metric")
        for candidate in candidates:
            other = self.metric(candidate)
            require(metric <= other * (1 + 1e-12), f"{what}: metric {metric!r} above a candidate's {other!r}")

    def check_simulation(self, report: dict, budgets: dict[str, float], what: str) -> None:
        """Predictions equal the closed form; empirical rmse is near the prediction."""
        _, _, _, rmse = self.terms(budgets)
        sens = {spec.id: spec.sensitivity for spec in self.workload.statistics}
        for stat_id, row in report["per_statistic"].items():
            close(row["predicted_rmse"], _SQRT2 * sens[stat_id] / budgets[stat_id], ANALYTIC_RTOL,
                  f"{what} predicted_rmse[{stat_id}]")
            close(row["empirical_rmse"], row["predicted_rmse"], SIM_RTOL, f"{what} empirical_rmse[{stat_id}]")
        require(set(report["per_equation"]) == set(rmse), f"{what}: equation ids differ")
        for eq_id, row in report["per_equation"].items():
            close(row["predicted_rmse"], rmse[eq_id], ANALYTIC_RTOL, f"{what} predicted_rmse[{eq_id}]")
            close(row["empirical_rmse"], row["predicted_rmse"], SIM_RTOL, f"{what} empirical_rmse[{eq_id}]")

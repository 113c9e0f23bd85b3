import json
import math

import pytest

from dpbudget import (
    BudgetAllocation,
    EquationSpec,
    MetricOptions,
    StatisticSpec,
    Workload,
    load_allocation,
    load_workload,
    parse_expression,
    validate_allocation,
)
import dpbudget.workload as workload_module
from dpbudget.errors import ValidationError

from helpers import make_workload

PAPER_DOC = {
    "epsilon": 1.0,
    "options": {
        "normalize_by_sensitivity": True,
        "estimator": "analytic",
        "mc_samples": 100000,
        "min_budget_fraction": 1e-06,
    },
    "statistics": [
        {"id": "s1", "label": "first", "sensitivity": 1.0, "reference_value": 10.0},
        {"id": "s2", "label": "second", "sensitivity": 1.0, "reference_value": 20.0},
        {"id": "s3", "label": "third", "sensitivity": 1.0, "reference_value": 7.0},
        {"id": "s4", "label": "fourth", "sensitivity": 1.0, "reference_value": 100.0},
    ],
    "equations": [
        {"id": "eq1", "expression": "s2 + s3", "sensitivity": 2.0},
        {"id": "eq2", "expression": "(s1 + s2) / s4", "sensitivity": 1.0},
    ],
}


def test_load_paper_document():
    workload = load_workload(json.dumps(PAPER_DOC))
    assert len(workload.statistics) == 4
    assert len(workload.equations) == 2
    assert workload.statistic_ids == ("s1", "s2", "s3", "s4")
    assert workload.epsilon == 1.0


def test_load_minimal_document():
    workload = load_workload({"epsilon": 2.0, "statistics": [{"id": "a", "sensitivity": 1.0, "reference_value": 0.0}]})
    assert len(workload.statistics) == 1
    assert workload.equations == ()


def test_load_unknown_statistic_ref():
    doc = {
        "epsilon": 1.0,
        "statistics": [{"id": "s1", "sensitivity": 1.0, "reference_value": 0.0}],
        "equations": [{"id": "e", "expression": "s9 + 1", "sensitivity": 1.0}],
    }
    with pytest.raises(ValidationError) as excinfo:
        load_workload(doc)
    assert excinfo.value.codes() == {"UnknownStatisticRef"}
    assert excinfo.value.subjects("UnknownStatisticRef") == {"s9"}


def test_load_accumulates_all_violations():
    doc = {
        "epsilon": -1.0,
        "bogus": 1,
        "statistics": [
            {"id": "s1", "sensitivity": 0.0, "reference_value": 0.0},
            {"id": "s1", "sensitivity": 1.0, "reference_value": 0.0},
        ],
        "equations": [{"id": "e", "expression": "s1 + (", "sensitivity": -2.0}],
    }
    with pytest.raises(ValidationError) as excinfo:
        load_workload(doc)
    codes = excinfo.value.codes()
    assert "NonPositiveEpsilon" in codes
    assert "MalformedDocument" in codes
    assert "NonPositiveSensitivity" in codes
    assert "DuplicateId" in codes


def test_load_rejects_unknown_keys():
    doc = {
        "epsilon": 1.0,
        "statistics": [{"id": "s1", "sensitivity": 1.0, "reference_value": 0.0, "extra": 1}],
    }
    with pytest.raises(ValidationError) as excinfo:
        load_workload(doc)
    assert excinfo.value.codes() == {"MalformedDocument"}


def test_load_rejects_bad_json_text():
    with pytest.raises(ValidationError) as excinfo:
        load_workload("{not json")
    assert excinfo.value.codes() == {"MalformedDocument"}


def test_load_rejects_bad_options():
    doc = {
        "epsilon": 1.0,
        "options": {"estimator": "quantum", "mc_samples": 0},
        "statistics": [{"id": "s1", "sensitivity": 1.0, "reference_value": 0.0}],
    }
    with pytest.raises(ValidationError) as excinfo:
        load_workload(doc)
    assert excinfo.value.codes() == {"MalformedDocument"}
    assert len(excinfo.value.issues) == 2


def test_min_budget_fraction_must_leave_room():
    doc = {
        "epsilon": 1.0,
        "options": {"min_budget_fraction": 0.5},
        "statistics": [
            {"id": "s1", "sensitivity": 1.0, "reference_value": 0.0},
            {"id": "s2", "sensitivity": 1.0, "reference_value": 0.0},
            {"id": "s3", "sensitivity": 1.0, "reference_value": 0.0},
        ],
    }
    with pytest.raises(ValidationError):
        load_workload(doc)


def test_direct_construction_validates_too():
    with pytest.raises(ValidationError):
        Workload(epsilon=0.0, statistics=(StatisticSpec("s1", 1.0, 0.0),))
    with pytest.raises(ValidationError):
        Workload(epsilon=1.0, statistics=(StatisticSpec("s1", -1.0, 0.0),))


def test_document_round_trip():
    workload = load_workload(json.dumps(PAPER_DOC))
    again = load_workload(json.dumps(workload.to_dict()))
    assert again == workload


def test_validate_allocation_accepts_exact_sum():
    workload = make_workload()
    result = validate_allocation(workload, {"s1": 0.5, "s2": 0.5})
    assert result.budgets == {"s1": 0.5, "s2": 0.5}


def test_validate_allocation_sum_mismatch():
    workload = make_workload()
    with pytest.raises(ValidationError) as excinfo:
        validate_allocation(workload, {"s1": 0.5, "s2": 0.6})
    assert excinfo.value.codes() == {"BudgetSumMismatch"}
    message = str(excinfo.value.issues[0])
    assert "1.1" in message and "1.0" in message


def test_validate_allocation_non_positive_budget():
    workload = make_workload()
    with pytest.raises(ValidationError) as excinfo:
        validate_allocation(workload, {"s1": 1.0, "s2": 0.0})
    assert excinfo.value.codes() == {"NonPositiveBudget"}
    assert excinfo.value.subjects("NonPositiveBudget") == {"s2"}


def test_validate_allocation_missing_and_unknown():
    workload = make_workload()
    with pytest.raises(ValidationError) as excinfo:
        validate_allocation(workload, {"s1": 0.5, "zzz": 0.5})
    assert excinfo.value.codes() == {"MissingBudget", "UnknownBudgetId"}


def test_validate_allocation_tolerance_boundary():
    workload = make_workload()
    validate_allocation(workload, {"s1": 0.5, "s2": 0.5 + 5e-10})
    with pytest.raises(ValidationError):
        validate_allocation(workload, {"s1": 0.5, "s2": 0.5 + 5e-9})


def test_validate_allocation_is_idempotent():
    workload = make_workload()
    first = validate_allocation(workload, {"s1": 0.25, "s2": 0.75})
    second = validate_allocation(workload, first)
    assert first == second


def test_allocation_document_round_trip():
    workload = make_workload()
    loaded = load_allocation('{"budgets": {"s1": 0.5, "s2": 0.5}}', workload)
    assert loaded == BudgetAllocation(budgets={"s1": 0.5, "s2": 0.5})
    with pytest.raises(ValidationError) as excinfo:
        load_allocation('{"budgets": {"s1": 0.5, "s2": 0.5}, "oops": 1}', workload)
    assert excinfo.value.codes() == {"MalformedDocument"}


def test_options_defaults():
    options = MetricOptions()
    assert options.normalize_by_sensitivity is True
    assert options.estimator == "analytic"
    assert options.mc_samples == 100000
    assert options.min_budget_fraction == 1e-6


def _with(**changes):
    """PAPER_DOC with top-level values replaced; a dict for an array or object edits it in place."""
    doc = json.loads(json.dumps(PAPER_DOC))
    for key, value in changes.items():
        if key in ("statistics", "equations") and isinstance(value, dict):
            for index, fields in value.items():
                doc[key][index].update(fields)
        elif key == "options":
            doc[key].update(value)
        else:
            doc[key] = value
    return doc


def _construct(doc):
    """Workload(...) built directly from a document's raw values, bypassing load_workload."""
    return Workload(
        epsilon=doc["epsilon"],
        statistics=tuple(
            StatisticSpec(s["id"], s["sensitivity"], s["reference_value"], s.get("label", ""))
            for s in doc["statistics"]
        ),
        equations=tuple(
            EquationSpec(e["id"], parse_expression(e["expression"]), e["sensitivity"]) for e in doc["equations"]
        ),
        options=MetricOptions(**doc["options"]),
    )


def _issues(build):
    try:
        build()
    except ValidationError as exc:
        return [(issue.code, issue.subject, issue.message) for issue in exc.issues]
    return []


WELL_SHAPED_DOCUMENTS = [
    ("valid", _with(), []),
    ("string sensitivity", _with(statistics={0: {"sensitivity": "x"}}), ["MalformedDocument"]),
    ("string epsilon", _with(epsilon="x"), ["MalformedDocument"]),
    ("negative epsilon hides no bound", _with(epsilon=-1, options={"min_budget_fraction": 0.9}),
     ["NonPositiveEpsilon", "MalformedDocument"]),
    ("integer epsilon past float range", _with(epsilon=10**400), ["MalformedDocument"]),
    ("integer sensitivity past float range", _with(equations={1: {"sensitivity": -(10**400)}}),
     ["MalformedDocument"]),
    ("boolean sensitivity", _with(statistics={2: {"sensitivity": True}}), ["MalformedDocument"]),
    ("zero sensitivities", _with(statistics={1: {"sensitivity": 0}}, equations={0: {"sensitivity": -2.0}}),
     ["NonPositiveSensitivity", "NonPositiveSensitivity"]),
    ("non-finite reference", _with(statistics={3: {"reference_value": float("nan")}}), ["MalformedDocument"]),
    ("invalid id", _with(statistics={0: {"id": "1x"}}), ["MalformedDocument", "UnknownStatisticRef"]),
    ("duplicate ids", _with(statistics={1: {"id": "s1"}}, equations={1: {"id": "eq1"}}),
     ["DuplicateId", "UnknownStatisticRef", "DuplicateId", "UnknownStatisticRef"]),
    ("unknown reference", _with(equations={0: {"expression": "s2 + s9"}}), ["UnknownStatisticRef"]),
    ("no statistics", _with(statistics=[], equations=[]), ["MalformedDocument"]),
    ("bad options", _with(options={"normalize_by_sensitivity": 1, "estimator": "quantum", "mc_samples": 0,
                                   "min_budget_fraction": 0}), ["MalformedDocument"] * 4),
    ("fraction at 1/n", _with(options={"min_budget_fraction": 0.25}), ["MalformedDocument"]),
    ("too few Monte Carlo samples", _with(options={"estimator": "montecarlo", "mc_samples": 999}),
     ["MalformedDocument"]),
    ("integers past the digit limit",
     _with(epsilon=10**5000, statistics={0: {"sensitivity": 10**5000, "reference_value": -(10**5000)}}),
     ["MalformedDocument"] * 3),
    ("options past the digit limit", _with(options={"normalize_by_sensitivity": 10**5000, "estimator": 10**5000,
                                                    "mc_samples": -(10**5000), "min_budget_fraction": 10**5000}),
     ["MalformedDocument"] * 4),
]


@pytest.mark.parametrize(("doc", "codes"), [case[1:] for case in WELL_SHAPED_DOCUMENTS],
                         ids=[case[0] for case in WELL_SHAPED_DOCUMENTS])
def test_loader_and_construction_report_the_same_issues(doc, codes):
    loaded = _issues(lambda: load_workload(doc))
    assert loaded == _issues(lambda: _construct(doc))
    assert [code for code, _, _ in loaded] == codes
    if not codes:
        assert load_workload(doc) == _construct(doc)


def test_integers_past_the_digit_limit_are_named_by_size():
    # repr() of such an integer raises ValueError, so the message gives its size.
    huge = 10**5000
    shown = f"an integer of {huge.bit_length()} bits"
    assert _issues(lambda: Workload(huge, (StatisticSpec("s1", huge, -huge),))) == [
        ("MalformedDocument", None, f"epsilon must be a finite number, got {shown}"),
        ("MalformedDocument", "s1", f"statistic 's1' sensitivity must be a finite number, got {shown}"),
        ("MalformedDocument", "s1", f"statistic 's1' reference_value must be a finite number, got {shown}"),
    ]


def test_monte_carlo_sample_floor_message():
    issues = _issues(lambda: make_workload(mc_samples=999))
    assert issues == [("MalformedDocument", None, "options.mc_samples must be an integer of at least 1000, got 999")]
    assert _issues(lambda: make_workload(mc_samples=1000)) == []


def test_value_checks_run_once_per_load(monkeypatch):
    calls = []
    collect = workload_module._workload_issues

    def counting(*args):
        calls.append(args)
        return collect(*args)

    monkeypatch.setattr(workload_module, "_workload_issues", counting)
    for doc in (_with(), _with(epsilon=-1.0), _with(bogus=1, epsilon="x")):
        calls.clear()
        try:
            load_workload(json.dumps(doc))
        except ValidationError:
            pass
        assert len(calls) == 1


@pytest.mark.parametrize(
    "load, message",
    [
        (lambda: load_workload(_with(statistics=["s1"], equations=[])), "statistics[0] must be an object"),
        (lambda: load_workload({**PAPER_DOC, "options": [0.5]}), "options must be an object"),
        (lambda: load_workload(_with(equations={0: {"expression": 7}})), "equations[0]: expression must be a string"),
        (lambda: load_allocation('{"budgets": [0.5, 0.5]}', make_workload()), "'budgets' must be an object"),
    ],
    ids=["statistic", "options", "expression", "budgets"],
)
def test_a_part_of_the_wrong_shape_is_named(load, message):
    issues = _issues(load)
    assert ("MalformedDocument", message) in [(code, text) for code, _, text in issues], issues


def test_load_reports_shape_and_value_issues_together():
    with pytest.raises(ValidationError) as excinfo:
        load_workload(_with(bogus=1, epsilon=0, statistics={0: {"label": 7}}))
    assert [issue.code for issue in excinfo.value.issues] == [
        "MalformedDocument", "MalformedDocument", "NonPositiveEpsilon"
    ]


def test_validate_allocation_reports_keys_of_any_type():
    workload = make_workload()
    with pytest.raises(ValidationError) as excinfo:
        validate_allocation(workload, {1: 0.5, "zz": 0.5, "s1": 0.5})
    assert excinfo.value.codes() == {"UnknownBudgetId", "MissingBudget"}
    assert [issue.subject for issue in excinfo.value.issues] == [1, "zz", "s2"]


def test_validate_allocation_names_huge_integer_keys_by_size():
    with pytest.raises(ValidationError) as excinfo:
        validate_allocation(make_workload(), {10**5000: 1.0, "s1": 0.5, "s2": 0.5})
    assert [(issue.code, issue.message) for issue in excinfo.value.issues] == [
        ("UnknownBudgetId", "budget for unknown statistic an integer of 16610 bits")
    ]


def test_load_allocation_reports_shape_and_budget_issues_together():
    workload = make_workload()
    with pytest.raises(ValidationError) as excinfo:
        load_allocation('{"budgets": {"s1": 1.0, "s2": "x", "s9": 0.1}, "oops": 1}', workload)
    assert [(issue.code, issue.subject) for issue in excinfo.value.issues] == [
        ("MalformedDocument", None), ("UnknownBudgetId", "s9"), ("MalformedDocument", "s2")
    ]


# Every value fault a number check reports, by field: how to build it, its text and subject, and the code
# of a number <= 0 (None where any finite number is valid).
_NUMBER_FIELDS = {
    "budget": (
        lambda value: validate_allocation(make_workload(), {"s1": value, "s2": 0.5}),
        "budget for 's1'", "s1", "NonPositiveBudget",
    ),
    "epsilon": (lambda value: Workload(value, (StatisticSpec("s1", 1.0, 1.0),)), "epsilon", None, "NonPositiveEpsilon"),
    "statistic sensitivity": (
        lambda value: Workload(1.0, (StatisticSpec("s1", value, 1.0),)),
        "statistic 's1' sensitivity", "s1", "NonPositiveSensitivity",
    ),
    "reference_value": (
        lambda value: Workload(1.0, (StatisticSpec("s1", 1.0, value),)), "statistic 's1' reference_value", "s1", None,
    ),
    "equation sensitivity": (
        lambda value: Workload(
            1.0, (StatisticSpec("s1", 1.0, 1.0),), (EquationSpec("e1", parse_expression("s1"), value),)
        ),
        "equation 'e1' sensitivity", "e1", "NonPositiveSensitivity",
    ),
}
# (value, how a malformed one is shown, or None for a number <= 0, shown as a float)
_NUMBER_FAULTS = [
    (True, "True"), ("1", "'1'"), (math.nan, "nan"), (math.inf, "inf"),
    (10**5000, "an integer of 16610 bits"), (0, None), (-0.5, None),
]


@pytest.mark.parametrize("field", sorted(_NUMBER_FIELDS))
@pytest.mark.parametrize("value, shown", _NUMBER_FAULTS, ids=["true", "text", "nan", "inf", "huge", "zero", "negative"])
def test_every_number_fault_message(field, value, shown):
    build, what, subject, nonpositive_code = _NUMBER_FIELDS[field]
    try:
        build(value)
    except ValidationError as exc:
        issues = [(str(issue), issue.subject) for issue in exc.issues]
    else:
        issues = []
    if shown is not None:
        expected = [(f"MalformedDocument: {what} must be a finite number, got {shown}", subject)]
    elif nonpositive_code is not None:
        expected = [(f"{nonpositive_code}: {what} must be positive, got {float(value)!r}", subject)]
    else:
        expected = []
    if field == "budget" and shown is None:  # a budget <= 0 leaves the allocation complete, so its sum is checked
        expected.append((f"BudgetSumMismatch: budgets sum to {value + 0.5!r} but epsilon is 1.0", None))
    assert issues == expected

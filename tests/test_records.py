"""The contract of the estimate-path records: immutable tuples with value
equality, constructor defaults, and construction-time checks."""

import math

import pytest

from nuceft.costs import StepCost
from nuceft.errors import DomainError
from nuceft.estimator import CostReport, TaskSpec, estimate, sweep
from nuceft.params import (CONSTANTS, DigitizationSpec, OpeParams,
                           PhysicalConstants, PionlessParams)
from nuceft.trotter import BoundReport


def _records():
    return [
        PhysicalConstants(),
        PionlessParams(4.29, -40.19, 42.51),
        OpeParams.from_lecs(2.2),
        DigitizationSpec(1.0, 2.0, 4),
        StepCost(520, 42000, 6000, 0),
        BoundReport((("a", 1.0), ("b", 2.0))),
        TaskSpec(),
        CostReport(1.0, 2, 3, 4, 5.0, 6, 0, {"prod": 0.1}),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.unknown_field = 1


def test_constants_are_hashable_values():
    assert PhysicalConstants() == CONSTANTS
    assert hash(PhysicalConstants()) == hash(CONSTANTS)
    assert PhysicalConstants(m_pi=140.0) != CONSTANTS
    assert len({PhysicalConstants(), PhysicalConstants(),
                PhysicalConstants(m_pi=140.0)}) == 2


def test_constructor_defaults():
    assert TaskSpec().eta == 40 and TaskSpec().ell_units is None
    assert TaskSpec(model="ope") == TaskSpec(**{**TaskSpec()._asdict(),
                                                "model": "ope"})
    # a report built without extras gets its own dict, not a shared default
    first = CostReport(1.0, 2, 3, 4, 5.0, 6, 0, {})
    first.extras["x"] = 1
    assert first.extras == {"x": 1}
    assert CostReport(1.0, 2, 3, 4, 5.0, 6, 0, {}).extras == {}


def test_bad_records_are_domain_errors():
    with pytest.raises(DomainError, match="error budget"):
        TaskSpec(epsilon=0.0)
    with pytest.raises(DomainError, match="lattice extent"):
        TaskSpec(L=0)
    for field_name, value in (("task", "anneal"), ("model", "nucleon"),
                              ("encoding", "jw"), ("convention", "later")):
        with pytest.raises(DomainError, match=f"unknown {field_name} '{value}'"):
            TaskSpec(**{field_name: value})
    with pytest.raises(DomainError, match="nonnegative"):
        StepCost(0, -1, 6, 0)
    # the field-cutoff bound refuses a spacing where A or B is not positive
    with pytest.raises(DomainError, match="a_L=0.3"):
        estimate(TaskSpec(model="dynpi", a_L=0.3))
    with pytest.raises(DomainError, match="negative bound"):
        BoundReport((("a", -1.0),))
    for value in (math.inf, math.nan):
        with pytest.raises(DomainError, match="class 'b' has non-finite bound"):
            BoundReport((("a", 1.0), ("b", value)))


def test_bound_report_lookup():
    report = BoundReport((("a", 1.0), ("b", 2.0)))
    assert report["b"] == 2.0 and report.total == 3.0
    assert report[0] == report.classes and tuple(report) == (report.classes,)
    with pytest.raises(KeyError):
        report["c"]


def test_sweep_turns_an_invalid_point_into_a_note():
    rows = sweep(TaskSpec(), "epsilon", [0.0, 0.1])
    assert rows[0]["notes"] == \
        "DomainError: error budget must be positive, got 0.0"
    assert rows[1]["notes"] == ""
    rows = sweep(TaskSpec(model="dynpi"), "L", [0, 4])
    assert rows[0]["notes"] == \
        "DomainError: lattice extent L must be >= 1, got 0"
    assert rows[1]["notes"] == ""

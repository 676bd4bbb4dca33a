"""The contract of the estimate-path records: immutable tuples with value
equality, constructor defaults, and construction-time checks; and the input
checks every library entry shares: one rule for a count, and no NaN
through a positivity check."""

import math

import numpy as np
import pytest

from nuceft.costs import (StepCost, dynpi_step_cost, interaction_ball_sites,
                          ope_step_cost, pionless_step_cost, t_synthesis)
from nuceft.encodings import LatticeSpec
from nuceft.errors import DomainError, GeometryError
from nuceft.estimator import (CostReport, TaskSpec, crossing_time, estimate,
                              qpe_ancilla_bits, sweep)
from nuceft.fock import EtaSector, eta_seminorm, exact_evolution_error
from nuceft.params import (CONSTANTS, DigitizationSpec, OpeParams,
                           PhysicalConstants, PionlessParams,
                           pionless_params_for)
from nuceft.trotter import (BoundReport, compose_total_error, dynpi_p1_bound,
                            general_npfo_bound, ope_p1_bound,
                            pionless_p1_coefficient, pionless_p2_coefficient,
                            product_formula_error, steps_for_budget)
from nuceft.truncation import (boson_cutoffs, choose_ope_cutoff,
                               ope_cutoff_error, pi_max_bound, shell_count,
                               shell_counts)

from fermion_reference import hopping


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


_PIONLESS = pionless_params_for(2.2)
_OPE = OpeParams.from_lecs(2.2)
_DIGITS = DigitizationSpec(1.0, 2.0, 4)
_HOP = hopping(0, 1, 4)

# each library entry that takes a count, as a call of that count alone:
# (call, the least count it takes, a count it prices)
_COUNTS = {
    "TaskSpec.order": (lambda n: TaskSpec(order=n), 0, 2),
    "TaskSpec.L": (lambda n: TaskSpec(L=n), 1, 4),
    "TaskSpec.eta": (lambda n: TaskSpec(eta=n), 1, 4),
    "TaskSpec.ell_units": (lambda n: TaskSpec(model="ope", ell_units=n), 1, 3),
    "TaskSpec.n_b": (lambda n: TaskSpec(model="dynpi", n_b=n), 1, 3),
    "crossing_time": (lambda n: crossing_time(2.2, n, 10.0), 1, 3),
    "qpe_ancilla_bits": (lambda n: qpe_ancilla_bits(n, 0.3), 1, 3),
    "pionless_p1_coefficient": (
        lambda n: pionless_p1_coefficient(n, _PIONLESS), 0, 3),
    "pionless_p2_coefficient": (
        lambda n: pionless_p2_coefficient(n, _PIONLESS), 0, 3),
    "ope_p1_bound.eta": (lambda n: ope_p1_bound(n, _OPE, 2), 0, 3),
    "ope_p1_bound.ell_units": (lambda n: ope_p1_bound(4, _OPE, n), 0, 3),
    "dynpi_p1_bound.eta": (lambda n: dynpi_p1_bound(n, _OPE, _DIGITS, 4),
                           0, 3),
    "dynpi_p1_bound.L": (lambda n: dynpi_p1_bound(4, _OPE, _DIGITS, n), 1, 3),
    "general_npfo_bound.p": (
        lambda n: general_npfo_bound(n, [2, 2], [1.0, 1.0], 2), 1, 1),
    "general_npfo_bound.locality": (
        lambda n: general_npfo_bound(1, [2, n], [1.0, 1.0], 2), 1, 3),
    "general_npfo_bound.eta": (
        lambda n: general_npfo_bound(1, [2, 2], [1.0, 1.0], n), 0, 3),
    "product_formula_error": (lambda n: product_formula_error(n, 0.1, 1.0),
                              0, 2),
    "steps_for_budget": (lambda n: steps_for_budget(n, 0.1, 1.0, 1e-3), 0, 2),
    "shell_count": (shell_count, 0, 3),
    "shell_counts": (shell_counts, 0, 3),
    "ope_cutoff_error.ell_units": (lambda n: ope_cutoff_error(n, 4, 2.2),
                                   1, 3),
    "ope_cutoff_error.eta": (lambda n: ope_cutoff_error(2, n, 2.2), 0, 3),
    "choose_ope_cutoff": (lambda n: choose_ope_cutoff(0.01, 1.0, n, 2.2),
                          0, 3),
    "pi_max_bound.eta": (lambda n: pi_max_bound(n, 400.0, 1e-3, _OPE, 4),
                         0, 3),
    "pi_max_bound.L": (lambda n: pi_max_bound(4, 400.0, 1e-3, _OPE, n), 1, 3),
    "boson_cutoffs.n_b": (
        lambda n: boson_cutoffs(4, 400.0, 1e-3, _OPE, 4, n_b=n), 1, 3),
    "pionless_step_cost.order": (lambda n: pionless_step_cost("vc", n, False),
                                 0, 2),
    "pionless_step_cost.L": (
        lambda n: pionless_step_cost("vc", 1, False, n), 1, 3),
    "interaction_ball_sites": (interaction_ball_sites, 1, 3),
    "ope_step_cost.ell_units": (lambda n: ope_step_cost(n, 4, False), 1, 3),
    "ope_step_cost.L": (lambda n: ope_step_cost(2, n, False), 1, 3),
    "dynpi_step_cost.n_b": (lambda n: dynpi_step_cost(n, 4, False), 1, 3),
    "dynpi_step_cost.L": (lambda n: dynpi_step_cost(3, n, False), 1, 3),
    "t_synthesis": (lambda n: t_synthesis(n, 1e-3), 1, 3),
    "EtaSector.n_modes": (lambda n: EtaSector(n, 0), 0, 3),
    "EtaSector.eta": (lambda n: EtaSector(4, n), 0, 3),
    "eta_seminorm": (lambda n: eta_seminorm(_HOP, n), 0, 3),
    "exact_evolution_error.eta": (
        lambda n: exact_evolution_error([_HOP], 0.1, 1, 1, n), 0, 3),
    "exact_evolution_error.p": (
        lambda n: exact_evolution_error([_HOP], 0.1, n, 1, 2), 0, 2),
    "exact_evolution_error.r": (
        lambda n: exact_evolution_error([_HOP], 0.1, 1, n, 2), 1, 3),
    **{f"LatticeSpec.{axis}": (
        lambda n, axis=axis: LatticeSpec(**{"Lx": 1, "Ly": 1, "Lz": 1,
                                            axis: n, "a_L": 2.2}), 1, 3)
       for axis in ("Lx", "Ly", "Lz")},
}


@pytest.mark.parametrize("entry", _COUNTS)
def test_every_count_follows_one_rule(entry):
    """A bool, a float (even 2.0) and a count below the entry's least are
    refused with a DomainError (a GeometryError for a lattice) that says
    why; a NumPy integer prices as the Python int it equals."""
    call, least, priced = _COUNTS[entry]
    error = GeometryError if entry.startswith("LatticeSpec") else DomainError
    for value in (True, 2.5, 2.0):
        message = f"must be an integer, got {value!r}$"
        with pytest.raises(error, match=message) as info:
            call(value)
        assert type(info.value) is error
    message = f"must be >= {least}, got {least - 1}$"
    with pytest.raises(error, match=message) as info:
        call(least - 1)
    assert type(info.value) is error
    assert call(np.int64(priced)) == call(priced)


# each real-valued input that must be positive (or >= 0), given NaN
_NANS = {
    "crossing_time": (lambda: crossing_time(2.2, 10, math.nan),
                      "kinetic energy must be positive, got nan"),
    "compose_total_error": (
        lambda: compose_total_error("pionless", math.nan, "fault-tolerant"),
        "error budget must be positive, got nan"),
    "product_formula_error.t": (
        lambda: product_formula_error(1, math.nan, 1.0),
        "time must be >= 0, got nan"),
    "product_formula_error.coefficient": (
        lambda: product_formula_error(1, 1.0, math.nan),
        "coefficient must be >= 0, got nan"),
    "pi_max_bound": (lambda: pi_max_bound(40, 400.0, math.nan, _OPE, 10),
                     "eps_cut must be positive, got nan"),
    "choose_ope_cutoff.eps_trunc": (
        lambda: choose_ope_cutoff(math.nan, 1.0, 40, 2.2),
        "truncation budget must be positive, got nan"),
    "choose_ope_cutoff.t": (lambda: choose_ope_cutoff(0.01, math.nan, 40, 2.2),
                            "time must be >= 0, got nan"),
    "steps_for_budget.budget": (
        lambda: steps_for_budget(1, 1.0, 1.0, math.nan),
        "error budget must be positive, got nan"),
    "steps_for_budget.t": (lambda: steps_for_budget(1, math.nan, 1.0, 0.1),
                           "time must be >= 0, got nan"),
    "t_synthesis": (lambda: t_synthesis(100, math.nan),
                    "synthesis budget must be positive, got nan"),
}


@pytest.mark.parametrize("entry", _NANS)
def test_nan_fails_a_positivity_check_by_name(entry):
    call, message = _NANS[entry]
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message

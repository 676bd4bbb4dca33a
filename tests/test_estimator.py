import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from nuceft import estimator
from nuceft.errors import DomainError, PrecisionError
from nuceft.estimator import (SWEEP_HEADER, CostReport, TaskSpec,
                              crossing_time, estimate, qpe_ancilla_bits, sweep)
from nuceft.trotter import compose_total_error

BENCH = dict(model="pionless", encoding="vc", task="evolve", L=10, a_L=2.2,
             eta=40, E_kin=10.0, epsilon=0.1, order=1,
             convention="fault-tolerant")


def test_crossing_time():
    assert crossing_time(2.2, 10, 10.0) == pytest.approx(0.7635238930596975)
    # at E_kin = M/2 the crossing time is just the lattice length
    assert crossing_time(2.2, 10, 938.0 / 2) == pytest.approx(
        2.2 / 197.3269804 * 10)
    assert crossing_time(2.2, 20, 10.0) == pytest.approx(
        2 * crossing_time(2.2, 10, 10.0))
    with pytest.raises(DomainError):
        crossing_time(2.2, 0, 10.0)
    with pytest.raises(DomainError,
                       match="^kinetic energy must be positive, got 0.0$"):
        crossing_time(2.2, 10, 0.0)


def test_qpe_ancilla_bits():
    assert qpe_ancilla_bits(8, 0.5) == 9
    assert qpe_ancilla_bits(8, 0.7) == 9
    assert qpe_ancilla_bits(8, 0.01) > qpe_ancilla_bits(8, 0.3)
    with pytest.raises(DomainError):
        qpe_ancilla_bits(8, 1.5)
    with pytest.raises(DomainError,
                       match="^precision bits m must be >= 1, got 0$"):
        qpe_ancilla_bits(0, 0.5)
    # 1/(2 delta) + 1/2 = 3.5 + 0.5 = 4 exactly at delta = 1/7, so the
    # padding is log2(4) = 2 bits and no more
    assert qpe_ancilla_bits(8, 1 / 7) == 8 + 2


def test_pionless_benchmark_report():
    rep = estimate(TaskSpec(**BENCH))
    assert rep.r == 1161614
    assert rep.depth_total == 604039280
    assert rep.rz_total == 48787788000
    assert rep.T_total == pytest.approx(2739526431231.408)
    assert rep.qubits == 6000
    assert rep.ancillas == 0
    assert rep.depth_total == rep.r * rep.extras["step_depth"]
    assert sum(rep.ledger.values()) == pytest.approx(0.1)


def test_compact_shares_step_count():
    vc = estimate(TaskSpec(**BENCH))
    compact = estimate(TaskSpec(**{**BENCH, "encoding": "compact"}))
    assert compact.r == vc.r
    assert compact.qubits == 10000
    assert compact.depth_total * 520 == vc.depth_total * 68


def test_second_order_is_cheaper():
    p1 = estimate(TaskSpec(**BENCH))
    p2 = estimate(TaskSpec(**{**BENCH, "order": 2}))
    assert p2.r < p1.r
    assert p2.depth_total < p1.depth_total


def test_ope_benchmark_report():
    rep = estimate(TaskSpec(**{**BENCH, "model": "ope"}))
    assert rep.extras["ell_units"] == 10
    assert rep.extras["zeta"] == pytest.approx(107429802320.93866, rel=1e-10)
    assert rep.depth_total == 75095716404519451368
    assert rep.T_total == pytest.approx(5.310580438674724e+23, rel=1e-10)
    assert rep.qubits == 6000


def test_dynpi_benchmark_report():
    near = estimate(TaskSpec(**{**BENCH, "model": "dynpi",
                                "convention": "near-term"}))
    assert near.extras["n_b"] == 39
    assert near.qubits == 123000
    assert near.depth_total == 16746454577406422405402313389626097664
    assert near.T_total == pytest.approx(7.765383247724655e+41, rel=1e-10)
    ft = estimate(TaskSpec(**{**BENCH, "model": "dynpi"}))
    assert ft.extras["n_b"] == 40
    assert ft.T_total == pytest.approx(5.0369213390567935e+42, rel=1e-10)


def test_forced_intermediates():
    rep = estimate(TaskSpec(**{**BENCH, "model": "ope",
                               "ell_units": 5}))
    assert rep.extras["ell_units"] == 5
    rep = estimate(TaskSpec(**{**BENCH, "model": "dynpi",
                               "n_b": 33}))
    assert rep.extras["n_b"] == 33
    assert rep.qubits == 6000 + 3000 * 33


def test_pins_are_the_models_pins():
    assert estimator._PINS == ("ell_units", "n_b")
    for pin in estimator._PINS:
        assert pin in TaskSpec._fields
        assert TaskSpec._field_defaults[pin] is None
    # each pinned estimate reports its pin under its own name, which the
    # sweep's ell_or_nb column reads
    for model, pin, value in (("ope", "ell_units", 13), ("dynpi", "n_b", 20)):
        spec = TaskSpec(**{**BENCH, "model": model, pin: value})
        assert estimate(spec).extras[pin] == value
        assert sweep(spec, "eta", [40])[0]["ell_or_nb"] == value


def test_qpe_benchmark_report():
    spec = TaskSpec(**{**BENCH, "task": "qpe"})
    rep = estimate(spec)
    assert rep.t == pytest.approx(2 * math.pi / 140.0)
    assert rep.extras["m"] == 8
    assert rep.extras["n"] == 9
    assert rep.extras["applications"] == 511
    assert rep.r == rep.extras["r_per_application"] * 511
    assert rep.r == 4930503074
    assert rep.qubits == 6001
    assert rep.ancillas == 1
    # controlled step depth, not the bare one
    assert rep.extras["step_depth"] == 630


def test_qpe_at_its_defaults():
    """delta_E = 1 MeV over E_max = 140 MeV takes m = ceil(log2 140) = 8
    precision bits; success 0.3 pads ceil(log2(1 / (2 * 0.7) + 1/2)) = 1."""
    spec = TaskSpec(task="qpe")
    assert spec == TaskSpec(task="qpe", delta_E=1.0, E_max=140.0,
                            success=0.3)
    extras = estimate(spec).extras
    m = math.ceil(math.log2(140.0 / 1.0))
    n = m + math.ceil(math.log2(1 / (2 * (1 - 0.3)) + 1 / 2))
    assert (m, n) == (8, 9)
    assert (extras["m"], extras["n"], extras["applications"]) == \
        (m, n, 2 ** n - 1)


def test_qpe_resolution_guard():
    with pytest.raises(PrecisionError):
        estimate(TaskSpec(**{**BENCH, "task": "qpe", "delta_E": 200.0}))
    # a share per application that underflows names the resolution
    for model in ("pionless", "ope", "dynpi"):
        with pytest.raises(PrecisionError, match="delta_E=1e-300"):
            estimate(TaskSpec(**{**BENCH, "model": model, "task": "qpe",
                                 "delta_E": 1e-300}))


def test_qpe_refuses_an_eps_cut_that_underflows_alone():
    # at m = 537 the product share per application is still a positive
    # subnormal, but the boson-cutoff budget eps_cut rounds to 0, so only
    # the eps_cut check of the ledger refuses this resolution
    spec = TaskSpec(model="dynpi", task="qpe", eta=40, E_max=140.0,
                    delta_E=140.0 / 2 ** 536.5)
    m = math.ceil(math.log2(spec.E_max / spec.delta_E))
    applications = 2 ** qpe_ancilla_bits(m, 1 - spec.success) - 1
    ledger = compose_total_error("dynpi", math.sqrt(3) * math.pi / 2 ** m,
                                 spec.convention)
    assert m == 537
    assert ledger["prod"] / applications > 0 and ledger["eps_cut"] == 0
    with pytest.raises(PrecisionError, match="underflows"):
        estimate(spec)


def test_an_overflowing_bound_class_is_refused_by_name():
    # n_b = 1013 makes seven Xi classes inf; t^2 underflows to 0 and
    # 0 * inf would reach the step count as nan
    with pytest.raises(DomainError,
                       match="class '.*' has non-finite bound inf"):
        estimate(TaskSpec(model="dynpi", task="qpe", eta=40, E_max=1e300,
                          delta_E=1e299))


def test_qpe_precision_scaling():
    base = estimate(TaskSpec(**{**BENCH, "task": "qpe"}))
    finer = estimate(TaskSpec(**{**BENCH, "task": "qpe",
                                 "delta_E": 0.5}))
    assert finer.extras["m"] >= base.extras["m"] + 1
    assert finer.r > base.r


def test_estimate_dispatch():
    assert isinstance(estimate(TaskSpec(**BENCH)), CostReport)
    d = estimate(TaskSpec(**BENCH)).to_json_dict()
    assert d["schema-version"] == 1


def test_spec_validation():
    with pytest.raises(DomainError):
        TaskSpec(**{**BENCH, "epsilon": 0.0})
    with pytest.raises(DomainError):
        TaskSpec(**{**BENCH, "task": "anneal"})
    with pytest.raises(DomainError):
        TaskSpec(**{**BENCH, "success": 1.0})
    for field_name, value in (("epsilon", math.nan), ("epsilon", math.inf),
                              ("E_kin", math.nan), ("delta_E", math.inf),
                              ("E_max", math.inf), ("a_L", math.nan),
                              ("L", 0), ("eta", 0), ("eta", 4 * 10 ** 3 + 1),
                              ("L", 10.5), ("eta", 40.5), ("eta", True),
                              ("order", 2.0), ("ell_units", 3.0),
                              ("n_b", 20.5), ("n_b", False),
                              ("epsilon", "0.1"), ("a_L", None),
                              ("E_kin", True), ("delta_E", 1j),
                              ("E_max", [140.0]), ("success", False),
                              ("success", math.nan), ("E_kin", 0.0),
                              ("E_kin", -1.0), ("E_max", 0.0),
                              ("E_max", -5.0)):
        with pytest.raises(DomainError, match=field_name):
            TaskSpec(**{**BENCH, field_name: value})
    # a full lattice is still a valid input
    assert TaskSpec(**{**BENCH, "L": 2, "eta": 32}).eta == 32


@pytest.mark.parametrize("model", ["pionless", "ope", "dynpi"])
def test_one_site_lattice_is_priced_from_one_nucleon_to_full(model):
    # L=1 holds 4 L^3 = 4 modes, so eta runs over [1, 4]
    for eta in (1, 4):
        spec = TaskSpec(model=model, L=1, eta=eta)
        assert (spec.L, spec.eta) == (1, eta)
        report = estimate(spec)
        assert report.r >= 1 and report.rz_total >= 1
        assert math.isfinite(report.T_total) and report.T_total > 0


def test_numpy_integers_price_as_python_ints():
    """Any integer type is taken, and priced as the Python int it equals:
    an int32 L or an int64 n_b would otherwise overflow in the pipeline."""
    for fields in ({**BENCH, "L": np.int32(10), "eta": np.int64(40)},
                   {**BENCH, "model": "dynpi", "n_b": np.int64(5)},
                   {**BENCH, "model": "ope", "ell_units": np.int16(3)}):
        spec = TaskSpec(**fields)
        assert all(type(v) is int for v in (spec.L, spec.eta, spec.order))
        assert estimate(spec) == estimate(TaskSpec(**{
            k: int(v) if isinstance(v, np.integer) else v
            for k, v in fields.items()}))


def test_sweep_rows_and_failures():
    template = TaskSpec(**BENCH)
    rows = sweep(template, "eta", [2, 4, 6])
    assert len(rows) == 3
    assert [row["value"] for row in rows] == [2, 4, 6]
    assert all(set(row) == set(SWEEP_HEADER) for row in rows)
    # r grows with the particle number
    assert rows[0]["r"] < rows[-1]["r"]
    # a failing point is recorded, not raised
    bad = sweep(TaskSpec(**{**BENCH, "model": "dynpi"}), "L", [0, 4])
    assert "DomainError" in bad[0]["notes"]
    assert bad[1]["notes"] == ""
    with pytest.raises(DomainError):
        sweep(template, "eta", [])
    with pytest.raises(DomainError):
        sweep(template, "volume", [1])


def test_sweep_passes_grid_values_unparsed():
    """A grid value reaches TaskSpec as given, so its checks see it: 10.5
    and True are not truncated to L=10 and L=1 but refused in the row."""
    rows = sweep(TaskSpec(**BENCH), "L", [10.5, True, 10])
    assert [row["value"] for row in rows] == [10.5, True, 10]
    assert rows[0]["notes"] == \
        "DomainError: lattice extent L must be an integer, got 10.5"
    assert rows[1]["notes"] == \
        "DomainError: lattice extent L must be an integer, got True"
    assert rows[2]["notes"] == "" and rows[2]["r"] == estimate(
        TaskSpec(**BENCH)).r
    rows = sweep(TaskSpec(**BENCH), "epsilon", ["0.1"])
    assert rows[0]["notes"] == \
        "DomainError: epsilon must be a finite real number, got '0.1'"


def test_real_fields_take_any_real_type():
    """A real field takes any real number, as the value it is."""
    spec = TaskSpec(**{**BENCH, "epsilon": np.float32(0.125),
                       "E_kin": Fraction(10), "a_L": 2})
    assert spec.epsilon == 0.125 and spec.E_kin == 10 and spec.a_L == 2


def test_epsilon_sweep_monotone():
    template = TaskSpec(**BENCH)
    rows = sweep(template, "epsilon", [0.2, 0.1, 0.05, 0.025])
    rs = [row["r"] for row in rows]
    assert rs == sorted(rs)


def test_unpriced_pair_is_refused_before_the_pipeline(monkeypatch):
    import nuceft.estimator

    def searched(*args, **kwargs):
        raise AssertionError("the cutoff search ran")

    monkeypatch.setattr(nuceft.estimator, "choose_ope_cutoff", searched)
    for task in ("evolve", "qpe"):
        spec = TaskSpec(**{**BENCH, "model": "ope", "encoding": "compact",
                           "task": task})
        with pytest.raises(DomainError,
                           match="model 'ope' is not costed in the "
                                 "'compact' encoding"):
            estimate(spec)


@pytest.mark.parametrize("model", ["pionless", "ope", "dynpi"])
def test_reports_are_finite_or_domain_errors(model):
    # the ope cutoff is pinned in the grid: at delta_E=1e-100 its budgets
    # pick cutoffs of hundreds of lattice units (465 at epsilon=1e-300),
    # and the shell walk of each is O(ell^3)
    ell_units = 10 if model == "ope" else None
    priced = 0
    # dynpi sizes its registers from cutoffs that overflow the float range
    # at epsilon=1e-150, and 2^1024 - 1 levels overflow it too
    specs = [TaskSpec(**{**BENCH, "model": model, "order": order,
                         "task": task, "convention": convention,
                         "epsilon": epsilon, "delta_E": delta_E,
                         "ell_units": ell_units, "n_b": n_b})
             for order, task, convention, epsilon, delta_E, n_b
             in itertools.product(
                 (1, 2, 3), ("evolve", "qpe"), ("near-term", "fault-tolerant"),
                 (1e-300, 1e-200, 1e-150, 1e-100, 1e-30, 1e-10, 0.1, 0.9),
                 (1.0, 1e-30, 1e-100), (None, 1024))]
    if model == "ope":
        # once with the cutoff the search picks there, and its 83,743 shells
        specs.append(TaskSpec(**{**BENCH, "model": model, "task": "qpe",
                                 "delta_E": 1e-100}))
    for spec in specs:
        try:
            report = estimate(spec)
        except DomainError:
            continue
        json.dumps(report.to_json_dict(), allow_nan=False)
        priced += 1
    assert priced

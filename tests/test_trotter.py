import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuceft import trotter
from nuceft.errors import DomainError
from nuceft.estimator import TaskSpec, sweep
from nuceft.params import (CONSTANTS, OpeParams, hopping_coefficient,
                           pionless_params_for)
from nuceft.trotter import (compose_total_error, dynpi_p1_bound,
                            general_npfo_bound, ope_p1_bound,
                            pionless_p1_bound, pionless_p1_coefficient,
                            pionless_p2_coefficient, product_formula_error,
                            steps_for_budget)
from nuceft.truncation import boson_cutoffs, realized_shells, shell_count
from nuceft.verify import verify_trotter


def pionless_p1_reference(t, eta, params):
    """Second transcription of the first-order coefficient, kept deliberately
    independent of the implementation."""
    h = params.h
    C = params.C_slash
    D = params.D_slash
    interactions = (2 * abs(C) * math.floor(eta / 2)
                    + (2 * abs(3 * C + D) + abs(D)) * math.floor(eta / 3)
                    + (2 * abs(6 * C + 4 * D) + 4 * abs(D)) * math.floor(eta / 4))
    return t ** 2 * (15 * h ** 2 * eta + 6 * h * interactions)


def test_pionless_p1_double_entry():
    for a_L in (1.4, 2.2):
        params = pionless_params_for(a_L)
        for eta in (1, 2, 3, 4, 7, 40, 100):
            for t in (0.1, 0.7635238930596975, 2.0):
                want = pionless_p1_reference(t, eta, params)
                assert pionless_p1_bound(t, eta, params) == \
                    pytest.approx(want, rel=1e-12)


def test_pionless_p1_frozen_value():
    params = pionless_params_for(2.2)
    assert pionless_p1_bound(1.0, 40, params) == pytest.approx(199258.2306)
    assert pionless_p1_bound(1.0, 2, params) == pytest.approx(2621.1042)
    params14 = pionless_params_for(1.4)
    assert pionless_p1_bound(1.0, 2, params14) == pytest.approx(
        15829.372800000001)


def pionless_p2_reference(eta, params):
    """The t^3 coefficient as four bracketed terms, with the contact
    weights of the hopping written out as w2, w3 and w4."""
    h, C, D = params.h, params.C_slash, params.D_slash
    f2, f3, f4 = eta // 2, eta // 3, eta // 4
    n2 = abs(C) * f2
    n3 = abs(3 * C + D) * f3
    n4 = abs(6 * C + 4 * D) * f4
    c3 = abs(D) * f3
    c4 = 4 * abs(D) * f4
    w2 = 2 * abs(C) * f2
    w3 = (abs(D) + 2 * abs(3 * C + D)) * f3
    w4 = (4 * abs(D) + 2 * abs(6 * C + 4 * D)) * f4
    u3 = abs(C / 2 + D / 6)
    u4 = abs(C / 2 + D / 3)
    q2 = 2 * C * C * f2
    q3 = 4 * u3 * (12 * u3 + abs(D)) * f3
    q4 = 24 * u4 * (6 * u4 + abs(D)) * f4
    q3p = (8 * abs(D) * u3 + (2 / 3) * D * D) * f3
    q4p = 8 * abs(D) * (6 * u4 + abs(D)) * f4
    return (1 / 12) * (125 * h ** 3 * eta
                       + 216 * h * h * (n2 + n3 + n4 + c3 + c4)
                       + 60 * h * h * (w2 + w3 + w4)
                       + 12 * h * (2 * (q2 + q3 + q4) + q3p + q4p))


def test_pionless_p2_equals_the_four_bracket_formula():
    for a_L in (1.4, 2.2):
        params = pionless_params_for(a_L)
        for eta in range(201):
            assert pionless_p2_coefficient(eta, params) == \
                pionless_p2_reference(eta, params), (a_L, eta)


def test_pionless_p1_bound_is_t_squared_zeta():
    # time enters only through product_formula_error: 2 (t^2/2) zeta
    params = pionless_params_for(2.2)
    for eta in range(51):
        zeta = pionless_p1_coefficient(eta, params).total
        for t in (0, 1e-3, 0.02, 0.5, 1, 3.7, 1e3):
            assert pionless_p1_bound(t, eta, params) == t * t * zeta


def test_pionless_p2_frozen_value():
    params = pionless_params_for(2.2)
    assert pionless_p2_coefficient(40, params) == pytest.approx(
        6402608.657444999)
    assert product_formula_error(
        2, 0.5, pionless_p2_coefficient(40, params)) == pytest.approx(
        0.5 ** 3 * 6402608.657444999)


def test_pionless_bounds_scale_with_eta_floors():
    params = pionless_params_for(2.2)
    # below two fermions the interaction classes are empty
    lone = pionless_p1_bound(1.0, 1, params)
    assert lone == pytest.approx(15 * params.h ** 2)
    assert pionless_p1_bound(1.0, 0, params) == 0.0


def test_pionless_p1_classes():
    # each class by its formula, and each at most its generic counterpart:
    # c04's combination read class by class
    for a_L in (1.4, 2.2):
        params = pionless_params_for(a_L)
        h, C, D = params.h, params.C_slash, params.D_slash
        for eta in range(201):
            report = pionless_p1_coefficient(eta, params)
            assert [label for label, _ in report.classes] == [
                "kinetic_kinetic", "kinetic_diagonal"]
            contacts = (2 * abs(C) * math.floor(eta / 2)
                        + (2 * abs(3 * C + D) + abs(D)) * math.floor(eta / 3)
                        + (2 * abs(6 * C + 4 * D) + 4 * abs(D))
                        * math.floor(eta / 4))
            assert report["kinetic_kinetic"] == 15 * h * h * eta
            assert report["kinetic_diagonal"] == 6 * h * contacts
            assert report["kinetic_kinetic"] <= 15 * general_npfo_bound(
                1, [2, 2], [h, h], eta)
            assert report["kinetic_diagonal"] <= 6 * (
                general_npfo_bound(1, [2, 4], [h, C / 2], eta)
                + general_npfo_bound(1, [2, 6], [h, D / 6], eta))


def test_ope_p1_classes():
    params = OpeParams.from_lecs(2.2)
    shells = realized_shells(10)
    report = ope_p1_bound(40, params, shells)
    # frozen total for the reference benchmark configuration
    assert report.total == pytest.approx(107429802320.93866, rel=1e-10)
    h = hopping_coefficient(2.2)
    assert report["kinetic_kinetic"] == pytest.approx(30 * h * h * 40)
    assert report["contact_contact"] == 0.0
    # every class is nonnegative and the long-range pairs dominate
    assert all(v >= 0 for _, v in report.classes)
    assert report["lr_lr_cross"] > report["kinetic_kinetic"]
    # quadratic eta scaling is absent: all classes are linear in eta
    double = ope_p1_bound(80, params, shells)
    assert double.total == pytest.approx(2 * report.total, rel=1e-12)


def test_ope_p1_empty_shells():
    params = OpeParams.from_lecs(2.2)
    report = ope_p1_bound(4, params, [])
    assert report["kinetic_lr"] == 0.0
    assert report["lr_lr_same"] == 0.0
    assert report.total > 0  # contact pieces remain


def _pair_loop(qs, us):
    """s_cross by the definition: ((q_a u_a) q_b) u_b over a < b in
    row-major order, added left to right."""
    total = 0
    for a in range(len(qs)):
        for b in range(a + 1, len(qs)):
            total += qs[a] * us[a] * qs[b] * us[b]
    return total


def _bare_kernels(shells, a_L):
    m = CONSTANTS.m_pi
    qs, us = [], []
    for r_sq, q in shells:
        r = a_L * math.sqrt(r_sq) / CONSTANTS.hbar_c
        qs.append(q)
        us.append((m * m * math.exp(-m * r) / r)
                  * (2 + 3 / (m * r) + 3 / (m * r) ** 2))
    return qs, us


def test_realized_shells_are_the_nonzero_shells_within_the_cutoff():
    for ell in range(13):
        assert realized_shells(ell) == tuple(
            (r_sq, shell_count(r_sq)) for r_sq in range(1, ell * ell + 1)
            if shell_count(r_sq))


def _cross_sum_branch(monkeypatch, qs, us):
    """_cross_sum of a table, and whether it added its pairs in numpy."""
    arrays = []
    array = np.array

    def counting_array(*args, **kwargs):
        arrays.append(1)
        return array(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "array", counting_array)
        value = trotter._cross_sum(qs, us)
    return value, bool(arrays)


def test_shell_sums_match_the_pair_loop_exactly(monkeypatch):
    # ell 0 and 1 are the empty and the one-shell table.  At 2.2 fm the
    # cut leaves every table below the numpy switch; at 1.0 and 1.4 fm the
    # tables from ell = 18 on keep more pairs than it (at 1.0 fm, ell = 40
    # keeps 367,022 of its 890,445 after the first row) and add them in numpy
    in_numpy = set(itertools.product((1.0, 1.4), (18, 20, 40)))
    for a_L, ell in itertools.product((1.0, 1.4, 2.2),
                                      (0, 1, 13, 17, 18, 20, 40)):
        shells = realized_shells(ell)
        sums = trotter._shell_sums(tuple(shells), a_L)
        qs, us = _bare_kernels(shells, a_L)
        assert _cross_sum_branch(monkeypatch, qs, us) == (
            sums[1], (a_L, ell) in in_numpy)
        plain_qu = plain_same = 0
        for q, u in zip(qs, us):
            plain_qu += q * u
            plain_same += (3670016 * q * (q - 1) + 524288 * q) * u * u
        assert sums == (plain_qu, _pair_loop(qs, us), plain_same)
    assert repr(trotter._shell_sums((), 2.2)) == "(0, 0, 0)"


@pytest.mark.parametrize("seed", [4, 64])
def test_cross_sum_numpy_branch_equals_the_pure_python_branch(monkeypatch,
                                                              seed):
    rng = random.Random(seed)
    tables = []
    for n in range(2, 131):
        qs = [rng.randint(1, 48) for _ in range(n)]
        tables.append(
            (qs, [rng.uniform(0.5, 2.0) * 10.0 ** rng.uniform(-12, 3)
                  for _ in qs]))
    tables += [_bare_kernels(realized_shells(ell), 2.2)
               for ell in (18, 25, 33, 40)]
    monkeypatch.setattr(trotter, "_NUMPY_PAIRS", 10 ** 12)
    plain = [trotter._cross_sum(qs, us) for qs, us in tables]
    monkeypatch.setattr(trotter, "_NUMPY_PAIRS", 0)
    assert [trotter._cross_sum(qs, us) for qs, us in tables] == plain


@st.composite
def _kernel_tables(draw):
    """(qs, us): counts 0..48 and kernels that are 0 or lie in a drawn
    span of up to 60 decades within 1e-300..1e300, unsorted or sorted
    falling by kernel (as real tables are) or by q u, with at most one
    entry whose products overflow or one inf kernel beside a zero count
    (an inf * 0 pair)."""
    n = draw(st.integers(0, 300))
    low = draw(st.integers(-300, 300))
    high = min(300, low + draw(st.integers(0, 60)))
    qs = draw(st.lists(st.integers(0, 48), min_size=n, max_size=n))
    us = draw(st.lists(
        st.one_of(st.just(0.0),
                  st.builds(lambda m, e: m * 10.0 ** e,
                            st.floats(1.0, 9.99), st.integers(low, high))),
        min_size=n, max_size=n))
    order = draw(st.sampled_from(["kernel", "product", "none"]))
    if order != "none":
        pairs = sorted(zip(qs, us), reverse=True,
                       key=lambda p: p[1] if order == "kernel" else p[0] * p[1])
        qs, us = [q for q, _ in pairs], [u for _, u in pairs]
    special = draw(st.sampled_from(["none", "overflow", "inf"]))
    if n and special != "none":
        i = draw(st.integers(0, n - 1))
        if special == "overflow":
            qs[i], us[i] = max(qs[i], 2), 1e308
        else:
            us[i], qs[draw(st.integers(0, n - 1))] = math.inf, 0
    return qs, us


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_kernel_tables())
def test_cross_sum_cuts_only_pairs_that_cannot_change_the_total(table):
    qs, us = table
    want = repr(_pair_loop(qs, us))
    for switch in (0, 10 ** 12):
        with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
            patch.setattr(trotter, "_NUMPY_PAIRS", switch)
            assert repr(trotter._cross_sum(qs, us)) == want


def test_cross_sum_forms_a_few_percent_of_the_pairs_at_2_2_fm(monkeypatch):
    # 890,445 pairs at ell = 40; summing them all takes two mul calls each
    calls = []

    def counting_mul(x, y):
        calls.append(1)
        return x * y

    shells = realized_shells(40)
    monkeypatch.setattr(trotter, "_NUMPY_PAIRS", 10 ** 12)
    monkeypatch.setattr(trotter, "mul", counting_mul)
    trotter._shell_sums.cache_clear()
    ope_p1_bound(40, OpeParams.from_lecs(2.2), shells)
    assert 0 < len(calls) <= 60_000


def test_cross_sum_keeps_an_overflow_on_both_branches(monkeypatch):
    # every product overflows to inf, so the first row's total is inf and
    # every pair is kept, above the numpy switch
    qs, us = [1] * 300, [1e160] * 300
    assert len(qs) * (len(qs) - 1) // 2 > trotter._NUMPY_PAIRS
    with np.errstate(over="ignore"):
        assert trotter._cross_sum(qs, us) == math.inf
    monkeypatch.setattr(trotter, "_NUMPY_PAIRS", 10 ** 12)
    assert trotter._cross_sum(qs, us) == math.inf


def test_plain_sum_rounds_after_every_addition():
    xs = [1.0, 1e100, 1.0, -1e100]
    # a compensated sum (math.fsum, builtin sum since Python 3.12) gives 2.0
    assert math.fsum(xs) == 2.0
    assert trotter._plain_sum(xs) == 0.0
    assert trotter._plain_sum(iter(xs[:3])) == 1e100
    assert repr(trotter._plain_sum([])) == "0"


def test_ope_p1_shell_sums_are_memoized_by_value():
    params = OpeParams.from_lecs(2.2)
    shells = realized_shells(10)
    trotter._shell_sums.cache_clear()
    cold = ope_p1_bound(40, params, shells)
    warm = ope_p1_bound(40, params, shells)
    assert repr(warm.classes) == repr(cold.classes)
    assert ope_p1_bound(40, params, tuple(shells)).classes == cold.classes
    assert trotter._shell_sums.cache_info().misses == 1


def test_eta_sweep_sums_shells_once_per_cutoff(monkeypatch):
    evaluations = []
    cross_sum = trotter._cross_sum

    def counting_cross_sum(qs, us):
        evaluations.append(1)
        return cross_sum(qs, us)

    monkeypatch.setattr(trotter, "_cross_sum", counting_cross_sum)
    trotter._shell_sums.cache_clear()
    rows = sweep(TaskSpec(model="ope"), "eta", range(2, 401, 2))
    cutoffs = {row["ell_or_nb"] for row in rows}
    assert len(rows) == 200 and not any(row["notes"] for row in rows)
    assert 1 < len(cutoffs) < len(rows)
    assert len(evaluations) == len(cutoffs)


def test_dynpi_p1_frozen_total():
    lecs = OpeParams.from_lecs(2.2)
    eps_cut = (0.05 / 2) ** 2 / 2
    dig = boson_cutoffs(40, 400.0, eps_cut, lecs, 10)
    report = dynpi_p1_bound(40, lecs, dig, 10)
    assert report.total == pytest.approx(1.4949396544330846e+31, rel=1e-10)
    # the pure-boson class carries the only L dependence
    bigger = dynpi_p1_bound(40, lecs, dig, 20)
    assert bigger["boson_kinetic_potential"] == pytest.approx(
        2 * report["boson_kinetic_potential"], rel=1e-12)
    assert bigger.total - bigger["boson_kinetic_potential"] == pytest.approx(
        report.total - report["boson_kinetic_potential"], rel=1e-12)


def test_general_npfo_bound_reference_values():
    # frozen: hand-audited products for small cases
    h = 10.58
    assert general_npfo_bound(1, [2, 2], [h, h], 2) == pytest.approx(
        h * h * (2 * 2 * 1 * 2 * 1 * 2 ** 2) * 2, rel=1e-12)
    # k_min = 3: the divisor ceil(3 / 2) = 2 takes eta=7 to ceil(7 / 2) = 4
    assert general_npfo_bound(1, [3, 3], [1, 1], 7) == pytest.approx(
        (2 * 3 * 2 * 3 * 2 * 2 ** (1 + 3 / 2)) * math.ceil(7 / 2), rel=1e-12)
    with pytest.raises(DomainError):
        general_npfo_bound(1, [2], [1.0], 2)
    with pytest.raises(DomainError):
        general_npfo_bound(2, [2, 2, 0], [1, 1, 1], 2)


def test_by_hand_comparison():
    params = pionless_params_for(1.4)
    h, C, D = params.h, params.C_slash, params.D_slash
    general = (15 * general_npfo_bound(1, [2, 2], [h, h], 2)
               + 6 * (general_npfo_bound(1, [2, 4], [h, C / 2], 2)
                      + general_npfo_bound(1, [2, 6], [h, D / 6], 2)))
    manual = pionless_p1_bound(1.0, 2, params)
    assert general == pytest.approx(2603147.2128, rel=1e-9)
    assert manual == pytest.approx(15829.3728, rel=1e-9)
    assert general / manual > 50


def test_product_formula_error_conventions():
    assert product_formula_error(1, 2.0, 5.0) == pytest.approx(2.0 ** 2 * 5 / 2)
    assert product_formula_error(2, 2.0, 5.0) == pytest.approx(2.0 ** 3 * 5)


def test_product_formula_error_refuses_unbounded_orders():
    for p in (0, 3, 4):
        with pytest.raises(DomainError):
            product_formula_error(p, 0.5, 3.0)
        with pytest.raises(DomainError):
            steps_for_budget(p, 0.5, 3.0, 1e-3)


def test_steps_for_budget_meets_budget_tightly():
    for p in (1, 2):
        for coeff in (10.0, 1e6):
            for budget in (1e-1, 1e-3):
                t = 0.76
                r = steps_for_budget(p, t, coeff, budget)
                assert r * product_formula_error(p, t / r, coeff) <= budget * (1 + 1e-12)
                if r > 1:
                    r2 = r - 1
                    assert r2 * product_formula_error(p, t / r2, coeff) > budget


def test_steps_for_budget_floor_at_one():
    assert steps_for_budget(1, 0.1, 1e-6, 1.0) == 1
    with pytest.raises(DomainError):
        steps_for_budget(1, 0.1, 1.0, 0.0)


def test_compose_total_error_channels():
    led = compose_total_error("pionless", 0.1, "fault-tolerant")
    assert led == {"prod": pytest.approx(0.05), "syn": pytest.approx(0.05)}
    led = compose_total_error("pionless", 0.1, "near-term")
    assert led == {"prod": pytest.approx(0.1)}
    led = compose_total_error("ope", 0.1, "fault-tolerant")
    assert set(led) == {"prod", "trunc", "syn"}
    assert sum(led.values()) == pytest.approx(0.1)
    led = compose_total_error("dynpi", 0.1, "near-term")
    assert led["prod"] == pytest.approx(0.05)
    # the state-overlap share converts quadratically to a trace-distance cut
    assert led["eps_cut"] == pytest.approx((0.05 / 2) ** 2 / 2)


def _dynpi_at(L):
    lecs = OpeParams.from_lecs(2.2)
    dig = boson_cutoffs(40, 400.0, (0.05 / 2) ** 2 / 2, lecs, 10)
    return dynpi_p1_bound(40, lecs, dig, L)


@pytest.mark.parametrize("call, message", [
    (lambda: compose_total_error("nucleon", 0.1, "fault-tolerant"),
     "unknown model/convention 'nucleon'/'fault-tolerant'"),
    (lambda: compose_total_error("ope", 0.1, "someday"),
     "unknown model/convention 'ope'/'someday'"),
    (lambda: compose_total_error("pionless", 0.0, "near-term"),
     "error budget must be positive, got 0.0"),
    (lambda: compose_total_error("dynpi", -0.1, "fault-tolerant"),
     "error budget must be positive, got -0.1"),
    (lambda: product_formula_error(1, 0.5, -1.0),
     "coefficient must be >= 0, got -1.0"),
    (lambda: product_formula_error(2, -0.5, 1.0), "time must be >= 0, got -0.5"),
    (lambda: pionless_p1_bound(-1.0, 40, pionless_params_for(2.2)),
     "time must be >= 0, got -1.0"),
    (lambda: pionless_p1_coefficient(-1, pionless_params_for(2.2)),
     "eta must be >= 0, got -1"),
    (lambda: pionless_p2_coefficient(-2, pionless_params_for(2.2)),
     "eta must be >= 0, got -2"),
    (lambda: ope_p1_bound(-1, OpeParams.from_lecs(2.2), ()),
     "eta must be >= 0, got -1"),
    (lambda: _dynpi_at(0), "lattice extent must be >= 1, got 0"),
])
def test_analytic_core_refusals(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError
    assert str(info.value) == message


def test_oracle_dominance_suite():
    for name, ok, detail in verify_trotter():
        assert ok, f"{name}: {detail}"

import itertools
import math
import random
from bisect import bisect_right
from fractions import Fraction
from operator import mul

import pytest

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
from nuceft.truncation import boson_cutoffs, shell_count, shell_counts
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
    report = ope_p1_bound(40, params, 10)
    # frozen total for the reference benchmark configuration
    assert report.total == pytest.approx(107429802320.93866, rel=1e-10)
    h = hopping_coefficient(2.2)
    assert report["kinetic_kinetic"] == pytest.approx(30 * h * h * 40)
    assert report["contact_contact"] == 0.0
    # every class is nonnegative and the long-range pairs dominate
    assert all(v >= 0 for _, v in report.classes)
    assert report["lr_lr_cross"] > report["kinetic_kinetic"]
    # quadratic eta scaling is absent: all classes are linear in eta
    double = ope_p1_bound(80, params, 10)
    assert double.total == pytest.approx(2 * report.total, rel=1e-12)


def test_ope_p1_empty_shells():
    params = OpeParams.from_lecs(2.2)
    report = ope_p1_bound(4, params, 0)
    assert report["kinetic_lr"] == 0.0
    assert report["lr_lr_same"] == 0.0
    assert report.total > 0  # contact pieces remain


def _shells(ell):
    """(r^2, q) of every nonzero shell with r <= ell, from one fresh walk."""
    return [(r_sq, q) for r_sq, q in enumerate(shell_counts(ell * ell))
            if r_sq and q]


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
    # the shell table, grown one cutoff at a time or in one step, lists
    # each cutoff's shells as a prefix
    for cutoffs in (range(13), [12]):
        trotter._clear_shell_table()
        for ell in cutoffs:
            trotter._shell_sums(ell, 2.2)
        table = trotter._table
        assert table.counts == [shell_count(r_sq) for r_sq in range(145)]
        for ell in range(13):
            n = bisect_right(table.r_sqs, ell * ell)
            assert table.r_sqs[:n] == [r_sq for r_sq in range(1, ell * ell + 1)
                                       if shell_count(r_sq)]


def test_shell_sums_match_their_plain_loops():
    # ell 0 and 1 are the empty and the one-shell table.  s_qu and s_same
    # are plain sums in r^2 order; s_cross adds each shell's c = q u times
    # the sum of c before it, within 1e-14 of the exact pair sum (9.3e-15
    # at 1.4 fm, ell = 40)
    for a_L, ell in itertools.product((1.0, 1.4, 2.2),
                                      (0, 1, 13, 17, 18, 20, 40)):
        sums = trotter._shell_sums(ell, a_L)
        qs, us = _bare_kernels(_shells(ell), a_L)
        plain_qu = plain_cross = plain_same = 0
        for q, u in zip(qs, us):
            c = q * u
            plain_cross += c * plain_qu
            plain_qu += c
            plain_same += (3670016 * q * (q - 1) + 524288 * q) * u * u
        assert repr(sums) == repr((plain_qu, plain_cross, plain_same))
        cs = [Fraction(c) for c in map(mul, qs, us)]
        exact = (sum(cs) ** 2 - sum(c * c for c in cs)) / 2
        assert abs(Fraction(sums[1]) - exact) <= Fraction(1e-14) * exact
    assert repr(trotter._shell_sums(0, 2.2)) == "(0, 0, 0)"


def test_plain_sum_rounds_after_every_addition():
    xs = [1.0, 1e100, 1.0, -1e100]
    # a compensated sum (math.fsum, builtin sum since Python 3.12) gives 2.0
    assert math.fsum(xs) == 2.0
    assert trotter._plain_sum(xs) == 0.0
    assert trotter._plain_sum(iter(xs[:3])) == 1e100
    assert repr(trotter._plain_sum([])) == "0"


@pytest.mark.parametrize("ell, message", [
    (-1, "range cutoff must be >= 0, got -1"),
    (-2, "range cutoff must be >= 0, got -2"),
    (2.5, "range cutoff must be an integer, got 2.5"),
    (2.0, "range cutoff must be an integer, got 2.0"),
    (True, "range cutoff must be an integer, got True"),
])
def test_a_negative_or_non_integer_cutoff_is_refused(ell, message):
    params = OpeParams.from_lecs(2.2)
    # True and 2.0 equal the priced cutoffs 1 and 2, and must not be read
    # as them
    ope_p1_bound(4, params, 1)
    ope_p1_bound(4, params, 2)
    with pytest.raises(DomainError) as info:
        ope_p1_bound(4, params, ell)
    assert str(info.value) == message


def _fresh_shell_sums(ell, a_L):
    trotter._clear_shell_table()
    return repr(trotter._shell_sums(ell, a_L))


def test_shell_table_prices_each_cutoff_as_a_fresh_table():
    # runs of 7 cutoffs, each run at 1.0, 1.4 and 2.2 fm in turn, so the
    # table is started afresh, grown and read as a prefix
    spacings, cutoffs = (1.0, 1.4, 2.2), list(range(61))
    want = {(ell, a_L): _fresh_shell_sums(ell, a_L)
            for ell, a_L in itertools.product(cutoffs, spacings)}
    shuffled = cutoffs[:]
    random.Random(39).shuffle(shuffled)
    for order in (cutoffs, cutoffs[::-1], shuffled):
        trotter._clear_shell_table()
        for start in range(0, len(order), 7):
            for a_L in spacings:
                for ell in order[start:start + 7]:
                    assert repr(trotter._shell_sums(ell, a_L)) == \
                        want[ell, a_L], (ell, a_L)


def test_eta_sweep_sums_shells_once_per_cutoff(monkeypatch):
    # the default ope eta sweep meets the cutoffs 6 to 13 lattice units and
    # reads them all from one shell table, walked once per new cutoff and
    # grown to the largest
    walk = trotter.shell_counts
    walked = []
    monkeypatch.setattr(trotter, "shell_counts",
                        lambda max_r_sq, known: walked.append(max_r_sq)
                        or walk(max_r_sq, known))
    trotter._clear_shell_table()
    rows = sweep(TaskSpec(model="ope"), "eta", range(2, 401, 2))
    assert len(rows) == 200 and not any(row["notes"] for row in rows)
    assert {row["ell_or_nb"] for row in rows} == set(range(6, 14))
    assert walked == [ell * ell for ell in range(6, 14)]
    assert len(trotter._table.counts) == 13 * 13 + 1


def test_ope_p1_shell_sums_are_memoized_by_value(monkeypatch):
    # the shell table is kept by the value of its spacing: a cutoff it holds,
    # priced at a spacing of equal value however written, is read from the
    # same table without a walk; another spacing starts a fresh table
    trotter._clear_shell_table()
    want = [repr(trotter._shell_sums(ell, 2.2)) for ell in range(14)]
    table = trotter._table
    assert len(table.counts) == 13 * 13 + 1
    walk = trotter.shell_counts
    walked = []
    monkeypatch.setattr(trotter, "shell_counts",
                        lambda max_r_sq, known: walked.append(max_r_sq)
                        or walk(max_r_sq, known))
    for a_L in (2.2, float("2.2"), 11 / 5, 22e-1):
        assert [repr(trotter._shell_sums(ell, a_L))
                for ell in range(14)] == want, a_L
        assert trotter._table is table
    assert walked == []
    trotter._shell_sums(13, 1.0)
    assert walked == [13 * 13] and trotter._table.a_L_fm == 1.0


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


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_general_npfo_bound_refuses_a_non_finite_weight(weight):
    with pytest.raises(DomainError,
                       match=f"^weight must be finite, got {weight}$"):
        general_npfo_bound(1, [2, 2], [weight, 1.0], 2)


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

import collections
import itertools
import math

import pytest

from nuceft import trotter, truncation
from nuceft.errors import DomainError, UnreachableBudgetError
from nuceft.params import (CONSTANTS, OpeParams, ab_coefficients,
                           convert_length, yukawa_g1, yukawa_g2)
from nuceft.truncation import (boson_cutoffs, choose_ope_cutoff,
                               ope_cutoff_error, pi_max_bound, realized_shells,
                               shell_count, shell_counts)
from nuceft.trotter import ope_p1_bound


def brute_force_histogram(reach):
    """Counter of i^2 + j^2 + k^2 over the cube |i|, |j|, |k| <= reach."""
    return collections.Counter(
        i * i + j * j + k * k
        for i, j, k in itertools.product(range(-reach, reach + 1), repeat=3))


def test_shell_count_against_brute_force():
    # every point with r^2 <= 400 lies inside the reach-21 cube
    brute = brute_force_histogram(21)
    for r_sq in range(0, 401):
        assert shell_count(r_sq) == brute[r_sq], r_sq


def test_shell_count_known_values():
    # 0, 1, 2, 3, ... realized distances; 7 is not a sum of three squares
    assert [shell_count(k) for k in range(8)] == [1, 6, 12, 8, 6, 24, 24, 0]


def test_shell_counts_match_shell_count():
    for max_r_sq in (0, 1, 2, 3, 100, 400):
        assert shell_counts(max_r_sq) == [shell_count(r_sq)
                                          for r_sq in range(max_r_sq + 1)]
    with pytest.raises(DomainError):
        shell_counts(-1)
    with pytest.raises(DomainError,
                       match=r"^squared radius must be >= 0, got -1$"):
        shell_count(-1)


def test_shell_counts_fill_the_radius_40_ball():
    ball = sum(1 for i, j, k in itertools.product(range(-40, 41), repeat=3)
               if i * i + j * j + k * k <= 1600)
    assert sum(shell_counts(1600)) == ball


def test_shell_table_cumulative():
    # all sites of the closed ball of radius 10: (2*10+1)^3 minus corners
    cumulative = sum(shell_counts(100))
    assert cumulative == sum(
        1 for i, j, k in itertools.product(range(-10, 11), repeat=3)
        if i * i + j * j + k * k <= 100)
    assert cumulative == 4169


def test_realized_shells():
    shells = realized_shells(2)
    assert [q for _, q in shells] == [6, 12, 8, 6]
    # the innermost shell at one spacing, the outermost at two
    assert shells[0][0] == 1
    assert shells[-1][0] == 4
    assert realized_shells(0) == ()


def test_realized_shells_are_memoized_per_cutoff(monkeypatch):
    # realized_shells keeps no cache of its own: the shell sums that
    # ope_p1_bound reads, keyed on (cutoff, spacing), walk a cutoff's table
    # once whatever the eta, and again only after their cache is cleared
    walk = truncation.shell_counts
    walked = []
    monkeypatch.setattr(truncation, "shell_counts",
                        lambda max_r_sq: walked.append(max_r_sq)
                        or walk(max_r_sq))
    params = OpeParams.from_lecs(2.2)
    trotter._shell_sums.cache_clear()
    cold = ope_p1_bound(4, params, 10)
    assert ope_p1_bound(4, params, 10) == cold
    ope_p1_bound(40, params, 10)
    assert walked == [100]
    assert trotter._shell_sums.cache_info()[:2] == (2, 1)  # hits, misses
    trotter._shell_sums.cache_clear()
    assert ope_p1_bound(4, params, 10) == cold
    assert walked == [100, 100]
    assert not hasattr(realized_shells, "cache_clear")


def test_realized_shells_reach_the_outermost_shell(monkeypatch):
    # the table must reach ell^2 exactly, which (ell a_L / a_L)^2 would
    # floor to ell^2 - 1 at 3725 units (2.2 fm) and 2413 (1.7 fm); the real
    # walk there takes hours, so the stub only records what is asked
    asked = []
    monkeypatch.setattr(truncation, "shell_counts",
                        lambda max_r_sq: asked.append(max_r_sq) or [1])
    assert realized_shells(3725) == ()
    assert realized_shells(2413) == ()
    assert asked == [13_875_625, 2413 ** 2]


def test_cutoff_error_rate_decreases_with_range():
    rates = [ope_cutoff_error(k, 40, 2.2) for k in range(1, 30)]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    assert ope_cutoff_error(10, 40, 2.2) == pytest.approx(
        0.01577059043252916)
    assert ope_cutoff_error(2, 40, 2.2) == pytest.approx(14464.373516179827)


def test_cutoff_error_edge_cases():
    assert ope_cutoff_error(2, 0, 2.2) == 0.0
    with pytest.raises(DomainError):
        ope_cutoff_error(0, 40, 2.2)
    with pytest.raises(DomainError):
        ope_cutoff_error(2, -1, 2.2)


def test_cutoff_error_takes_the_smaller_bound():
    """At ell = a_L and eta=400 the site-counting bound (linear in eta) is
    the smaller one; at eta=1 the pairwise one (quadratic) is."""
    a = convert_length(2.2)
    edge = 2 * a  # ell + a
    m = CONSTANTS.m_pi
    pairwise = 72 * yukawa_g1(edge) + 648 * yukawa_g2(edge)  # per eta^2
    counting = (4 * math.pi / (m * m * a ** 3)) * edge * yukawa_g1(edge) \
        * (720 * (m * a + m * a + 1) + 3888)  # per eta
    assert 400 * counting < 400 ** 2 * pairwise
    assert ope_cutoff_error(1, 400, 2.2) == pytest.approx(400 * counting,
                                                         rel=1e-12)
    assert pairwise < counting
    assert ope_cutoff_error(1, 1, 2.2) == pytest.approx(pairwise, rel=1e-12)


def test_choose_cutoff_budget_and_tightness():
    t = 0.7635238930596975
    # 50-point budget grid spanning loose to tight
    for i in range(50):
        eps = 10.0 ** (2 - 0.12 * i)
        k = choose_ope_cutoff(eps, t, 40, 2.2)
        assert t * ope_cutoff_error(k, 40, 2.2) <= eps
        if k > 1:
            assert t * ope_cutoff_error(k - 1, 40, 2.2) > eps


def test_choose_cutoff_reference_point():
    assert choose_ope_cutoff(0.1 / 6, 0.7635238930596975, 40, 2.2) == 10
    # a budget every cutoff meets: the search starts at one lattice unit
    assert choose_ope_cutoff(1e9, 1.0, 40, 2.2) == 1
    with pytest.raises(DomainError,
                       match=r"^truncation budget must be positive, got 0.0$"):
        choose_ope_cutoff(0.0, 1.0, 40, 2.2)
    # a negative time would make every rate meet the budget
    with pytest.raises(DomainError, match=r"^time must be >= 0, got -1.0$"):
        choose_ope_cutoff(0.01, -1.0, 40, 2.2)


def test_choose_cutoff_unreachable(monkeypatch):
    monkeypatch.setattr(truncation, "MAX_MULTIPLE", 5)
    with pytest.raises(UnreachableBudgetError,
                       match="no cutoff within 5 lattice units") as info:
        choose_ope_cutoff(1e-30, 1.0, 40, 2.2)
    # the budget is a norm error, not an energy
    assert "truncation budget 1e-30" in str(info.value)
    assert "MeV" not in str(info.value)


def test_pi_max_bounds_positive_and_monotone():
    lecs = OpeParams.from_lecs(2.2)
    pi1, Pi1 = pi_max_bound(40, 400.0, 1e-3, lecs, 10)
    pi2, Pi2 = pi_max_bound(40, 400.0, 1e-4, lecs, 10)
    assert 0 < pi1 < pi2
    assert 0 < Pi1 < Pi2
    with pytest.raises(DomainError):
        pi_max_bound(40, 400.0, 1e-3, OpeParams.from_lecs(0.3), 10)
    # the cutoffs guarantee overlap 1 - eps_cut, which must be positive
    for eps_cut in (1.0, 1.125):
        with pytest.raises(DomainError, match=f"eps_cut={eps_cut:g} must be "
                                              "below 1"):
            pi_max_bound(40, 400.0, eps_cut, lecs, 10)


def test_pi_max_bound_reference_formula():
    # both cutoffs term by term at a point where the momentum cutoff's
    # drive term 3 eta/(A B) (3 g_A/(f_pi a))^2 is about 2/9 of the sum
    eta, E, eps_cut, L = 1, 0.0, 1e-2, 1
    lecs = OpeParams.from_lecs(2.2)
    A, B = ab_coefficients(2.2)
    a = convert_length(2.2)
    g_A, f_pi, m = CONSTANTS.g_A, CONSTANTS.f_pi, CONSTANTS.m_pi
    lead = math.sqrt(3 * L ** 3 / eps_cut) + 1
    e_shift = E + 8 * eta * abs(lecs.C) + 4 * eta * abs(lecs.C_I2)
    mass = 9 * eta * m ** 2 * a ** 3 * (6 * g_A / (m ** 2 * f_pi * a ** 4)) ** 2
    drive = 3 * g_A / (f_pi * a)
    pi0, Pi0 = pi_max_bound(eta, E, eps_cut, lecs, L)
    assert pi0 == pytest.approx(lead * (drive / A + math.sqrt(
        e_shift / A + 3 * eta * (drive / A) ** 2 + mass / A)), rel=1e-12)
    assert Pi0 == pytest.approx(lead * math.sqrt(
        e_shift / B + 3 * eta / (A * B) * drive ** 2 + mass / B), rel=1e-12)


def test_boson_cutoffs_reference_register_width():
    lecs = OpeParams.from_lecs(2.2)
    eps_cut = (0.05 / 2) ** 2 / 2
    dig = boson_cutoffs(40, 400.0, eps_cut, lecs, 10)
    assert dig.n_b == 39
    assert 31 <= dig.n_b <= 39
    # momentum cutoff absorbs the rounding: Pi_max >= its lower bound
    _, Pi0 = pi_max_bound(40, 400.0, eps_cut, lecs, 10)
    assert dig.Pi_max >= Pi0
    # the 2^39 - 1 steps of width delta_pi span [-pi_max, pi_max], and
    # Pi_max = pi / (a^3 delta_pi)
    a = convert_length(2.2)
    assert dig.Pi_max == pytest.approx(
        math.pi * (2 ** 39 - 1) / (2 * a ** 3 * dig.pi_max), rel=1e-14)
    with pytest.raises(DomainError,
                       match=r"^register width n_b must be >= 1, got 0$"):
        boson_cutoffs(40, 400.0, eps_cut, lecs, 10, n_b=0)


def test_boson_cutoffs_size_the_register_from_levels_plus_one():
    # n_b = ceil(log2(2 a^3 Pi_max pi_max / pi + 1)); at a_L = 9.5 fm and
    # eps_cut = 0.5 the product lies in (2, 3), so the + 1 gives 2 bits
    # where a + 2 would give 3
    lecs = OpeParams.from_lecs(9.5)
    a = convert_length(9.5)
    pi0, Pi0 = pi_max_bound(1, 0.0, 0.5, lecs, 1)
    levels = 2 * a ** 3 * Pi0 * pi0 / math.pi
    assert 2 < levels < 3
    assert boson_cutoffs(1, 0.0, 0.5, lecs, 1).n_b == 2


def test_boson_cutoffs_grow_with_budget_tightening():
    lecs = OpeParams.from_lecs(2.2)
    widths = [boson_cutoffs(40, 400.0, eps, lecs, 10).n_b
              for eps in (1e-2, 1e-4, 1e-8)]
    assert widths == sorted(widths)

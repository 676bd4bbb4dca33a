"""Range-cutoff and field-digitization error bounds.

Covers the interaction-range cutoff for the one-pion-exchange model, exact
lattice shell counting q(r), and the bosonic field/momentum cutoffs plus
register sizing for the dynamical-pion model.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

from .errors import DomainError, UnreachableBudgetError, check_count
from .params import (CONSTANTS, DigitizationSpec, OpeParams, ab_coefficients,
                     convert_length, yukawa_g1, yukawa_g2)


def shell_count(r_sq: int) -> int:
    """Number of integer points (i, j, k) with i^2 + j^2 + k^2 = r_sq.

    A direct O(r_sq) count, kept as the reference that shell_counts is
    tested against.
    """
    r_sq = check_count(r_sq, "squared radius")
    if r_sq == 0:
        return 1
    count = 0
    top = math.isqrt(r_sq)
    for i in range(-top, top + 1):
        rem_i = r_sq - i * i
        jtop = math.isqrt(rem_i)
        for j in range(-jtop, jtop + 1):
            rem = rem_i - j * j
            k = math.isqrt(rem)
            if k * k == rem:
                count += 1 if k == 0 else 2
    return count


def shell_counts(max_r_sq: int, known: Sequence[int] = ()) -> list[int]:
    """shell_count(r_sq) for every r_sq in 0..max_r_sq, as a new list.

    known is this histogram out to some r^2 = old, len(known) - 1 (the
    empty histogram, old = -1, by default).  The walk visits only the
    sorted points i >= j >= k >= 0 with old < i^2 + j^2 + k^2 <= max_r_sq:
    for each (i, j), k starts at isqrt(old - i^2 - j^2) + 1.  So extending
    a histogram gives the list that one walk from scratch gives, and a
    max_r_sq at or below old gives a prefix of known.

    Each sorted point stands for its sign flips (2 per nonzero coordinate)
    and its distinct coordinate orders (6, 3 or 1).
    """
    max_r_sq = check_count(max_r_sq, "squared radius")
    old = len(known) - 1
    counts = list(known[:max_r_sq + 1]) + [0] * (max_r_sq - old)
    for i in range(math.isqrt(max_r_sq) + 1):
        ii = i * i
        for j in range(min(i, math.isqrt(max_r_sq - ii)) + 1):
            ij = ii + j * j
            first = math.isqrt(old - ij) + 1 if old >= ij else 0
            for k in range(first, min(j, math.isqrt(max_r_sq - ij)) + 1):
                orders = 1 if i == k else 3 if i == j or j == k else 6
                signs = 1 << ((i > 0) + (j > 0) + (k > 0))
                counts[ij + k * k] += orders * signs
    return counts


def ope_cutoff_error(ell_units: int, eta: int, a_L_fm: float) -> float:
    """Error *rate* (MeV) of dropping interactions beyond ell_units * a_L_fm.

    Multiply by evolution time for the norm error.  Minimum of the pairwise
    (eta^2) bound and the site-counting (eta) bound.
    """
    eta = check_count(eta, "eta")
    ell_units = check_count(ell_units, "range cutoff", 1)
    if eta == 0:
        return 0.0
    a = convert_length(a_L_fm)
    ell = convert_length(ell_units * a_L_fm)
    edge = ell + a
    m = CONSTANTS.m_pi
    pairwise = eta * eta * (72 * yukawa_g1(edge) + 648 * yukawa_g2(edge))
    counting = (4 * math.pi * eta / (m * m * a ** 3)) * edge \
        * yukawa_g1(edge) * (720 * (m * ell + m * a + 1) + 3888)
    return min(pairwise, counting)


# largest cutoff, in lattice units, that choose_ope_cutoff tries
MAX_MULTIPLE = 10 ** 4


def choose_ope_cutoff(eps_trunc: float, t: float, eta: int,
                      a_L_fm: float) -> int:
    """Smallest integer k with t * ope_cutoff_error(k, ...) <= eps_trunc."""
    if not eps_trunc > 0:
        raise DomainError(f"truncation budget must be positive, got {eps_trunc}")
    if not t >= 0:
        raise DomainError(f"time must be >= 0, got {t}")
    for k in range(1, MAX_MULTIPLE + 1):
        if t * ope_cutoff_error(k, eta, a_L_fm) <= eps_trunc:
            return k
    raise UnreachableBudgetError(
        f"no cutoff within {MAX_MULTIPLE} lattice units meets the "
        f"truncation budget {eps_trunc:g} (a dimensionless norm error)")


def pi_max_bound(eta: int, E: float, eps_cut: float, params: OpeParams,
                 L: int) -> tuple[float, float]:
    """Field and conjugate-momentum cutoffs guaranteeing state overlap
    1 - eps_cut at energy E with eta nucleons (lower bounds, pre-rounding)."""
    eta = check_count(eta, "eta")
    L = check_count(L, "lattice extent", 1)
    if not E >= 0:
        raise DomainError(f"energy E must be >= 0, got {E}")
    A, B = ab_coefficients(params.a_L)
    if A <= 0 or B <= 0:
        raise DomainError(f"a_L={params.a_L} fm gives A={A:g}, B={B:g}; need both > 0")
    if not eps_cut > 0:
        raise DomainError(f"eps_cut must be positive, got {eps_cut}")
    if eps_cut >= 1:
        raise DomainError(f"eps_cut={eps_cut:g} must be below 1: the "
                          "guaranteed overlap 1 - eps_cut must be positive")
    a = convert_length(params.a_L)
    g_A, f_pi, m = CONSTANTS.g_A, CONSTANTS.f_pi, CONSTANTS.m_pi
    lead = math.sqrt(3 * L ** 3 / eps_cut) + 1
    drive = 3 * g_A / (f_pi * a * A)
    e_shift = E + 8 * eta * abs(params.C) + 4 * eta * abs(params.C_I2)
    mass_term = 9 * eta * m * m * a ** 3 * (6 * g_A / (m * m * f_pi * a ** 4)) ** 2
    pi_max = lead * (drive + math.sqrt(e_shift / A + 3 * eta * drive ** 2
                                       + mass_term / A))
    Pi_max = lead * math.sqrt(e_shift / B
                              + (3 * eta / (A * B)) * (3 * g_A / (f_pi * a)) ** 2
                              + mass_term / B)
    return pi_max, Pi_max


def boson_cutoffs(eta: int, E: float, eps_cut: float, params: OpeParams,
                  L: int, n_b: int | None = None) -> DigitizationSpec:
    """Integer-width digitization meeting both cutoff lower bounds.

    n_b is the ceiling of log2(2 a^3 Pi_max pi_max / pi + 1) unless the
    caller pins it; the field cutoff stays at its bound and the momentum
    cutoff absorbs the rounding (delta_pi = 2 pi_max / (2^n_b - 1),
    Pi_max = pi / (a^3 delta_pi)).
    """
    if n_b is not None:
        n_b = check_count(n_b, "register width n_b", 1)
    pi0, Pi0 = pi_max_bound(eta, E, eps_cut, params, L)
    a = convert_length(params.a_L)
    if n_b is None:
        raw = 2 * a ** 3 * Pi0 * pi0 / math.pi + 1
        if not math.isfinite(raw):
            raise DomainError(
                f"the boson cutoffs pi_max={pi0:.6g} and Pi_max={Pi0:.6g} "
                "overflow the float range: no register width can be sized")
        n_b = max(1, math.ceil(math.log2(raw)))
    if n_b >= sys.float_info.max_exp:
        raise DomainError(
            f"register width n_b={n_b} is too wide: its 2^n_b - 1 levels "
            f"overflow the float range (at most {sys.float_info.max_exp - 1} "
            "bits)")
    delta_pi = 2 * pi0 / (2 ** n_b - 1)
    Pi_max = math.pi / (a ** 3 * delta_pi)
    return DigitizationSpec(pi_max=pi0, Pi_max=Pi_max, n_b=n_b)

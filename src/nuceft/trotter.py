"""Analytic product-formula (Trotter) error bounds.

Closed-form p=1 and p=2 bounds for the contact-interaction model, p=1
commutator-class sums for the one-pion-exchange and dynamical-pion models,
a general nested-commutator bound for normal-ordered fermionic operators,
and the error-budget splits that tie everything to a target accuracy.

All coefficients are in MeV^(p+1) and carry no time: product_formula_error
applies the time step (in MeV^-1) to give a dimensionless error.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from itertools import accumulate
from operator import mul
from typing import NamedTuple, Sequence

from .errors import DomainError, check_count
from .params import (CONSTANTS, DigitizationSpec, OpeParams, PionlessParams,
                     convert_length, hopping_coefficient)
from .truncation import shell_counts


class _BoundReportFields(NamedTuple):
    classes: tuple[tuple[str, float], ...]


class BoundReport(_BoundReportFields):
    """Per-commutator-class breakdown of a p=1 error coefficient.

    The total is the zeta (or Xi) coefficient, whose error over time t is
    product_formula_error(1, t, total) = (t^2/2) * total.  Every
    contribution is finite and nonnegative.  ``report[label]`` is the
    contribution of one class; an integer index reads the tuple as usual.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for label, value in self.classes:
            if value < 0:
                raise DomainError(f"class {label!r} has negative bound {value}")
            if not math.isfinite(value):
                raise DomainError(f"class {label!r} has non-finite bound "
                                  f"{value}")
        return self

    @property
    def total(self) -> float:
        return _plain_sum(v for _, v in self.classes)

    def __getitem__(self, label):
        if not isinstance(label, str):
            return super().__getitem__(label)
        for lab, value in self.classes:
            if lab == label:
                return value
        raise KeyError(label)


def pionless_p1_bound(t: float, eta: int, params: PionlessParams) -> float:
    """t^2 * zeta for the contact-interaction Hamiltonian: twice
    product_formula_error(1, t, zeta), the (t^2/2) * zeta the estimator
    budgets, which is where the time enters."""
    return 2 * product_formula_error(
        1, t, pionless_p1_coefficient(eta, params).total)


def pionless_p1_coefficient(eta: int, params: PionlessParams) -> BoundReport:
    """zeta by class: kinetic_kinetic (15 h^2 eta) and kinetic_diagonal, the
    hopping against the 2-, 3- and 4-body contacts (6 h (a1 [eta/2] + ...))."""
    eta = check_count(eta, "eta")
    h = params.h
    return BoundReport((("kinetic_kinetic", 15 * h * h * eta),
                        ("kinetic_diagonal", 6 * h * _contacts(eta, params))))


def pionless_p2_coefficient(eta: int, params: PionlessParams) -> float:
    """The t^3 coefficient of the second-order bound."""
    eta = check_count(eta, "eta")
    h, C, D = params.h, params.C_slash, params.D_slash
    f2, f3, f4 = eta // 2, eta // 3, eta // 4
    n2 = abs(C) * f2
    n3 = abs(3 * C + D) * f3
    n4 = abs(6 * C + 4 * D) * f4
    c3 = abs(D) * f3
    c4 = 4 * abs(D) * f4
    u3 = abs(C / 2 + D / 6)
    u4 = abs(C / 2 + D / 3)
    q2 = 2 * C * C * f2
    q3 = 4 * u3 * (12 * u3 + abs(D)) * f3
    q4 = 24 * u4 * (6 * u4 + abs(D)) * f4
    q3p = (8 * abs(D) * u3 + (2 / 3) * D * D) * f3
    q4p = 8 * abs(D) * (6 * u4 + abs(D)) * f4
    return (1 / 12) * (125 * h ** 3 * eta
                       + 216 * h * h * (n2 + n3 + n4 + c3 + c4)
                       + 60 * h * h * _contacts(eta, params)
                       + 12 * h * (2 * (q2 + q3 + q4) + q3p + q4p))


def _contacts(eta: int, params: PionlessParams) -> float:
    """a1 [eta/2] + a2 [eta/3] + a3 [eta/4], the weights of the 2-, 3- and
    4-body contacts against the hopping: a1 = 2|C|, a2 = 2|3C+D| + |D| and
    a3 = 2|6C+4D| + 4|D|."""
    C, D = params.C_slash, params.D_slash
    return (2 * abs(C) * (eta // 2)
            + (2 * abs(3 * C + D) + abs(D)) * (eta // 3)
            + (2 * abs(6 * C + 4 * D) + 4 * abs(D)) * (eta // 4))


def _nucleon_classes(eta: int, h: float, C: float,
                     CI2: float) -> tuple[tuple[str, float], ...]:
    """The nucleon-nucleon classes both pion models share, from the hopping
    h and the contact couplings |C| and |C_I2|."""
    return (
        ("kinetic_kinetic", 30 * h * h * eta),
        ("kinetic_contact", 18 * h * C * eta),
        ("kinetic_exchange", 528 * h * CI2 * eta),
        ("contact_contact", 0.0),
        ("contact_exchange", 0.0),
        ("exchange_exchange", 60 * CI2 * CI2 * eta),
    )


def ope_p1_bound(eta: int, params: OpeParams, ell_units: int) -> BoundReport:
    """First-order commutator-class sum (zeta) for the pion-exchange model.

    The long-range classes sum over the lattice shells (see
    truncation.shell_counts) out to the range cutoff ell_units (lattice
    units; 0 excludes all pairs).  The spacing that turns r into fm is
    params.a_L, the one the couplings were fitted at.
    """
    eta = check_count(eta, "eta")
    ell_units = check_count(ell_units, "range cutoff")
    h = hopping_coefficient(params.a_L)
    C, CI2 = abs(params.C), abs(params.C_I2)
    a = convert_length(params.a_L)
    g2 = (CONSTANTS.g_A / (2 * CONSTANTS.f_pi)) ** 2
    g4 = g2 * g2
    s_qu, s_cross, s_same = _shell_sums(ell_units, params.a_L)

    classes = (
        *_nucleon_classes(eta, h, C, CI2),
        ("kinetic_onsite_lr", (131072 / 3) * g2 * h * eta / a ** 3),
        ("contact_onsite_lr", (7168 / 3) * g2 * C * eta / a ** 3),
        ("exchange_onsite_lr", (50176 / 9) * g2 * CI2 * eta / a ** 3),
        ("onsite_lr_onsite_lr", (152320 / 27) * g4 * eta / a ** 6),
        ("kinetic_lr", (98304 / math.pi) * h * g2 * s_qu * eta),
        ("contact_lr", (1024 / math.pi) * C * g2 * s_qu * eta),
        ("exchange_lr", (43008 / (12 * math.pi)) * CI2 * g2 * s_qu * eta),
        ("onsite_lr_lr", (458752 / (27 * math.pi)) * g4 * s_qu * eta / a ** 3),
        ("lr_lr_cross", 3670016 * (1 / (12 * math.pi)) ** 2 * g4 * s_cross * eta),
        ("lr_lr_same", (1 / (12 * math.pi)) ** 2 * g4 * s_same * eta),
    )
    return BoundReport(classes)


class _ShellTable(NamedTuple):
    """The shells of one spacing out to the largest cutoff priced so far:
    the shell_counts histogram, its nonzero shells r^2 > 0 in r^2 order,
    and, with c = q u, prefix sums over them of c (s_qu), of c times the
    s_qu before it (s_cross) and of the same-shell term (s_same)."""

    a_L_fm: float | None
    counts: list[int]
    r_sqs: list[int]
    s_qu: list[float]
    s_cross: list[float]
    s_same: list[float]


def _grown(table: _ShellTable, max_r_sq: int, a_L_fm: float) -> _ShellTable:
    """table grown to r^2 <= max_r_sq, as a new table; a table of another
    spacing is started afresh.  Each prefix sum carries on from its last
    entry, so every entry has the bits of one sum over the whole table."""
    if table.a_L_fm != a_L_fm:
        table = _EMPTY_TABLE._replace(a_L_fm=a_L_fm)
    if max_r_sq < len(table.counts):
        return table
    m = CONSTANTS.m_pi
    counts = shell_counts(max_r_sq, table.counts)
    r_sqs = [r_sq for r_sq in range(len(table.counts), len(counts))
             if r_sq and counts[r_sq]]
    qs = [counts[r_sq] for r_sq in r_sqs]
    # the bare radial kernel f(r)(g(r)+1) at r = a_L_fm sqrt(r^2) fm
    us = [(m * m * math.exp(-m * r) / r) * (2 + 3 / (m * r) + 3 / (m * r) ** 2)
          for r in (convert_length(a_L_fm * math.sqrt(r_sq))
                    for r_sq in r_sqs)]
    cs = list(map(mul, qs, us))
    s_qu = _extended(table.s_qu, cs)
    return _ShellTable(
        a_L_fm, counts, table.r_sqs + r_sqs, s_qu,
        _extended(table.s_cross, map(mul, cs, s_qu[len(table.r_sqs):])),
        _extended(table.s_same, ((3670016 * q * (q - 1) + 524288 * q) * u * u
                                 for q, u in zip(qs, us))))


def _extended(prefix: list, xs) -> list:
    """The prefix sums prefix, extended by xs as _plain_sum adds them."""
    return prefix[:-1] + list(accumulate(xs, initial=prefix[-1]))


# no table grows in place: _grown builds new lists, so this one stays empty
_EMPTY_TABLE = _ShellTable(None, [], [], [0], [0], [0])
_table = _EMPTY_TABLE  # the table of the spacing priced last


def _shell_sums(ell_units: int, a_L_fm: float) -> tuple[float, float, float]:
    """The eta-independent shell sums of ope_p1_bound over the nonzero
    shells with r <= ell_units: s_qu = sum q u, s_cross = sum over shell
    pairs a < b of q_a u_a q_b u_b, and s_same, read as entry n of the
    prefix sums of the _ShellTable of a_L_fm, n the number of those shells.
    Each has the bits of one left-to-right sum over them (see _plain_sum).
    The terms of s_cross are all >= 0, so it does not cancel as
    ((sum c)^2 - sum c^2)/2 does when one shell dominates."""
    global _table
    table = _table = _grown(_table, ell_units ** 2, a_L_fm)
    n = bisect_right(table.r_sqs, ell_units ** 2)
    return table.s_qu[n], table.s_cross[n], table.s_same[n]


def _clear_shell_table() -> None:
    """Start _shell_sums from the empty table."""
    global _table
    _table = _EMPTY_TABLE


def _plain_sum(xs, start=0) -> float:
    """xs added to start left to right, rounding after every addition, as
    builtin sum did before Python 3.12 began to compensate float sums."""
    return deque(accumulate(xs, initial=start), maxlen=1)[0]


def dynpi_p1_bound(eta: int, params: OpeParams,
                   digitization: DigitizationSpec, L: int) -> BoundReport:
    """First-order commutator-class sum (Xi) for the dynamical-pion model."""
    eta = check_count(eta, "eta")
    L = check_count(L, "lattice extent", 1)
    h = hopping_coefficient(params.a_L)
    C, CI2 = abs(params.C), abs(params.C_I2)
    a = convert_length(params.a_L)
    g_A, f_pi, m = CONSTANTS.g_A, CONSTANTS.f_pi, CONSTANTS.m_pi
    g = g_A / (2 * f_pi)
    pm, Pm = digitization.pi_max, digitization.Pi_max

    classes = (
        *_nucleon_classes(eta, h, C, CI2),
        ("boson_kinetic_potential",
         (36 / a ** 2 + 3 * m * m) * a ** 3 * pm * Pm * L),
        ("kinetic_axial", 2592 * g * h * pm * eta / a),
        ("axial_exchange", 6048 * g * CI2 * pm * eta / a),
        ("boson_kinetic_axial", 36 * g * Pm * eta / a),
        ("axial_axial", 20736 * g * g * pm * pm * eta / (a * a)),
        ("kinetic_weinberg", (432 * h / f_pi ** 2) * pm * Pm * eta),
        ("exchange_weinberg", (504 * CI2 / f_pi ** 2) * pm * Pm * eta),
        ("boson_potential_weinberg", (72 / f_pi ** 2) * pm * pm * eta / (a * a)),
        ("axial_weinberg",
         (g_A / (f_pi ** 3 * a)) * (72 / a ** 3 + 216 * pm * Pm) * pm * eta),
        ("weinberg_weinberg",
         384 * (1 / (4 * f_pi ** 2)) ** 2 * (3 * pm * Pm + 2 / a ** 3) * Pm * pm * eta),
    )
    return BoundReport(classes)


def general_npfo_bound(p: int, localities: Sequence[int],
                       weights: Sequence[float], eta: int) -> float:
    """Nested-commutator coefficient for translation-invariant sums of
    normal-ordered fermionic operators of given localities and strengths.

    Requires p+1 locality/weight entries (one per layer entering the
    (p+1)-deep nested commutator).
    """
    p = check_count(p, "order p", 1)
    if len(localities) != p + 1 or len(weights) != p + 1:
        raise DomainError(
            f"need {p + 1} locality/weight entries, got "
            f"{len(localities)}/{len(weights)}")
    localities = [check_count(k, "locality", 1) for k in localities]
    eta = check_count(eta, "eta")
    out = 1.0
    for w in weights:
        if not math.isfinite(w):
            raise DomainError(f"weight must be finite, got {w}")
        out *= abs(w)
    running = localities[0]
    for m in range(2, p + 2):
        k = localities[m - 1]
        out *= (2 * k * (k - 1)
                * (running - (m - 2)) * (running - (m - 1))
                * 2 ** (1 + min(k, running - (m - 2)) / 2))
        running += k
    k_min = min(localities)
    return out * math.ceil(eta / math.ceil(k_min / 2))


def product_formula_error(p: int, t: float, coefficient: float) -> float:
    """Single-segment error for a pth-order formula with the given
    commutator coefficient.

    The coefficient convention matches the bound producers in this module:
    p=1 takes zeta (error (t^2/2) zeta) and p=2 takes the full t^3
    coefficient.  No other order is bounded.
    """
    p = check_count(p, "order p")
    _check_time(t)
    if not coefficient >= 0:
        raise DomainError(f"coefficient must be >= 0, got {coefficient}")
    if p == 1:
        return t * t * coefficient / 2
    if p == 2:
        return t ** 3 * coefficient
    raise DomainError(f"product-formula errors are bounded for orders 1 "
                      f"and 2 only, got {p}")


def steps_for_budget(p: int, t: float, coefficient: float, budget: float) -> int:
    """Fewest Trotter steps r with r * error(t/r) <= budget."""
    if not budget > 0:
        raise DomainError(f"error budget must be positive, got {budget}")
    _check_time(t)
    single = product_formula_error(p, t, coefficient)
    if single <= budget:
        return 1
    # r steps of length t/r scale the bound by r^{-p}
    steps = (single / budget) ** (1 / p)
    if not math.isfinite(steps):
        raise DomainError(
            f"the Trotter step count overflows the float range: order-{p} "
            f"error {single:g} over t={t:g} against a budget of {budget:g}")
    return math.ceil(steps)


CHANNELS = {
    ("pionless", "near-term"): ("prod",),
    ("pionless", "fault-tolerant"): ("prod", "syn"),
    ("ope", "near-term"): ("prod", "trunc"),
    ("ope", "fault-tolerant"): ("prod", "trunc", "syn"),
    ("dynpi", "near-term"): ("prod", "cut"),
    ("dynpi", "fault-tolerant"): ("prod", "cut", "syn"),
}


def compose_total_error(model: str, epsilon: float, convention: str) -> dict:
    """Split a total error budget evenly among the channels that apply.

    Channels: 'prod' (product formula, = r * per-step error), 'trunc'
    (interaction-range cutoff), 'cut' (boson Hilbert-space cutoff, budgeted
    on the 2 sqrt(2 eps_cut) trace-distance form), 'syn' (rotation
    synthesis).  For 'cut' the ledger also reports the implied eps_cut.
    """
    if (model, convention) not in CHANNELS:
        raise DomainError(f"unknown model/convention {model!r}/{convention!r}")
    if not epsilon > 0:
        raise DomainError(f"error budget must be positive, got {epsilon}")
    channels = CHANNELS[(model, convention)]
    share = epsilon / len(channels)
    ledger = {name: share for name in channels}
    if "cut" in ledger:
        # invert 2*sqrt(2*eps_cut) = share
        ledger["eps_cut"] = (share / 2) ** 2 / 2
    return ledger


def _check_time(t: float) -> None:
    if not t >= 0:
        raise DomainError(f"time must be >= 0, got {t}")

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
from bisect import bisect_left
from collections import deque
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import mul
from typing import NamedTuple, Sequence

from .errors import DomainError
from .params import (CONSTANTS, DigitizationSpec, OpeParams, PionlessParams,
                     convert_length, hopping_coefficient)
from .truncation import check_cutoff, realized_shells


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
    _check_eta(eta)
    h = params.h
    return BoundReport((("kinetic_kinetic", 15 * h * h * eta),
                        ("kinetic_diagonal", 6 * h * _contacts(eta, params))))


def pionless_p2_coefficient(eta: int, params: PionlessParams) -> float:
    """The t^3 coefficient of the second-order bound."""
    _check_eta(eta)
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

    The long-range classes sum over the shells of truncation.realized_shells
    out to the range cutoff ell_units (lattice units; 0 excludes all pairs).
    The spacing that turns r into fm is params.a_L, the one the couplings
    were fitted at.
    """
    _check_eta(eta)
    # checked before the lookup: True or 2.0 would find the sums of 1 or 2
    check_cutoff(ell_units)
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


# a sweep meets its cutoffs in runs, so a few entries suffice
@lru_cache(maxsize=8)
def _shell_sums(ell_units: int, a_L_fm: float) -> tuple[float, float, float]:
    """The eta-independent shell sums of ope_p1_bound over the shells of
    realized_shells(ell_units): s_qu = sum q u, s_cross = sum over shell
    pairs a < b of q_a u_a q_b u_b, and s_same.

    Each (r^2, q) shell lies at r = a_L_fm sqrt(r^2) fm, and u is the bare
    radial kernel f(r)(g(r)+1) there; the coupling constants appear
    explicitly in each class coefficient.  Each sum is taken in one fixed
    order and rounded after every addition (see _plain_sum): s_qu and
    s_same over the shells in table order, s_cross as _cross_sum says.
    _cross_sum forms only the pair products of at least half an ulp of its
    total after the first row: a smaller product cannot change a running
    total under round-to-nearest.  So the three values are the bits of the
    full sums, on every Python and on either side of _cross_sum's numpy
    switch.
    """
    m = CONSTANTS.m_pi
    shells = realized_shells(ell_units)

    def bare_kernel(r: float) -> float:
        return (m * m * math.exp(-m * r) / r) * (2 + 3 / (m * r)
                                                 + 3 / (m * r) ** 2)

    qs = [q for _, q in shells]
    us = [bare_kernel(convert_length(a_L_fm * math.sqrt(r_sq)))
          for r_sq, _ in shells]
    s_qu = _plain_sum(map(mul, qs, us))
    s_cross = _cross_sum(qs, us)
    s_same = _plain_sum((3670016 * q * (q - 1) + 524288 * q) * u * u
                        for q, u in zip(qs, us))
    return s_qu, s_cross, s_same


# above this many shell pairs left after the first row and _cross_sum's
# half-ulp cut, it adds them in numpy, with the same bits.  At 2.2 fm the
# cut leaves at most 25,186 at any cutoff (of the 890,445 pairs of ell = 40
# lattice units and the 3.5e9 of ell = 317 alike), so an estimate or sweep
# there never imports numpy; at 1.0 fm, ell = 40 leaves 367,022.  At the
# switch the pure-Python sum takes about 5 ms, a twentieth of the numpy
# import that a sum just above it pays.
_NUMPY_PAIRS = 1 << 15


def _cross_sum(qs: Sequence[int], us: Sequence[float]) -> float:
    """s_cross = sum over a < b of ((q_a u_a) q_b) u_b, for counts q >= 0
    and kernels u >= 0.

    The pairs are taken in row-major order (a, then b) and added strictly
    left to right, rounding after every addition, so every running total
    is at least T, the total after row 0.  Any product below half an ulp of
    T therefore leaves the total unchanged, and is not formed (see
    _kept_rows).  The result has the same bits as the sum of every pair.
    When more than _NUMPY_PAIRS pairs are kept, numpy forms them with the
    same multiplications, and np.add.accumulate (sequential, unlike np.sum)
    adds each row after the total so far.  Fewer than two shells give the
    int 0, the empty sum.
    """
    n = len(qs)
    if n < 2:
        return 0
    cs = list(map(mul, qs, us))
    total = _plain_sum(map(mul, map(mul, repeat(cs[0]), qs[1:]), us[1:]))
    rows = _kept_rows(cs, total)
    if sum(end - a - 1 for a, end in rows) <= _NUMPY_PAIRS:
        return _plain_sum(chain.from_iterable(
            map(mul, map(mul, repeat(cs[a]), qs[a + 1:end]), us[a + 1:end])
            for a, end in rows), total)
    import numpy as np
    q, u = np.array(qs, dtype=np.float64), np.array(us, dtype=np.float64)
    for a, end in rows:
        row = cs[a] * q[a + 1:end]
        row *= u[a + 1:end]
        row[0] += total
        total = float(np.add.accumulate(row, out=row)[-1])
    return total


def _kept_rows(cs: list[float], total: float) -> list[tuple[int, int]]:
    """The rows a >= 1 of _cross_sum that can change its total, each as
    (a, end): the pairs (a, b) with a < b < end.

    h = ulp(total) / 2, and a product p < h leaves any running total T >=
    total unchanged under round-to-nearest (T + p lies below the midpoint
    between T and the next float).  With w = max(c, 2^-1022), c = q u, and
    top[b] the largest w at b or after it, the product of pair (a, b) is at
    most w_a top[b] (1 + 5 2^-53), so a pair whose bound w_a top[b]
    (1 + 1e-15) is below h is not formed.  top falls with b, so the kept
    pairs of a row are a prefix, and the rows stop at the first a with
    top[a] top[a+1] below the cut.  The floor on w bounds the underflow of
    a subnormal c or q u.  A total that is not finite, or not above 2^-900
    (so that h lies far above the subnormals), keeps every pair.  A finite
    total means that c_0 and every later u are finite, so no c is nan and
    max is well defined.
    """
    n = len(cs)
    if not 2.0 ** -900 < total < math.inf:
        return [(a, n) for a in range(1, n - 1)]
    half_ulp, margin = math.ulp(total) / 2, 1 + 1e-15
    tiny = 2.0 ** -1022
    top = list(accumulate(reversed([max(c, tiny) for c in cs]), max))[::-1]
    rows = []
    for a in range(1, n - 1):
        if top[a] * top[a + 1] * margin < half_ulp:
            break
        w = max(cs[a], tiny)
        end = bisect_left(top, True, a + 1, n,
                          key=lambda t: w * t * margin < half_ulp)
        if end > a + 1:
            rows.append((a, end))
    return rows


def _plain_sum(xs, start=0) -> float:
    """xs added to start left to right, rounding after every addition, as
    builtin sum did before Python 3.12 began to compensate float sums."""
    return deque(accumulate(xs, initial=start), maxlen=1)[0]


def dynpi_p1_bound(eta: int, params: OpeParams,
                   digitization: DigitizationSpec, L: int) -> BoundReport:
    """First-order commutator-class sum (Xi) for the dynamical-pion model."""
    _check_eta(eta)
    if L < 1:
        raise DomainError(f"lattice extent must be >= 1, got {L}")
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
    if len(localities) != p + 1 or len(weights) != p + 1:
        raise DomainError(
            f"need {p + 1} locality/weight entries, got "
            f"{len(localities)}/{len(weights)}")
    if any(k < 1 for k in localities):
        raise DomainError("localities must be >= 1")
    _check_eta(eta)
    out = 1.0
    for w in weights:
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
    _check_time(t)
    if coefficient < 0:
        raise DomainError(f"coefficient must be >= 0, got {coefficient}")
    if p == 1:
        return t * t * coefficient / 2
    if p == 2:
        return t ** 3 * coefficient
    raise DomainError(f"product-formula errors are bounded for orders 1 "
                      f"and 2 only, got {p}")


def steps_for_budget(p: int, t: float, coefficient: float, budget: float) -> int:
    """Fewest Trotter steps r with r * error(t/r) <= budget."""
    if budget <= 0:
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
    if epsilon <= 0:
        raise DomainError(f"error budget must be positive, got {epsilon}")
    channels = CHANNELS[(model, convention)]
    share = epsilon / len(channels)
    ledger = {name: share for name in channels}
    if "cut" in ledger:
        # invert 2*sqrt(2*eps_cut) = share
        ledger["eps_cut"] = (share / 2) ** 2 / 2
    return ledger


def _check_time(t: float) -> None:
    if t < 0:
        raise DomainError(f"time must be >= 0, got {t}")


def _check_eta(eta: int) -> None:
    if eta < 0:
        raise DomainError(f"eta must be >= 0, got {eta}")

"""Physical constants, model parameters and closed-form kernels.

Plain ``math`` only, so the cost pipeline (trotter, truncation, estimator)
runs without numpy.  Couplings and energies are in MeV (hbar = c = 1);
lengths in fm are converted via hbar*c, ``CONSTANTS.hbar_c``, at the API
boundary.

The physics is fixed at the paper's values (``CONSTANTS``, ``C_TILDE_1``,
``C_TILDE_0``); no function takes a constant as a parameter.

The records on the estimate path (here, in costs, trotter and estimator)
are immutable ``NamedTuple``s, which cost far less to define at import than
dataclasses.  A record whose values have a precondition checks it in
``__new__``; ``_replace`` and ``_make`` skip that check, so rebuild such a
record through its constructor.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError


class PhysicalConstants(NamedTuple):
    M: float = 938.0      # nucleon mass, MeV
    m_pi: float = 135.0   # pion mass, MeV
    g_A: float = 1.26     # axial coupling
    f_pi: float = 93.0    # pion decay constant, MeV
    hbar_c: float = 197.3269804  # MeV fm


CONSTANTS = PhysicalConstants()

C_TILDE_1 = -5.021e-5   # isospin-1 OPE low-energy constant, MeV^-2
C_TILDE_0 = -5.714e-5   # isospin-0 OPE low-energy constant, MeV^-2


def convert_length(a_fm: float) -> float:
    """fm -> 1/MeV."""
    if not a_fm > 0:
        raise DomainError(f"length must be positive, got {a_fm}")
    return a_fm / CONSTANTS.hbar_c


def hopping_coefficient(a_L_fm: float) -> float:
    """h = 1 / (2 M a^2)."""
    a = convert_length(a_L_fm)
    return 1.0 / (2.0 * CONSTANTS.M * a * a)


class PionlessParams(NamedTuple):  # keyed by a_L in the table below
    h: float         # MeV
    C_slash: float   # MeV
    D_slash: float   # MeV


_PIONLESS_TABLE = {
    1.4: PionlessParams(10.58, -98.23, 127.84),
    2.2: PionlessParams(4.29, -40.19, 42.51),
}


def pionless_params_for(a_L_fm: float) -> PionlessParams:
    """Tabulated couplings for the supported lattice spacings."""
    try:
        return _PIONLESS_TABLE[a_L_fm]
    except KeyError:
        raise DomainError(
            f"no tabulated pionless couplings for a_L={a_L_fm} fm "
            f"(known: {sorted(_PIONLESS_TABLE)})") from None


class OpeParams(NamedTuple):
    a_L: float      # fm
    C: float        # MeV
    C_I2: float     # MeV

    @classmethod
    def from_lecs(cls, a_L_fm: float) -> "OpeParams":
        """Couplings from the isospin-1/0 low-energy constants."""
        a3 = convert_length(a_L_fm) ** 3
        c = (3 * C_TILDE_1 + C_TILDE_0) / (4 * a3)
        c_i2 = (C_TILDE_1 - C_TILDE_0) / (4 * a3)
        return cls(a_L_fm, c, c_i2)


class DigitizationSpec(NamedTuple):
    """What truncation.boson_cutoffs sizes; it checks the register width."""

    pi_max: float     # field cutoff, MeV^2 units of the dimensionful field
    Pi_max: float
    n_b: int


def ab_coefficients(a_L_fm: float) -> tuple[float, float]:
    """The quadratic-form coefficients (A, B) controlling the field cutoffs."""
    a = convert_length(a_L_fm)
    A = CONSTANTS.m_pi ** 2 * a ** 3 / 2 - 1 / (2 * CONSTANTS.f_pi ** 2 * a)
    B = a ** 3 / 2 - a / (2 * CONSTANTS.f_pi ** 2)
    return A, B


def yukawa_g1(r: float) -> float:
    """Radial strength (1/12pi)(g_A/2f_pi)^2 m^2 exp(-m r)/r; r in 1/MeV."""
    m = CONSTANTS.m_pi
    pref = (CONSTANTS.g_A / (2 * CONSTANTS.f_pi)) ** 2 / (12 * math.pi)
    return pref * m * m * math.exp(-m * r) / r


def yukawa_g2(r: float) -> float:
    m = CONSTANTS.m_pi
    return yukawa_g1(r) * (1 + 3 / (m * r) + 3 / (m * r) ** 2)

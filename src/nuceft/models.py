"""Lattice Hamiltonian builders for the three nucleon models.

The parameter objects and kernels they take live in ``params``.  Modes are
indexed 4*raster + species, species order (up-p, down-p, up-n, down-n); with
spin bit alpha (0 = up) and isospin bit beta (0 = proton) the species index
is 2*beta + alpha.
"""

from __future__ import annotations

import numpy as np

from .encodings import LatticeSpec
from .fock import (ANNIHILATE, CREATE, NUMBER, FermionSum, FermionTerm,
                   reorder_only)
# pionless_params_for is not used here; it stays importable from models
from .params import (CONSTANTS, OpeParams, PhysicalConstants,  # noqa: F401
                     PionlessParams, convert_length, hopping_coefficient,
                     pionless_params_for, yukawa_g1, yukawa_g2)

# 2x2 spin/isospin matrices indexed 1..3
_PAULI2 = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}


def species_index(alpha: int, beta: int) -> int:
    """Species from spin bit alpha (0 = up) and isospin bit beta (0 = p)."""
    return 2 * beta + alpha


def mode_index(lattice: LatticeSpec, site, species: int) -> int:
    return 4 * lattice.raster_index(site) + species


# ---------------------------------------------------------------------------
# pionless EFT


def _free_terms(lattice: LatticeSpec, h: float) -> list[FermionTerm]:
    """-h * hopping over all bonds/species + 6h * on-site number terms."""
    out = []
    for si, sj, _axis in lattice.bonds():
        for sp in range(4):
            mi = mode_index(lattice, si, sp)
            mj = mode_index(lattice, sj, sp)
            lo, hi = min(mi, mj), max(mi, mj)
            out.append(FermionTerm(-h, ((lo, CREATE), (hi, ANNIHILATE))))
            out.append(FermionTerm(-h, ((hi, CREATE), (lo, ANNIHILATE))))
    for site in lattice.sites():
        for sp in range(4):
            out.append(FermionTerm(6 * h, ((mode_index(lattice, site, sp), NUMBER),)))
    return out


def _contact_two_body(lattice: LatticeSpec, coeff_half: float) -> list[FermionTerm]:
    """coeff_half * sum over ordered distinct species pairs of N N'."""
    out = []
    for site in lattice.sites():
        for s1 in range(4):
            for s2 in range(4):
                if s1 == s2:
                    continue
                m1 = mode_index(lattice, site, s1)
                m2 = mode_index(lattice, site, s2)
                lo, hi = min(m1, m2), max(m1, m2)
                out.append(FermionTerm(coeff_half, ((lo, NUMBER), (hi, NUMBER))))
    return out


def build_pionless(lattice: LatticeSpec, params: PionlessParams) -> FermionSum:
    n = 4 * lattice.n_sites
    terms = _free_terms(lattice, params.h)
    terms += _contact_two_body(lattice, params.C_slash / 2)
    for site in lattice.sites():
        modes = [mode_index(lattice, site, sp) for sp in range(4)]
        for t in range(4):
            for u in range(4):
                for v in range(4):
                    if len({t, u, v}) != 3:
                        continue
                    ms = sorted((modes[t], modes[u], modes[v]))
                    terms.append(FermionTerm(
                        params.D_slash / 6,
                        tuple((m, NUMBER) for m in ms)))
    return FermionSum(n, terms)


def pionless_layers(lattice: LatticeSpec, params: PionlessParams) -> list[FermionSum]:
    """Kinetic bonds split by (axis, coordinate parity) plus one on-site layer.

    Up to six kinetic layers (bonds in one layer are vertex-disjoint) and a
    final diagonal layer holding the number and contact terms.
    """
    n = 4 * lattice.n_sites
    kinetic: dict[int, list[FermionTerm]] = {}
    for si, sj, axis in lattice.bonds():
        key = 2 * axis + si[axis] % 2
        for sp in range(4):
            mi = mode_index(lattice, si, sp)
            mj = mode_index(lattice, sj, sp)
            lo, hi = min(mi, mj), max(mi, mj)
            kinetic.setdefault(key, []).append(
                FermionTerm(-params.h, ((lo, CREATE), (hi, ANNIHILATE))))
            kinetic[key].append(
                FermionTerm(-params.h, ((hi, CREATE), (lo, ANNIHILATE))))
    layers = [FermionSum(n, ts) for _, ts in sorted(kinetic.items())]
    diag = build_pionless(lattice, params) - sum(
        layers, FermionSum(n)) if layers else build_pionless(lattice, params)
    layers.append(diag)
    return layers


# ---------------------------------------------------------------------------
# one-pion-exchange EFT


def _bilinear_modes(lattice, site, alpha, beta, gamma, delta):
    """Mode pair for adag_{alpha beta} a_{gamma delta} at one site."""
    return (mode_index(lattice, site, species_index(alpha, beta)),
            mode_index(lattice, site, species_index(gamma, delta)))


def _pair_terms(lattice, site_x, site_y, spin_kernel, iso_kernel, weight):
    """Terms of weight * :adag a (x) adag a (y): contracted with the kernels.

    spin_kernel[a', g', a, g] and iso_kernel[b', d', b, d] are 2x2x2x2 arrays.
    """
    out = []
    for ap in range(2):
        for gp in range(2):
            for a in range(2):
                for g in range(2):
                    s = spin_kernel[ap, gp, a, g]
                    if s == 0:
                        continue
                    for bp in range(2):
                        for dp in range(2):
                            for b in range(2):
                                for d in range(2):
                                    w = s * iso_kernel[bp, dp, b, d]
                                    if w == 0:
                                        continue
                                    c1, a1 = _bilinear_modes(lattice, site_x, ap, bp, gp, dp)
                                    c2, a2 = _bilinear_modes(lattice, site_y, a, b, g, d)
                                    fs = ((c1, CREATE), (a1, ANNIHILATE),
                                          (c2, CREATE), (a2, ANNIHILATE))
                                    out.extend(reorder_only(fs, weight * w).terms)
    return out


def _sigma_dot_sigma() -> np.ndarray:
    k = np.zeros((2, 2, 2, 2), dtype=complex)
    for s in (1, 2, 3):
        k += np.einsum("ij,kl->ijkl", _PAULI2[s], _PAULI2[s])
    return k


def _tensor_kernel(unit: np.ndarray) -> np.ndarray:
    """3 (u.sigma)(u.sigma) - sigma.sigma, indexed [a', g', a, g]."""
    udots = sum(unit[s - 1] * _PAULI2[s] for s in (1, 2, 3))
    return 3 * np.einsum("ij,kl->ijkl", udots, udots) - _sigma_dot_sigma()


def _tau_dot_tau() -> np.ndarray:
    return _sigma_dot_sigma()  # same algebra on the isospin indices


def build_ope(lattice: LatticeSpec, params: OpeParams,
              constants: PhysicalConstants = CONSTANTS) -> FermionSum:
    n = 4 * lattice.n_sites
    h = hopping_coefficient(params.a_L, constants)
    terms = _free_terms(lattice, h)
    terms += _contact_two_body(lattice, params.C / 2)
    terms += _ci2_terms(lattice, params.C_I2)
    terms += _long_range_terms(lattice, params, constants)
    return FermionSum(n, terms)


def _ci2_terms(lattice: LatticeSpec, c_i2: float) -> list[FermionTerm]:
    """(C_I2/2) * sum_I :rho_I^2: per site via direct isospin contraction."""
    out = []
    iso = _tau_dot_tau()
    for site in lattice.sites():
        for ap in range(2):
            for a in range(2):
                for bp in range(2):
                    for dp in range(2):
                        for b in range(2):
                            for d in range(2):
                                w = iso[bp, dp, b, d]
                                if w == 0:
                                    continue
                                c1, a1 = _bilinear_modes(lattice, site, ap, bp, ap, dp)
                                c2, a2 = _bilinear_modes(lattice, site, a, b, a, d)
                                fs = ((c1, CREATE), (a1, ANNIHILATE),
                                      (c2, CREATE), (a2, ANNIHILATE))
                                out.extend(reorder_only(fs, (c_i2 / 2) * w).terms)
    return out


def _long_range_terms(lattice: LatticeSpec, params: OpeParams,
                      constants: PhysicalConstants) -> list[FermionTerm]:
    if params.ell < lattice.a_L:
        return []
    a = convert_length(lattice.a_L)
    ell = convert_length(params.ell)
    iso = _tau_dot_tau()
    sig = _sigma_dot_sigma()
    terms: list[FermionTerm] = []
    site_list = list(lattice.sites())
    # on-site delta piece of the interaction kernel
    onsite = -(constants.g_A / (2 * constants.f_pi)) ** 2 / (9 * a ** 3)
    for site in site_list:
        terms += _pair_terms(lattice, site, site, onsite * sig, iso, 1.0)
    for sx in site_list:
        for sy in site_list:
            if sx == sy:
                continue
            disp = np.array(sx, dtype=float) - np.array(sy, dtype=float)
            r = a * float(np.linalg.norm(disp))
            if r > ell + 1e-12:
                continue
            unit = disp / np.linalg.norm(disp)
            kernel = yukawa_g2(r, constants) * _tensor_kernel(unit) \
                + yukawa_g1(r, constants) * sig
            terms += _pair_terms(lattice, sx, sy, kernel, iso, 1.0)
    return terms


def explicit_ci2_site_terms(lattice: LatticeSpec, site, c_i2: float) -> list[FermionTerm]:
    """The written-out 11-term on-site isovector contact expansion.

    Used as an independent transcription check against _ci2_terms.
    """
    m = [mode_index(lattice, site, sp) for sp in range(4)]
    up_p, down_p, up_n, down_n = m
    half = c_i2 / 2
    quads = [(1.0, up_p, up_p), (1.0, down_p, down_p),
             (1.0, up_n, up_n), (1.0, down_n, down_n),
             (-6.0, up_p, up_n), (2.0, up_p, down_p), (-2.0, up_p, down_n),
             (-2.0, down_p, up_n), (2.0, up_n, down_n), (-6.0, down_p, down_n)]
    out: list[FermionTerm] = []
    for w, m1, m2 in quads:
        out.extend(reorder_only(((m1, NUMBER), (m2, NUMBER)), half * w).terms)
    exch = ((up_p, CREATE), (down_p, ANNIHILATE), (down_n, CREATE), (up_n, ANNIHILATE))
    out.extend(reorder_only(exch, -4.0 * half).terms)
    herm = ((up_n, CREATE), (down_n, ANNIHILATE), (down_p, CREATE), (up_p, ANNIHILATE))
    out.extend(reorder_only(herm, -4.0 * half).terms)
    return out

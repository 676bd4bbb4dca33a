import math

import numpy as np
import pytest

from nuceft.encodings import LatticeSpec
from nuceft.errors import DomainError
from nuceft.fock import NUMBER, eta_seminorm
from nuceft.models import build_pionless, pionless_layers
from nuceft.params import (C_TILDE_0, C_TILDE_1, CONSTANTS, OpeParams,
                           ab_coefficients, convert_length,
                           hopping_coefficient, pionless_params_for,
                           yukawa_g1, yukawa_g2)

from fermion_reference import reference_full_matrix


def test_physical_constants():
    assert CONSTANTS.M == 938.0
    assert CONSTANTS.m_pi == 135.0
    assert CONSTANTS.g_A == 1.26
    assert CONSTANTS.f_pi == 93.0
    assert CONSTANTS.hbar_c == 197.3269804
    assert (C_TILDE_1, C_TILDE_0) == (-5.021e-5, -5.714e-5)


def test_convert_length():
    assert convert_length(CONSTANTS.hbar_c) == 1.0
    assert convert_length(2.2) == pytest.approx(0.011149008, rel=1e-6)
    with pytest.raises(DomainError):
        convert_length(0.0)


def test_hopping_matches_tabulated_couplings():
    # h = 1/(2 M a^2) should land on the tabulated values to < 0.5%
    for a_L in (1.4, 2.2):
        table = pionless_params_for(a_L)
        recomputed = hopping_coefficient(a_L)
        assert abs(recomputed - table.h) / table.h < 5e-3


def test_tabulated_couplings():
    p = pionless_params_for(1.4)
    assert (p.h, p.C_slash, p.D_slash) == (10.58, -98.23, 127.84)
    p = pionless_params_for(2.2)
    assert (p.h, p.C_slash, p.D_slash) == (4.29, -40.19, 42.51)
    with pytest.raises(DomainError):
        pionless_params_for(1.0)


def test_ope_params_from_lecs():
    # frozen against an independent evaluation of (3c1+c0)/4a^3, (c1-c0)/4a^3
    p = OpeParams.from_lecs(2.2)
    a3 = (2.2 / CONSTANTS.hbar_c) ** 3
    assert p.C == pytest.approx((3 * -5.021e-5 + -5.714e-5) / (4 * a3))
    assert p.C_I2 == pytest.approx((-5.021e-5 - -5.714e-5) / (4 * a3))
    assert p.C == pytest.approx(-37.481262964064285)
    assert p.C_I2 == pytest.approx(1.250157156186963)
    # the low-energy constants are fixed: from_lecs takes the spacing alone
    with pytest.raises(TypeError):
        OpeParams.from_lecs(2.2, 22.0)


def test_yukawa_kernels():
    m = CONSTANTS.m_pi
    r = convert_length(2.2)
    pref = (CONSTANTS.g_A / (2 * CONSTANTS.f_pi)) ** 2 / (12 * math.pi)
    g1 = pref * m * m * math.exp(-m * r) / r
    assert yukawa_g1(r) == pytest.approx(g1, rel=1e-12)
    assert yukawa_g1(r) == pytest.approx(0.44172484384270577)
    g2 = g1 * (1 + 3 / (m * r) + 3 / (m * r) ** 2)
    assert yukawa_g2(r) == pytest.approx(g2, rel=1e-12)
    assert yukawa_g2(r) == pytest.approx(1.9071409720817902)


def test_ab_coefficients():
    A, B = ab_coefficients(2.2)
    assert A == pytest.approx(0.007443108837210844)
    assert B == pytest.approx(4.83870667691161e-08)
    # below the critical spacing the quadratic form turns indefinite
    A_small, B_small = ab_coefficients(0.3)
    assert A_small < 0 and B_small < 0


def test_pionless_hamiltonian_small_lattice():
    lat = LatticeSpec(2, 1, 1, 2.2)
    params = pionless_params_for(2.2)
    h = build_pionless(lat, params)
    mat = reference_full_matrix(h)
    assert np.allclose(mat, mat.conj().T)
    # layers resum to the full Hamiltonian
    layers = pionless_layers(lat, params)
    total = sum((reference_full_matrix(layer) for layer in layers),
                np.zeros((256, 256), dtype=complex))
    assert np.allclose(total, mat, atol=1e-10)


def test_pionless_vacuum_and_single_particle():
    lat = LatticeSpec(2, 1, 1, 2.2)
    params = pionless_params_for(2.2)
    h = build_pionless(lat, params)
    mat = reference_full_matrix(h)
    # the interaction needs two particles: empty state has zero energy
    assert abs(mat[0, 0]) < 1e-12
    # single-particle energy is kinetic only: 6h diagonal plus one hop
    assert eta_seminorm(h, 1) == pytest.approx(7 * params.h)


def test_layers_internally_commute():
    lat = LatticeSpec(2, 1, 1, 2.2)
    params = pionless_params_for(2.2)
    for layer in pionless_layers(lat, params):
        m = reference_full_matrix(layer)
        assert np.allclose(m @ m.conj().T, m.conj().T @ m)


# (axis, parity) of each kinetic layer, in the order the layers come: on
# 2x2x1 that is kin_x, kin_y, then the diagonal layer
_KINETIC_KEYS = {
    (2, 2, 1): [(0, 0), (1, 0)],
    (2, 2, 2): [(0, 0), (1, 0), (2, 0)],
    (3, 3, 3): [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)],
}


@pytest.mark.parametrize("shape", sorted(_KINETIC_KEYS),
                         ids=lambda s: "x".join(map(str, s)))
def test_layer_split_in_3d(shape):
    lat = LatticeSpec(*shape, 2.2)
    params = pionless_params_for(2.2)
    layers = pionless_layers(lat, params)
    # H is the union of the layers, term for term and with exact weights
    union = {}
    for layer in layers:
        for t in layer:
            assert t.factors not in union
            union[t.factors] = t.weight
    assert union == {t.factors: t.weight for t in build_pionless(lat, params)}
    *kinetic, diag = layers
    keys = []
    for layer in kinetic:
        layer_keys, sites, bonds = set(), [], set()
        for t in layer:
            assert t.weight == -params.h
            (mi, _), (mj, _) = t.factors
            si, sj = lat.site_at(mi // 4), lat.site_at(mj // 4)
            axis = lat.bond_axis(si, sj)
            layer_keys.add((axis, min(si[axis], sj[axis]) % 2))
            bond = frozenset((si, sj))
            if bond not in bonds:
                bonds.add(bond)
                sites += bond
        # one (axis, parity) class per layer, and its bonds share no site
        assert len(layer_keys) == 1
        assert len(set(sites)) == len(sites)
        keys += layer_keys
    assert keys == _KINETIC_KEYS[shape]
    # the diagonal layer: per site 4 number, 6 pair and 4 triple terms
    assert all(k == NUMBER for t in diag for _, k in t.factors)
    by_order = {}
    for t in diag:
        by_order.setdefault(len(t.factors), []).append(t.weight)
    assert {k: len(w) for k, w in by_order.items()} == {
        1: 4 * lat.n_sites, 2: 6 * lat.n_sites, 3: 4 * lat.n_sites}
    assert set(by_order[1]) == {6 * params.h}
    assert set(by_order[2]) == {params.C_slash}
    assert by_order[3] == pytest.approx([params.D_slash] * 4 * lat.n_sites)

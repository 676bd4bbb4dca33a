import re

import numpy as np
import pytest

from nuceft import costs
from nuceft.encodings import (N_SPECIES, LatticeSpec, QubitLayout,
                              _path_edges, encode_fermion_sum, encode_hopping,
                              encode_ladder, encode_number, vc_stabilizers)
from nuceft.errors import (DimensionError, GeometryError,
                           UnsupportedOperatorError)
from nuceft.fock import ANNIHILATE, CREATE, FermionSum, FermionTerm
from nuceft.models import pionless_layers
from nuceft.params import pionless_params_for
from nuceft.pauli import PauliSum, dense_matrix
from nuceft.verify import hopping_weights, verify_encodings

import pauli_reference as ref
from fermion_reference import dense_sum, hopping, number_op
from pauli_reference import exact_terms


def test_raster_roundtrip_and_boustrophedon():
    lat = LatticeSpec(3, 2, 2, 2.2)
    for r in range(lat.n_sites):
        assert lat.raster_index(lat.site_at(r)) == r
    # consecutive raster sites within a z plane are nearest neighbors
    for r in range(lat.n_sites - 1):
        a, b = lat.site_at(r), lat.site_at(r + 1)
        if a[2] == b[2]:
            assert sum(abs(x - y) for x, y in zip(a, b)) == 1
        else:
            assert b[2] == a[2] + 1


def test_bond_axis_rejects_non_neighbors():
    lat = LatticeSpec(3, 3, 1, 2.2)
    with pytest.raises(GeometryError):
        lat.bond_axis((0, 0, 0), (2, 0, 0))


def _layout(encoding, shape=(2, 1, 1)):
    return QubitLayout(encoding, LatticeSpec(*shape, 2.2))


@pytest.mark.parametrize("call, error, message", [
    (lambda: LatticeSpec(0, 1, 1, 2.2), GeometryError,
     "extent Lx must be >= 1, got 0"),
    (lambda: LatticeSpec(2, 1, 1, 0.0), GeometryError,
     "lattice spacing must be positive, got 0.0"),
    (lambda: LatticeSpec(2, 1, 1, 2.2).raster_index((2, 0, 0)),
     GeometryError, "site (2, 0, 0) outside lattice"),
    (lambda: LatticeSpec(2, 1, 1, 2.2).site_at(2), GeometryError,
     "raster index 2 out of range"),
    (lambda: LatticeSpec(2, 1, 1, 2.2).site_at(-1), GeometryError,
     "raster index -1 out of range"),
    (lambda: LatticeSpec(2, 1, 1, 2.2).bond_axis((0, 0, 0), (0, 1, 0)),
     GeometryError, "site outside lattice: (0, 0, 0), (0, 1, 0)"),
    (lambda: _layout("bk"), ValueError, "unknown encoding 'bk'"),
    (lambda: _layout("jw").qubit((0, 0, 0), 4), DimensionError,
     "species index 4 out of range"),
    (lambda: encode_ladder(_layout("jw"), (0, 0, 0), 0, "n"), ValueError,
     "kind must be '+' or '-'"),
    (lambda: encode_ladder(_layout("vc"), (0, 0, 0), 4, CREATE),
     DimensionError, "species index 4 out of range"),
    (lambda: _layout("vc").face_qubit(0, None), UnsupportedOperatorError,
     "face ancillas exist only in the compact encoding"),
    (lambda: vc_stabilizers(_layout("jw")), UnsupportedOperatorError,
     "stabilizers are defined for the vc encoding only"),
    (lambda: encode_fermion_sum(_layout("vc"), FermionSum(12)),
     UnsupportedOperatorError, "direct operator encoding is jw-only"),
    (lambda: encode_fermion_sum(_layout("jw"), FermionSum(7)),
     DimensionError, "operator has 7 modes, layout 8 qubits"),
])
def test_encoding_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error


def test_qubit_budgets():
    lat = LatticeSpec(2, 2, 2, 2.2)
    assert QubitLayout("jw", lat).total_qubits == 4 * 8
    assert QubitLayout("vc", lat).total_qubits == 6 * 8
    assert QubitLayout("compact", lat).total_qubits == -(-5 * 4 * 8 // 2)


def test_jw_encoding_matches_fock_oracle():
    lat = LatticeSpec(2, 1, 1, 2.2)
    layout = QubitLayout("jw", lat)
    h = hopping(0, 4, 8, 0.7) + number_op(3, 8, -1.2) + FermionSum(
        8, [FermionTerm(0.3, ((1, CREATE), (5, ANNIHILATE)))])
    h = h + h.adjoint()
    encoded = encode_fermion_sum(layout, 0.5 * h)
    assert np.allclose(dense_matrix(encoded), 0.5 * dense_sum(h),
                       atol=1e-12)


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 1)])
def test_kinetic_layers_encode_as_their_bonds(shape):
    # models numbers the modes and the jw layout places their qubits by the
    # one mode_index, so each kinetic layer is -h times its bonds' images
    lat = LatticeSpec(*shape, 2.2)
    params = pionless_params_for(2.2)
    layout = QubitLayout("jw", lat)
    bonds = {}
    for si, sj, axis in lat.bonds():
        bonds.setdefault((axis, si[axis] % 2), []).append((si, sj))
    layers = pionless_layers(lat, params)[:-1]
    assert len(layers) == len(bonds)
    for layer, key in zip(layers, sorted(bonds)):
        hops = PauliSum(layout.total_qubits)
        for si, sj in bonds[key]:
            for sp in range(N_SPECIES):
                hops = hops + encode_hopping(layout, si, sj, sp)
        want = (-params.h * hops).masks
        got = encode_fermion_sum(layout, layer).masks
        assert got.keys() == want.keys()
        assert all(abs(got[k] - c) <= 1e-12 for k, c in want.items())


def test_jw_number_operator_is_projector():
    lat = LatticeSpec(2, 1, 1, 2.2)
    layout = QubitLayout("jw", lat)
    n = dense_matrix(encode_number(layout, (0, 0, 0), 2))
    assert np.allclose(n @ n, n)
    assert np.allclose(np.sort(np.linalg.eigvalsh(n))[[0, -1]], [0.0, 1.0])


def test_compact_has_no_single_ladder():
    lat = LatticeSpec(2, 2, 1, 2.2)
    layout = QubitLayout("compact", lat)
    with pytest.raises(UnsupportedOperatorError):
        encode_ladder(layout, (0, 0, 0), 0, CREATE)


def test_encoded_hopping_is_hermitian():
    lat = LatticeSpec(2, 2, 2, 2.2)
    for encoding in ("jw", "vc", "compact"):
        layout = QubitLayout(encoding, lat)
        for si, sj, _axis in lat.bonds():
            h = encode_hopping(layout, si, sj, 1)
            assert h.is_hermitian(), (encoding, si, sj)


def test_vc_stabilizers_are_independent_commuting():
    lat = LatticeSpec(2, 2, 1, 2.2)
    layout = QubitLayout("vc", lat)
    stabs = vc_stabilizers(layout)
    # one stabilizer per directed path edge
    assert len(stabs) == len(_path_edges(lat, 1)) + len(_path_edges(lat, 2))
    for i, a in enumerate(stabs):
        for b in stabs[i + 1:]:
            assert a.commutes_with(b)
    for s in stabs:
        sq = PauliSum.from_string(1.0, s) * PauliSum.from_string(1.0, s)
        ((c, string),) = list(sq)
        assert string.is_identity() and c == 1.0  # hermitian involution


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 1, 1), (1, 5, 2), (3, 1, 4),
                                   (4, 3, 2), (3, 3, 3)])
def test_every_y_and_z_bond_is_a_path_edge(shape):
    """encode_hopping dresses a y (z) bond with the mu (nu) path edge on it
    and has no fallback, so every such bond must be one; each path edge
    joins nearest neighbours, so every dressing stays local."""
    lat = LatticeSpec(*shape, 2.2)
    for axis in (1, 2):
        edges = _path_edges(lat, axis)
        for ra, rb in edges:
            lat.bond_axis(lat.site_at(ra), lat.site_at(rb))
        on_path = {frozenset(edge) for edge in edges}
        for si, sj, bond_axis in lat.bonds():
            if bond_axis == axis:
                ends = frozenset((lat.raster_index(si), lat.raster_index(sj)))
                assert ends in on_path, (axis, si, sj)


def test_full_encoding_suite():
    for name, ok, detail in verify_encodings():
        assert ok, f"{name}: {detail}"


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 3, 3), (4, 3, 2)])
def test_hopping_weights_equal_the_priced_table(shape):
    """The kinetic depths are priced from these weights, so the encoders
    must produce exactly them, not merely at most them."""
    assert hopping_weights(LatticeSpec(*shape, 2.2)) == costs.HOPPING_WEIGHT


def test_weight_check_fails_on_a_stale_table(monkeypatch):
    monkeypatch.setitem(costs.HOPPING_WEIGHT, "y", 11)
    [(name, ok, _)] = [check for check in verify_encodings()
                       if "HOPPING_WEIGHT" in check[0]]
    assert not ok, name


def assert_exact(got, want):
    assert got.n_qubits == want.n_qubits
    assert exact_terms(got) == exact_terms(want)


# (1, 3, 2) has no x bond and (3, 1, 2) no y bond, so no mu path edge
@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 1, 1), (2, 2, 1),
                                   (3, 3, 3), (4, 2, 3), (1, 3, 2),
                                   (3, 1, 2)])
def test_encoders_equal_the_pauli_sum_reference(shape):
    """Every encoder output equals the reference composition from
    validated strings and multiply, term for term, in order, with the same
    coefficient bits: the hopping images, written from their masks, equal
    the ladder products on every bond kind."""
    lat = LatticeSpec(*shape, 2.2)
    for encoding in ("jw", "vc", "compact"):
        layout = QubitLayout(encoding, lat)
        for site in lat.sites():
            for sp in range(4):
                assert_exact(encode_number(layout, site, sp),
                             ref.encode_number(layout, site, sp))
                if encoding == "compact":
                    continue
                for kind in (CREATE, ANNIHILATE):
                    assert_exact(encode_ladder(layout, site, sp, kind),
                                 ref.encode_ladder(layout, site, sp, kind))
        for si, sj, _axis in lat.bonds():
            for sp in range(4):
                for a, b in ((si, sj), (sj, si)):
                    assert_exact(encode_hopping(layout, a, b, sp),
                                 ref.encode_hopping(layout, a, b, sp))
        if encoding == "vc":
            assert vc_stabilizers(layout) == ref.vc_stabilizers(layout)
    jw = QubitLayout("jw", lat)
    for layer in pionless_layers(lat, pionless_params_for(2.2)):
        assert_exact(encode_fermion_sum(jw, layer),
                     ref.encode_fermion_sum(jw, layer))

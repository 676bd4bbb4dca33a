import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuceft.encodings import LatticeSpec
from nuceft.errors import SizeError
from nuceft.fock import (ANNIHILATE, CREATE, NUMBER, EtaSector, FermionSum,
                         FermionTerm, eta_seminorm, exact_evolution_error,
                         fermion_commutator, full_matrix, hopping, normal_order,
                         number_op, reorder_only, sector_matrix)
from nuceft.models import pionless_layers
from nuceft.params import pionless_params_for


def dense_ladder(n_modes, mode, kind):
    """Independent Jordan-Wigner oracle on the full 2^n space."""
    dim = 1 << n_modes
    mat = np.zeros((dim, dim))
    for state in range(dim):
        occupied = (state >> mode) & 1
        if kind == CREATE and not occupied:
            sign = (-1) ** bin(state & ((1 << mode) - 1)).count("1")
            mat[state | (1 << mode), state] = sign
        if kind == ANNIHILATE and occupied:
            sign = (-1) ** bin(state & ((1 << mode) - 1)).count("1")
            mat[state ^ (1 << mode), state] = sign
    return mat


def dense_factors(n_modes, factors):
    dim = 1 << n_modes
    mat = np.eye(dim)
    for mode, kind in factors:
        if kind == NUMBER:
            step = dense_ladder(n_modes, mode, CREATE) @ \
                dense_ladder(n_modes, mode, ANNIHILATE)
        else:
            step = dense_ladder(n_modes, mode, kind)
        mat = mat @ step
    return mat


def dense_sum(h):
    dim = 1 << h.n_modes
    out = np.zeros((dim, dim), dtype=complex)
    for t in h.terms:
        out = out + t.weight * dense_factors(h.n_modes, t.factors)
    return out


def test_canonical_term_guards():
    with pytest.raises(ValueError):
        FermionTerm(1.0, ((0, CREATE), (0, ANNIHILATE)))  # repeated mode
    with pytest.raises(ValueError):
        FermionTerm(1.0, ((1, ANNIHILATE), (0, CREATE)))  # wrong group order
    t = FermionTerm(2.0, ((0, CREATE), (1, ANNIHILATE), (2, NUMBER)))
    assert t.is_npfo
    assert t.locality == 3
    assert t.modes() == frozenset({0, 1, 2})


def test_npfo_requires_balanced_ladders():
    lopsided = FermionTerm(1.0, ((0, CREATE),))
    assert not lopsided.is_npfo


def test_normal_order_car_relation():
    # a(0) a+(0) = 1 - n(0)
    s = normal_order(((0, ANNIHILATE), (0, CREATE)), n_modes=1)
    assert np.allclose(dense_sum(s), dense_factors(1, ((0, ANNIHILATE),))
                       @ dense_factors(1, ((0, CREATE),)))
    got = {t.factors: t.weight for t in s.terms}
    assert got == {(): 1.0, ((0, NUMBER),): -1.0}


def test_normal_order_matches_dense_oracle():
    rng = np.random.default_rng(3)
    kinds = (CREATE, ANNIHILATE, NUMBER)
    for _ in range(60):
        n = 4
        length = int(rng.integers(1, 6))
        factors = tuple((int(rng.integers(n)), kinds[int(rng.integers(3))])
                        for _ in range(length))
        want = dense_factors(n, factors)
        got = dense_sum(normal_order(factors, n_modes=n))
        assert np.allclose(got, want, atol=1e-12)


def test_reorder_only_drops_contractions():
    # :a(1) a+(0): = -a+(0) a(1), with no delta term
    s = reorder_only(((1, ANNIHILATE), (0, CREATE)), n_modes=2)
    got = {t.factors: t.weight for t in s.terms}
    assert got == {((0, CREATE), (1, ANNIHILATE)): -1.0}


def test_reorder_only_nilpotent():
    assert len(reorder_only(((0, ANNIHILATE), (0, ANNIHILATE)), n_modes=1)) == 0


def test_sum_combines_like_terms():
    t = FermionTerm(1.0, ((0, NUMBER),))
    s = FermionSum(2, [t, t, FermionTerm(-2.0, ((0, NUMBER),))])
    assert len(s) == 0


def test_commutator_matches_dense_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = 4
        a = hopping(int(rng.integers(2)), 2 + int(rng.integers(2)), n,
                    float(rng.normal()))
        b = FermionSum(n, [FermionTerm(
            float(rng.normal()),
            ((int(rng.integers(2)), CREATE),
             (2 + int(rng.integers(2)), ANNIHILATE)))])
        comm = fermion_commutator(a, b)
        want = dense_sum(a) @ dense_sum(b) - dense_sum(b) @ dense_sum(a)
        assert np.allclose(dense_sum(comm), want, atol=1e-12)


def test_commutator_of_disjoint_terms_vanishes():
    a = hopping(0, 1, 4)
    b = hopping(2, 3, 4)
    assert len(fermion_commutator(a, b)) == 0


def test_commutator_of_disjoint_odd_terms_is_twice_their_product():
    # a+(3) a+(2) = -a+(2) a+(3): disjoint odd terms anticommute
    a = FermionSum(4, [FermionTerm(1.0, ((3, CREATE),))])
    b = FermionSum(4, [FermionTerm(1.0, ((2, CREATE),))])
    got = {t.factors: t.weight for t in fermion_commutator(a, b)}
    assert got == {((2, CREATE), (3, CREATE)): -2.0}


def test_eta_sector_basis():
    sector = EtaSector(4, 2)
    assert sector.dim == math.comb(4, 2)
    assert all(bin(s).count("1") == 2 for s in sector.basis)


def test_sector_matrix_is_projection_of_full():
    h = hopping(0, 1, 3, 0.7) + number_op(2, 3, -1.3)
    sector = EtaSector(3, 1)
    full = full_matrix(h)
    sub = full[np.ix_(sector.basis, sector.basis)]
    assert np.allclose(sector_matrix(h, sector), sub)
    assert np.allclose(full, dense_sum(h), atol=1e-12)


def test_eta_seminorm_known_values():
    # single hopping term: largest singular value 1 in any occupied sector
    h = hopping(0, 1, 4)
    assert eta_seminorm(h, 0) == 0.0
    assert eta_seminorm(h, 1) == pytest.approx(1.0)
    # number operator counts at most min(eta, 1)
    n0 = number_op(0, 4, 2.5)
    assert eta_seminorm(n0, 3) == pytest.approx(2.5)


def test_eta_seminorm_cap():
    with pytest.raises(SizeError):
        eta_seminorm(number_op(0, 17, 1.0), 1)


def test_exact_evolution_error_converges():
    layers = [hopping(0, 1, 4, 1.0) + hopping(2, 3, 4, 1.0),
              number_op(0, 4, 0.5) + number_op(2, 4, 0.5),
              hopping(1, 2, 4, 0.8)]
    t = 0.9
    e_p1 = [exact_evolution_error(layers, t, 1, r, 2) for r in (1, 2, 4, 8)]
    e_p2 = [exact_evolution_error(layers, t, 2, r, 2) for r in (1, 2, 4, 8)]
    assert all(a >= b - 1e-12 for a, b in zip(e_p1, e_p1[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(e_p2, e_p2[1:]))
    # second order converges faster by r^2 vs r
    assert e_p2[-1] < e_p1[-1]
    # commuting (disjoint) layers give zero error
    disjoint = [hopping(0, 1, 4, 1.0), hopping(2, 3, 4, 0.8)]
    assert exact_evolution_error(disjoint, t, 1, 1, 2) < 1e-12


def test_adjoint_matches_dense():
    h = FermionSum(3, [FermionTerm(1.5, ((0, CREATE), (1, ANNIHILATE))),
                       FermionTerm(-0.25, ((2, NUMBER),))])
    assert np.allclose(dense_sum(h.adjoint()), dense_sum(h).T)


# property tests: random sums on at most five modes

KIND_RANK = {CREATE: 0, ANNIHILATE: 1, NUMBER: 2}
WEIGHTS = st.floats(-2.0, 2.0)


@st.composite
def fermion_sums(draw, n_modes):
    """A sum with number factors, complex weights, repeated terms and
    terms that cancel exactly."""
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        kinds = draw(st.lists(st.sampled_from((None, CREATE, ANNIHILATE, NUMBER)),
                              min_size=n_modes, max_size=n_modes))
        factors = tuple(sorted(((m, k) for m, k in enumerate(kinds) if k),
                               key=lambda f: (KIND_RANK[f[1]], f[0])))
        weight = draw(WEIGHTS)
        if draw(st.booleans()):
            weight = complex(weight, draw(WEIGHTS))
        terms.append(FermionTerm(weight, factors))
    if terms:
        terms += draw(st.lists(st.sampled_from(terms), max_size=2))
        terms += [FermionTerm(-t.weight, t.factors)
                  for t in draw(st.lists(st.sampled_from(terms), max_size=2))]
    return FermionSum(n_modes, terms)


@st.composite
def fermion_sum_pairs(draw):
    n = draw(st.integers(1, 5))
    return draw(fermion_sums(n)), draw(fermion_sums(n))


def assert_canonical(h):
    keys = [t.factors for t in h.terms]
    assert len(set(keys)) == len(keys)
    for t in h.terms:
        assert t.weight != 0.0
        assert FermionTerm(t.weight, t.factors) == t
        assert all(0 <= m < h.n_modes for m, _ in t.factors)


@settings(max_examples=150, deadline=None)
@given(fermion_sum_pairs())
def test_commutator_matches_dense_on_random_sums(pair):
    a, b = pair
    comm = fermion_commutator(a, b)
    assert_canonical(comm)
    want = dense_sum(a) @ dense_sum(b) - dense_sum(b) @ dense_sum(a)
    assert np.allclose(dense_sum(comm), want, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(fermion_sums))
def test_adjoint_matches_dense_on_random_sums(h):
    adj = h.adjoint()
    assert_canonical(adj)
    assert np.allclose(dense_sum(adj), dense_sum(h).conj().T, atol=1e-12)


def test_adjoint_returns_python_scalars():
    h = FermionSum(3, [FermionTerm(1.5, ((0, CREATE), (1, ANNIHILATE))),
                       FermionTerm(0.5 - 2j, ((2, NUMBER),))])
    weights = {t.factors: t.weight for t in h.adjoint().terms}
    assert type(weights[((1, CREATE), (0, ANNIHILATE))]) is float
    assert type(weights[((2, NUMBER),)]) is complex
    assert weights[((2, NUMBER),)] == 0.5 + 2j


def test_nested_commutator_builds_each_term_once(monkeypatch):
    """A count, not a timing: folding every normal_order result into a
    running sum rebuilt 445,432 terms for this nested commutator."""
    kin_x, _kin_y, diag = pionless_layers(LatticeSpec(2, 2, 1, 2.2),
                                          pionless_params_for(2.2))
    built = [0]
    validate = FermionTerm.__post_init__

    def counted(term):
        built[0] += 1
        validate(term)

    monkeypatch.setattr(FermionTerm, "__post_init__", counted)
    nested = fermion_commutator(kin_x, fermion_commutator(kin_x, diag))
    assert len(nested) == 352
    assert built[0] <= 20_000

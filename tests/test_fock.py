import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nuceft import fock
from nuceft.encodings import LatticeSpec
from nuceft.errors import ContractError, SizeError
from nuceft.fock import (ANNIHILATE, CREATE, NUMBER, EtaSector, FermionSum,
                         FermionTerm, eta_seminorm, exact_evolution_error,
                         fermion_commutator, full_matrix, hopping, normal_order,
                         number_op, sector_matrix)
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
    with pytest.raises(ValueError, match="unknown factor kind 'x'"):
        FermionTerm(1.0, ((0, "x"),))
    with pytest.raises(ValueError, match="unknown factor kind 'x'"):
        normal_order([(0, "x"), (1, CREATE)], 2.0)
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


def chain(n_modes, modes):
    """Unit hoppings along consecutive modes, joining them in one group."""
    return sum((hopping(i, j, n_modes) for i, j in zip(modes, modes[1:])),
               FermionSum(n_modes))


def test_eta_seminorm_cap():
    # one group of 20 modes at eta=5: a single block of C(20, 5) = 15,504
    with pytest.raises(SizeError):
        eta_seminorm(chain(20, range(20)), 5)
    # four species-like groups of 5 modes: the blocks stay small, so more
    # than 16 modes succeed; one particle on a 5-site chain has norm sqrt(3)
    species = sum((chain(20, range(s, 20, 4)) for s in range(4)),
                  FermionSum(20))
    assert eta_seminorm(species, 1) == pytest.approx(math.sqrt(3))
    assert eta_seminorm(species, 4) > 0
    assert eta_seminorm(number_op(0, 17, 1.0), 1) == pytest.approx(1.0)
    # occupations are 64-bit masks
    with pytest.raises(SizeError):
        eta_seminorm(number_op(0, 65, 1.0), 1)


def test_oversized_block_is_refused_before_enumeration(monkeypatch):
    def enumerate_states(modes, eta):
        raise AssertionError("sector enumerated before the size check")

    # 40 unjoined modes, each number term its own weight, so that no swap
    # of two modes maps the sum to itself
    unjoined = FermionSum(40, [FermionTerm(1.0 + m, ((m, NUMBER),))
                               for m in range(40)])
    # warm the layout memo with the same groups at sizes under the cap
    eta_seminorm(chain(64, range(64)), 1)
    exact_evolution_error([chain(64, range(64))], 0.1, 1, 1, 1)
    eta_seminorm(unjoined, 1)
    monkeypatch.setattr(fock, "_subsets", enumerate_states)
    # one group of 64 modes at eta=8: C(64, 8) = 4,426,165,368 states
    with pytest.raises(SizeError):
        eta_seminorm(chain(64, range(64)), 8)
    with pytest.raises(SizeError):
        exact_evolution_error([chain(64, range(64))], 0.1, 1, 1, 8)
    # eta=10: blocks of one state, but C(40, 10) of them
    with pytest.raises(SizeError):
        eta_seminorm(unjoined, 10)


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


def merge(acc, h):
    for t in h.terms:
        acc[t.factors] = acc.get(t.factors, 0.0) + t.weight


def exact_terms(h):
    """Terms with each weight as its repr, so types and signed zeros count."""
    return [(repr(t.weight), t.factors) for t in h.terms]


def reference_terms(acc):
    return [(repr(w), f) for f, w in acc.items() if w != 0.0]


def reference_commutator(a, b):
    """[a, b] summed pair by pair from normal_order, a-major, skipping the
    pairs on disjoint modes that are not both odd."""
    def odd(t):
        return sum(k != NUMBER for _, k in t.factors) % 2 == 1

    n = max(a.n_modes, b.n_modes)
    acc = {}
    for ta in a.terms:
        for tb in b.terms:
            if not ta.modes() & tb.modes() and not (odd(ta) and odd(tb)):
                continue
            w = ta.weight * tb.weight
            merge(acc, normal_order(ta.factors + tb.factors, w, n))
            merge(acc, normal_order(tb.factors + ta.factors, -w, n))
    return reference_terms(acc)


def reference_adjoint(h):
    """h^dagger summed term by term from normal_order; N(m) is its own
    adjoint and a+/a swap."""
    swap = {CREATE: ANNIHILATE, ANNIHILATE: CREATE, NUMBER: NUMBER}
    acc = {}
    for t in h.terms:
        conj = [(m, swap[k]) for m, k in reversed(t.factors)]
        merge(acc, normal_order(conj, t.weight.conjugate(), h.n_modes))
    return reference_terms(acc)


# the first pair's weight underflows to 0.0, so none of its products may
# take a place in the term order
UNDERFLOW_PAIR = (
    FermionSum(3, [FermionTerm(1e-200, ((0, CREATE), (1, CREATE),
                                        (2, ANNIHILATE)))]),
    FermionSum(3, [FermionTerm(1e-200, ((2, CREATE), (0, ANNIHILATE),
                                        (1, NUMBER))),
                   FermionTerm(1.0, ((2, CREATE), (0, ANNIHILATE)))]))


@settings(max_examples=150, deadline=None)
@given(fermion_sum_pairs())
@example(UNDERFLOW_PAIR)
def test_commutator_and_adjoint_equal_the_pairwise_reference(pair):
    """Same weights bit for bit, same term order, same dropped zeros as
    merging one normal_order sum per pair."""
    a, b = pair
    assert exact_terms(fermion_commutator(a, b)) == reference_commutator(a, b)
    assert exact_terms(a.adjoint()) == reference_adjoint(a)


def test_adjoint_returns_python_scalars():
    h = FermionSum(3, [FermionTerm(1.5, ((0, CREATE), (1, ANNIHILATE))),
                       FermionTerm(0.5 - 2j, ((2, NUMBER),))])
    weights = {t.factors: t.weight for t in h.adjoint().terms}
    assert type(weights[((1, CREATE), (0, ANNIHILATE))]) is float
    assert type(weights[((2, NUMBER),)]) is complex
    assert weights[((2, NUMBER),)] == 0.5 + 2j


def test_nested_commutator_builds_each_term_once(monkeypatch):
    """A count, not a timing: folding every normal_order result into a
    running sum rebuilt 445,432 terms for this nested commutator, and
    wrapping each pair's products in a sum built 2,112; now only the
    output terms are built."""
    kin_x, _kin_y, diag = pionless_layers(LatticeSpec(2, 2, 1, 2.2),
                                          pionless_params_for(2.2))
    built = [0]
    validate = FermionTerm.__post_init__

    def counted(term):
        built[0] += 1
        validate(term)

    monkeypatch.setattr(FermionTerm, "__post_init__", counted)
    inner = fermion_commutator(kin_x, diag)
    nested = fermion_commutator(kin_x, inner)
    assert len(nested) == 352
    assert built[0] == len(inner) + len(nested)


# property tests: the blocked oracle against dense matrices on the full
# Fock space, restricted to popcount-eta states


def eta_restriction(mat, n_modes, eta):
    basis = [s for s in range(1 << n_modes) if bin(s).count("1") == eta]
    return mat[np.ix_(basis, basis)]


def dense_expm(mat, t):
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.exp(-1j * t * vals)) @ vecs.conj().T


def dense_evolution_error(layers, t, p, r, eta):
    n = max(h.n_modes for h in layers)
    mats = [eta_restriction(dense_sum(FermionSum(n, h.terms)), n, eta)
            for h in layers]
    if p == 1:
        factors = [dense_expm(m, t / r) for m in mats]
    else:
        half = [dense_expm(m, t / (2 * r)) for m in mats]
        factors = half + half[::-1]
    step = np.eye(len(mats[0]))
    for u in factors:
        step = step @ u
    diff = dense_expm(sum(mats), t) - np.linalg.matrix_power(step, r)
    return float(np.linalg.svd(diff, compute_uv=False)[0])


@st.composite
def npfo_sums(draw, n_modes, max_terms=5, ladders=True):
    """Sums of number-preserving terms whose ladder factors join random
    modes, so that the terms of a sum merge groups, or with ``ladders``
    false terms of number factors alone.  (Few draws of fermion_sums are
    number-preserving and have ladder factors.)"""
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        modes = draw(st.permutations(range(n_modes)))
        pairs = draw(st.integers(min(1, n_modes // 2), n_modes // 2)) \
            if ladders else 0
        numbers = draw(st.integers(0, n_modes - 2 * pairs))
        factors = tuple([(m, CREATE) for m in sorted(modes[:pairs])]
                        + [(m, ANNIHILATE)
                           for m in sorted(modes[pairs:2 * pairs])]
                        + [(m, NUMBER) for m in
                           sorted(modes[2 * pairs:2 * pairs + numbers])])
        weight = draw(WEIGHTS)
        if draw(st.booleans()):
            weight = complex(weight, draw(WEIGHTS))
        terms.append(FermionTerm(weight, factors))
    return FermionSum(n_modes, terms)


def hermitian_sums(n_modes):
    """Layers of few terms, so that the layers join few modes and the
    sectors split into blocks of several sizes; some layers have number
    factors alone, or no terms, and are diagonal."""
    return st.one_of(npfo_sums(n_modes, 2),
                     npfo_sums(n_modes, 2, ladders=False),
                     st.just(FermionSum(n_modes))).map(
        lambda h: h + h.adjoint())


def close(got, want):
    return abs(got - want) <= 1e-10 * max(1.0, abs(want))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(npfo_sums(n), st.integers(0, n))))
def test_seminorm_matches_dense_restriction(case):
    h, eta = case
    block = eta_restriction(dense_sum(h), h.n_modes, eta)
    want = float(np.linalg.svd(block, compute_uv=False)[0]) if len(block) \
        else 0.0
    assert close(eta_seminorm(h, eta), want)


# a number-only layer, whose blocks are diagonal, between ladder layers;
# and an empty layer beside one
DIAGONAL_LAYERS = [hopping(0, 1, 4) + hopping(2, 3, 4, -0.4),
                   number_op(1, 4, 0.8) + FermionSum(4, [
                       FermionTerm(-1.3, ((0, NUMBER), (2, NUMBER)))]),
                   hopping(1, 2, 4, 0.6)]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.lists(hermitian_sums(n), min_size=1, max_size=3),
    st.integers(0, n), st.sampled_from((1, 2)), st.sampled_from((1, 3)),
    st.floats(0.05, 1.0))))
@example((DIAGONAL_LAYERS, 2, 1, 3, 0.7))
@example((DIAGONAL_LAYERS, 2, 2, 1, 0.7))
@example(([FermionSum(4), hopping(0, 3, 4)], 1, 2, 3, 0.5))
def test_evolution_error_matches_dense_restriction(case):
    layers, eta, p, r, t = case
    assert close(exact_evolution_error(layers, t, p, r, eta),
                 dense_evolution_error(layers, t, p, r, eta))


def test_oracle_on_layers_of_different_groups():
    """Three layers that join modes differently: together they split six
    modes into the groups {0, 2, 4}, {1, 3} and {5}, so each sector has
    blocks of several sizes, and the largest norm can sit in any of them."""
    layers = [hopping(0, 2, 6) + hopping(1, 3, 6, -0.6),
              hopping(2, 4, 6, 0.7) + number_op(3, 6, 0.3),
              number_op(5, 6, 1.1) + FermionSum(6, [
                  FermionTerm(-0.9, ((1, NUMBER), (4, NUMBER)))])]
    total = sum(layers, FermionSum(6))
    for eta in range(7):
        block = eta_restriction(dense_sum(total), 6, eta)
        want = float(np.linalg.svd(block, compute_uv=False)[0])
        assert close(eta_seminorm(total, eta), want)
        for p in (1, 2):
            want = dense_evolution_error(layers, 0.6, p, 2, eta)
            assert close(exact_evolution_error(layers, 0.6, p, 2, eta), want)
            if 1 <= eta <= 5:
                assert want > 1e-6


def test_non_hermitian_layer_and_particle_number_are_refused():
    lopsided = FermionSum(4, [FermionTerm(1.0, ((0, CREATE),))])
    with pytest.raises(ValueError, match="particle number"):
        eta_seminorm(lopsided, 1)
    one_way = FermionSum(4, [FermionTerm(1.0, ((0, CREATE), (1, ANNIHILATE)))])
    with pytest.raises(ContractError):
        exact_evolution_error([one_way, hopping(1, 2, 4)], 0.1, 1, 1, 2)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_time_is_refused(t):
    with pytest.raises(ValueError, match="time t="):
        exact_evolution_error([hopping(0, 1, 4)], t, 1, 1, 2)


def test_empty_layer_list_is_refused():
    with pytest.raises(ValueError, match="layers is empty"):
        exact_evolution_error([], 0.1, 1, 1, 2)


@pytest.mark.parametrize("w", [math.nan, math.inf, complex(0.5, -math.inf)])
def test_non_finite_weight_is_refused(w):
    h = hopping(0, 1, 4) + number_op(2, 4, w)
    with pytest.raises(ValueError, match="non-finite weight"):
        eta_seminorm(h, 2)
    with pytest.raises(ValueError, match="non-finite weight"):
        exact_evolution_error([h, hopping(1, 2, 4)], 0.1, 1, 1, 2)


# the matrix builders against the per-term loop they replaced: each term
# finds its hits, flips its ladder modes right to left and adds its signed
# weight, one term after another

def reference_images(term, states):
    need = vacant = 0
    for m, k in term.factors:
        if k == CREATE:
            vacant |= 1 << m
        else:
            need |= 1 << m
    need, vacant = np.uint64(need), np.uint64(vacant)
    hit = np.flatnonzero(((states & need) == need) & ((states & vacant) == 0))
    image = states[hit]
    parity = np.zeros(len(hit), dtype=np.uint64)
    for m, k in reversed(term.factors):
        if k != NUMBER:
            parity += fock._popcount(image & np.uint64((1 << m) - 1))
            image = image ^ np.uint64(1 << m)
    return hit, image, 1.0 - 2.0 * (parity & np.uint64(1))


def reference_sector_matrix(h, sector):
    states = np.array(sector.basis, dtype=np.uint64)
    mat = np.zeros((sector.dim, sector.dim), dtype=complex)
    for term in h.terms:
        cols, image, sign = reference_images(term, states)
        mat[np.searchsorted(states, image), cols] += sign * term.weight
    return mat


def reference_full_matrix(h):
    states = np.arange(1 << h.n_modes, dtype=np.uint64)
    mat = np.zeros((len(states), len(states)), dtype=complex)
    for term in h.terms:
        cols, image, sign = reference_images(term, states)
        mat[image.astype(np.intp), cols] += sign * term.weight
    return mat


def reference_block_buffer(h, blocks):
    buf = np.zeros(blocks.size, dtype=complex)
    for term in h.terms:
        cols, image, sign = reference_images(term, blocks.states)
        rows = np.searchsorted(blocks.states, image)
        buf[blocks.row_base[rows] + blocks.local[cols]] += sign * term.weight
    return buf


def assert_builders_equal_reference(h, etas, full=True):
    for eta in etas:
        (table,), blocks = fock._blocked([h], eta)
        assert np.array_equal(fock._block_buffer(table, blocks),
                              reference_block_buffer(h, blocks))
        sector = EtaSector(h.n_modes, eta)
        assert np.array_equal(sector_matrix(h, sector),
                              reference_sector_matrix(h, sector))
    if full:
        assert np.array_equal(full_matrix(h), reference_full_matrix(h))


@pytest.mark.parametrize("shape, max_eta", [((2, 1, 1), 3), ((2, 2, 1), 4)])
def test_builders_equal_the_per_term_loop_on_pionless_layers(shape, max_eta):
    layers = pionless_layers(LatticeSpec(*shape, 2.2), pionless_params_for(2.2))
    for layer in layers:
        assert_builders_equal_reference(layer, range(max_eta + 1),
                                        full=layer.n_modes <= 8)


# terms with no ladder pair, with one and with two, in one sum, with
# weights that round differently in each order of addition
MIXED = FermionSum(6, [
    FermionTerm(0.1, ((2, NUMBER),)),
    FermionTerm(0.2, ((0, CREATE), (3, ANNIHILATE))),
    FermionTerm(0.3 + 0.7j, ((0, CREATE), (1, CREATE), (4, ANNIHILATE),
                             (5, ANNIHILATE), (2, NUMBER))),
    FermionTerm(1e16, ((2, NUMBER), (3, NUMBER))),
    FermionTerm(-0.3, ((3, CREATE), (0, ANNIHILATE), (5, NUMBER))),
    FermionTerm(1.0, ()),
    FermionTerm(-1e16, ((2, NUMBER),)),
])


@pytest.mark.parametrize("h", [FermionSum(5), MIXED], ids=["empty", "mixed"])
def test_builders_equal_the_per_term_loop_on_hand_built_sums(h):
    assert_builders_equal_reference(h, range(h.n_modes + 1))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(npfo_sums))
def test_builders_equal_the_per_term_loop_on_random_sums(h):
    assert_builders_equal_reference(h, range(h.n_modes + 1))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(fermion_sums))
def test_full_matrix_equals_the_per_term_loop_off_the_npfo_class(h):
    """full_matrix also takes terms that change the particle number."""
    assert np.array_equal(full_matrix(h), reference_full_matrix(h))


def test_layout_memo_is_read_only_and_bounded():
    (_table,), blocks = fock._blocked([hopping(0, 1, 4)], 2)
    assert fock._blocked([hopping(1, 0, 4, 0.5)], 2)[1] is blocks
    for array in (blocks.states, blocks.row_base, blocks.local):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    for memo in (fock._layout, fock._orbits):
        maxsize = memo.cache_info().maxsize
        assert maxsize is not None and maxsize <= 64


def test_refused_layouts_are_never_cached():
    too_big = chain(20, range(20))
    before = fock._layout.cache_info()
    for _ in range(3):
        with pytest.raises(SizeError):
            eta_seminorm(too_big, 5)
        with pytest.raises(SizeError):
            exact_evolution_error([too_big], 0.1, 1, 1, 5)
    after = fock._layout.cache_info()
    assert after.currsize == before.currsize
    assert after.misses == before.misses + 6


def test_block_buffer_temporaries_are_bounded():
    """[diag, [kin_x, diag]] on 2x2x2 has 1,600 terms over the 4,960 states
    of eta=3, but blocks of a few states: testing every (term, state) pair
    at once would take more than 64 MB of temporaries.  Each weight is
    scaled by the term's first mode, so that no swap of mode groups maps
    the sum to itself and every block is built."""
    kin_x, _kin_y, _kin_z, diag = pionless_layers(LatticeSpec(2, 2, 2, 2.2),
                                                  pionless_params_for(2.2))
    h = fermion_commutator(diag, fermion_commutator(kin_x, diag))
    h = FermionSum(h.n_modes, [FermionTerm(t.weight * (1 + t.factors[0][0] / 64),
                                           t.factors) for t in h])
    (table,), blocks = fock._blocked([h], 3)
    assert len(h) >= 1500 and len(blocks.states) >= 4000
    tracemalloc.start()
    try:
        fock._block_buffer(table, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


# one block per orbit of the group swaps, against every block

def found_orbits(sums):
    n_modes = max(h.n_modes for h in sums)
    tables = [fock._terms(h) for h in sums]
    return fock._orbits(fock._mode_groups(n_modes, tables),
                        tuple(map(fock._signature, tables)))


def singleton_orbits(groups, signatures):
    """Each group its own orbit: the detector finding no swap."""
    return tuple((g,) for g in range(len(groups)))


def reduced_and_full(call):
    """call() on one block per orbit, and again on every block: the
    reference, with the detector finding no swap."""
    reduced = call()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "_orbits", singleton_orbits)
        return reduced, call()


def pionless(shape):
    return pionless_layers(LatticeSpec(*shape, 2.2), pionless_params_for(2.2))


@pytest.mark.parametrize("shape", [(2, 1, 1), (2, 2, 1), (2, 2, 2)])
def test_pionless_layers_give_the_species_swaps(shape):
    assert found_orbits(pionless(shape)) == ((0, 1, 2, 3),)


@pytest.mark.parametrize("shape", [(2, 1, 1), (2, 2, 1)])
def test_orbit_blocks_equal_every_block_on_pionless_layers(shape):
    layers = pionless(shape)
    total = sum(layers[1:], layers[0])
    for eta in range(1, 5):
        reduced, full = reduced_and_full(lambda: fock._blocked(layers, eta)[1])
        assert len(reduced.states) < len(full.states)
        for h in [*layers, total]:
            assert close(*reduced_and_full(lambda: eta_seminorm(h, eta)))
        for p in (1, 2):
            for r in (1, 2):
                assert close(*reduced_and_full(
                    lambda: exact_evolution_error(layers, 0.02, p, r, eta)))


def test_orbit_blocks_equal_every_block_on_2x2x2():
    # 3 of the 20 blocks of eta=3
    layers = pionless((2, 2, 2))
    assert close(*reduced_and_full(
        lambda: exact_evolution_error(layers, 0.02, 1, 1, 3)))


@st.composite
def planted_layers(draw):
    """Hermitian layers on 2n modes, each the same random sum on modes
    [0, n) and on [n, 2n), plus number pairs across the halves.  A chain of
    hoppings joins each half into one group, so that swapping the two
    groups maps every layer to itself, and no other swap is possible."""
    n = draw(st.integers(2, 3))
    chain_weights = draw(st.lists(WEIGHTS.filter(bool), min_size=n - 1,
                                  max_size=n - 1))
    halves = [sum((hopping(i, i + 1, n, w)
                   for i, w in enumerate(chain_weights)), FermionSum(n))]
    halves += draw(st.lists(hermitian_sums(n), max_size=2))
    layers = []
    for h in halves:
        across = [FermionTerm(draw(WEIGHTS), ((m, NUMBER), (m + n, NUMBER)))
                  for m in draw(st.sets(st.integers(0, n - 1)))]
        layers.append(FermionSum(2 * n, [
            *h.terms, *across,
            *(FermionTerm(t.weight, tuple((m + n, k) for m, k in t.factors))
              for t in h.terms)]))
    return layers


def moved_by_one_ulp(h):
    """h with the weight of its first term moved to the next float up."""
    first, *rest = h.terms
    w = first.weight
    up = complex(np.nextafter(w.real, np.inf), w.imag) \
        if isinstance(w, complex) else float(np.nextafter(w, np.inf))
    return FermionSum(h.n_modes, [FermionTerm(up, first.factors), *rest])


@settings(max_examples=40, deadline=None)
@given(planted_layers(), st.sampled_from((1, 2)), st.sampled_from((1, 3)),
       st.floats(0.05, 1.0))
def test_orbit_blocks_equal_every_block_on_planted_swaps(layers, p, r, t):
    moved = [moved_by_one_ulp(layers[0]), *layers[1:]]
    assert found_orbits(layers) == ((0, 1),)
    assert found_orbits(moved) == ((0,), (1,))
    for case in (layers, moved):
        for eta in range(case[0].n_modes + 1):
            assert close(*reduced_and_full(
                lambda: exact_evolution_error(case, t, p, r, eta)))
            for h in case:
                assert close(*reduced_and_full(lambda: eta_seminorm(h, eta)))


@st.composite
def grouped_orbits(draw):
    """A partition of at most 10 modes into groups, ordered by lowest mode,
    and a partition of each set of equal-size groups into orbits."""
    n = draw(st.integers(1, 10))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups = sorted({sum(1 << m for m in range(n) if labels[m] == label)
                     for label in labels}, key=lambda g: g & -g)
    alike: dict = {}
    for g, mask in enumerate(groups):
        alike.setdefault(mask.bit_count(), []).append(g)
    orbits = []
    for members in alike.values():
        tags = draw(st.lists(st.integers(0, len(members) - 1),
                             min_size=len(members), max_size=len(members)))
        orbits += [tuple(g for g, tag in zip(members, tags) if tag == t)
                   for t in set(tags)]
    return n, tuple(groups), tuple(sorted(orbits))


@settings(max_examples=150, deadline=None)
@given(grouped_orbits())
def test_orbit_walk_equals_the_filtered_sector(case):
    """The states the walk lays out are the sector's states whose per-group
    counts do not increase along each orbit, and its sizes are theirs."""
    n, groups, orbits = case
    for eta in range(n + 1):
        states = np.array([s for s in range(1 << n) if s.bit_count() == eta],
                          dtype=np.uint64)
        counts = np.stack([fock._popcount(states & np.uint64(g))
                           for g in groups])
        keep = np.ones(len(states), dtype=bool)
        for orbit in orbits:
            for a, b in zip(orbit, orbit[1:]):
                keep &= counts[a] >= counts[b]
        assert np.array_equal(fock._orbit_states(groups, orbits, eta),
                              states[keep])
        _, dims = np.unique(counts[:, keep], axis=1, return_counts=True)
        assert fock._block_sizes([g.bit_count() for g in groups], orbits,
                                 eta) == (dims.max(), (dims ** 2).sum())


def test_cap_counts_one_block_per_orbit(monkeypatch):
    """3x2x2 (48 modes) at eta=3: every block would hold 19,664,704
    entries, over the cap of 4096**2; one block per orbit holds 3,661,648.
    Its evolution error is not computed here."""
    layers = pionless((3, 2, 2))
    _tables, blocks = fock._blocked(layers, 3)
    assert max(d for _, _, d in blocks.stacks) == 1728
    assert blocks.size == 3_661_648
    with monkeypatch.context() as patch:
        patch.setattr(fock, "_orbits", singleton_orbits)
        with pytest.raises(SizeError, match="19664704 block entries"):
            fock._blocked(layers, 3)
    # at eta=4 the block of one nucleon per species has 12**4 = 20,736
    # states, and is refused before any state is enumerated
    def enumerate_states(modes, eta):
        raise AssertionError("sector enumerated before the size check")

    monkeypatch.setattr(fock, "_subsets", enumerate_states)
    with pytest.raises(SizeError, match="a block of 20736 states"):
        fock._blocked(layers, 4)


def test_unjoined_swappable_modes_leave_one_block_per_count():
    # modes 1..39 are alike: at eta=10 the C(40, 10) blocks of one state
    # fall into two orbits, by the occupation of mode 0
    (_table,), blocks = fock._blocked([number_op(0, 40, 2.5)], 10)
    assert blocks.size == 2
    assert eta_seminorm(number_op(0, 40, 2.5), 10) == 2.5


# groups {0, 3} and {1, 5}: the swap takes 0 to 1 and 3 to 5, and leaves
# modes 2 and 4, which lie between, where they are
SWAP_A, SWAP_B = 0b001001, 0b100010
SWAP_IMAGE = {0: 1, 1: 0, 2: 2, 3: 5, 4: 4, 5: 3}


@settings(max_examples=80, deadline=None)
@given(st.permutations(range(6)), st.integers(1, 3), st.integers(0, 2),
       WEIGHTS.filter(bool))
def test_swap_carries_the_sign_of_the_re_sort(modes, pairs, numbers, w):
    """A term whose ladder factors span both groups re-sorts its creations
    or annihilations under the swap; the sum of the term and its image, as
    normal_order writes the mapped product, is symmetric, and the sum with
    the image's sign flipped is not."""
    factors = tuple([(m, CREATE) for m in sorted(modes[:pairs])]
                    + [(m, ANNIHILATE) for m in sorted(modes[pairs:2 * pairs])]
                    + [(m, NUMBER) for m in
                       sorted(modes[2 * pairs:2 * pairs + numbers])])
    image = normal_order([(SWAP_IMAGE[m], k) for m, k in factors], w, 6)
    (mapped,) = image.terms
    assume(mapped.factors != factors)

    def orbits(terms):
        table = fock._terms(FermionSum(6, terms))
        return fock._orbits((SWAP_A, SWAP_B), (fock._signature(table),))

    term = FermionTerm(w, factors)
    assert orbits([term, mapped]) == ((0, 1),)
    assert orbits([term, FermionTerm(-mapped.weight, mapped.factors)]) == \
        ((0,), (1,))

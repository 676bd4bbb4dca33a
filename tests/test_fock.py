import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nuceft import fock
from nuceft.encodings import LatticeSpec
from nuceft.errors import ContractError, DomainError, SizeError
from nuceft.fock import (ANNIHILATE, CREATE, NUMBER, EtaSector, FermionSum,
                         FermionTerm, eta_seminorm, exact_evolution_error,
                         fermion_commutator, normal_order, sector_matrix)
from nuceft.models import pionless_layers
from nuceft.params import pionless_params_for

from fermion_reference import (dense_factors, dense_sum, hopping, number_op,
                               reference_full_matrix, reference_images,
                               rewrite_adjoint, rewrite_commutator,
                               rewrite_normal_order)


@pytest.fixture(autouse=True)
def empty_memo():
    """Each test starts with nothing kept between oracle calls."""
    fock._KEPT.clear()


def test_canonical_term_guards():
    with pytest.raises(ValueError):
        FermionTerm(1.0, ((0, CREATE), (0, ANNIHILATE)))  # repeated mode
    with pytest.raises(ValueError):
        FermionTerm(1.0, ((1, ANNIHILATE), (0, CREATE)))  # wrong group order
    with pytest.raises(ValueError, match="unknown factor kind 'x'"):
        FermionTerm(1.0, ((0, "x"),))
    with pytest.raises(ValueError, match="unknown factor kind 'x'"):
        normal_order([(0, "x"), (1, CREATE)], 2.0)
    with pytest.raises(ValueError,
                       match=r"^modes out of order within group: "):
        FermionTerm(1.0, ((1, CREATE), (0, CREATE)))
    with pytest.raises(ValueError, match=r"^mode 2 outside universe of 2$"):
        normal_order([(0, CREATE), (2, ANNIHILATE)], n_modes=2)
    with pytest.raises(ValueError, match=r"^mode 3 outside universe of 3$"):
        FermionSum(3, [FermionTerm(1.0, ((3, NUMBER),))])
    t = FermionTerm(2.0, ((0, CREATE), (1, ANNIHILATE), (2, NUMBER)))
    assert t.is_npfo
    assert t.locality == 3
    assert t.modes() == frozenset({0, 1, 2})


def test_term_repr():
    assert repr(FermionTerm(2.0, ())) == "2.0*1"
    assert repr(FermionTerm(
        2.0, ((0, CREATE), (1, ANNIHILATE), (2, NUMBER)))) == \
        "2.0*a+(0) a(1) N(2)"


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


def test_eta_sector_basis_is_a_read_only_uint64_array():
    basis = EtaSector(16, 4).basis
    assert basis.dtype == np.uint64 and not basis.flags.writeable
    assert np.array_equal(basis, fock._subsets(2 ** 16 - 1, 4))
    with pytest.raises(ValueError, match="read-only"):
        basis[0] = 0


def test_eta_sector_refuses_a_bool_count():
    with pytest.raises(DomainError,
                       match="^eta must be an integer, got True$"):
        EtaSector(16, True)


def test_eta_sector_refuses_a_float_count():
    with pytest.raises(DomainError, match="^eta must be an integer, got 4.0$"):
        EtaSector(16, 4.0)
    with pytest.raises(DomainError,
                       match="^n_modes must be an integer, got 16.0$"):
        EtaSector(16.0, 4)


def test_sector_matrix_refuses_a_sector_of_other_modes():
    layers = pionless((2, 2, 1))
    h = sum(layers[1:], layers[0])
    with pytest.raises(ValueError, match="sum on 16 modes, sector on 8 modes"):
        sector_matrix(h, EtaSector(8, 2))


def test_sector_matrix_is_projection_of_full():
    h = hopping(0, 1, 3, 0.7) + number_op(2, 3, -1.3)
    sector = EtaSector(3, 1)
    full = reference_full_matrix(h)
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
    # occupations are 64-bit masks; EtaSector(65, 1) has 65 states, under
    # the cap, so only the mask refuses it
    with pytest.raises(SizeError):
        eta_seminorm(number_op(0, 65, 1.0), 1)
    with pytest.raises(SizeError, match="64-bit occupation mask"):
        EtaSector(65, 1)


def test_oversized_block_is_refused_before_enumeration(monkeypatch):
    def enumerate_states(modes, eta):
        raise AssertionError("sector enumerated before the size check")

    # 40 unjoined modes, each number term its own weight, so that no swap
    # of two modes maps the sum to itself
    unjoined = FermionSum(40, [FermionTerm(1.0 + m, ((m, NUMBER),))
                               for m in range(40)])
    # keep the same sums at sizes under the cap
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
    # a whole sector for sector_matrix: C(20, 10) = 184,756 states
    with pytest.raises(SizeError, match="184756 states"):
        EtaSector(20, 10)


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
def fermion_sums(draw, n_modes, weights=WEIGHTS):
    """A sum with number factors, complex weights, repeated terms and
    terms that cancel exactly."""
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        kinds = draw(st.lists(st.sampled_from((None, CREATE, ANNIHILATE, NUMBER)),
                              min_size=n_modes, max_size=n_modes))
        factors = tuple(sorted(((m, k) for m, k in enumerate(kinds) if k),
                               key=lambda f: (KIND_RANK[f[1]], f[0])))
        weight = draw(weights)
        if draw(st.booleans()):
            weight = complex(weight, draw(weights))
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


# signed zeros, and magnitudes whose products underflow to zero or fall
# below the normal range
EDGE_WEIGHTS = WEIGHTS | st.sampled_from(
    (0.0, -0.0, 1e-200, -1e-200, 1e-160, 5e-324))
KINDS = (CREATE, ANNIHILATE, NUMBER)


@st.composite
def factor_products(draw):
    """Any product of factors on at most five modes, modes repeated."""
    n = draw(st.integers(1, 5))
    factor = st.tuples(st.integers(0, n - 1), st.sampled_from(KINDS))
    return n, tuple(draw(st.lists(factor, max_size=10)))


@settings(max_examples=400, deadline=None)
@given(factor_products(), EDGE_WEIGHTS | st.builds(complex, EDGE_WEIGHTS,
                                                   EDGE_WEIGHTS))
# two holes whose creations come in descending mode order: the rewrite
# meets the hole on mode 3 first
@example((4, ((0, ANNIHILATE), (3, ANNIHILATE), (3, CREATE), (0, CREATE))),
         -0.5)
@example((5, ((4, ANNIHILATE), (1, ANNIHILATE), (1, CREATE), (2, NUMBER),
              (0, ANNIHILATE), (4, CREATE), (0, CREATE))), complex(-0.0, 2.0))
def test_normal_order_equals_the_rewrite(product, weight):
    """Term for term, in the order the rewrite by adjacent swaps first
    reaches each term, with the same weights bit for bit."""
    n, factors = product
    assert exact_terms(normal_order(factors, weight, n)) == \
        reference_terms(rewrite_normal_order(factors, weight))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    *(fermion_sums(n, EDGE_WEIGHTS) for _ in range(3)))))
@example((*UNDERFLOW_PAIR, FermionSum(3)))
def test_adjoint_and_commutators_equal_the_rewrite(sums):
    a, b, c = sums
    assert exact_terms(a.adjoint()) == reference_terms(rewrite_adjoint(a))
    ab = fermion_commutator(a, b)
    assert exact_terms(ab) == reference_terms(rewrite_commutator(a, b))
    assert exact_terms(fermion_commutator(c, ab)) == \
        reference_terms(rewrite_commutator(c, ab))


@st.composite
def canonical_ladders(draw):
    """A canonical ladder term's factors: creations, then annihilations,
    each ascending, on disjoint modes."""
    modes = draw(st.lists(st.integers(0, 15), unique=True, max_size=10))
    k = draw(st.integers(0, len(modes)))
    return (tuple((m, CREATE) for m in sorted(modes[:k]))
            + tuple((m, ANNIHILATE) for m in sorted(modes[k:])))


@settings(max_examples=300, deadline=None)
@given(canonical_ladders())
def test_ladder_parity_is_its_inversion_count(ladder):
    """_expand reads the canonical ladder's sign parity from the masks
    alone; it equals the parity of the factor-by-factor composition.  With
    the product's own parity cleared, the one term written is signed by
    the ladder's alone."""
    x = fock._action(ladder)
    acc = {}
    fock._expand(x._replace(odd=0), 1.0, acc)
    assert acc == {ladder: -1.0 if x.odd else 1.0}


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


def complex_hopping(i, j, n_modes, weight):
    """weight * (i a+(i) a(j) - i a+(j) a(i)) for i < j: Hermitian, with
    complex weights."""
    return FermionSum(n_modes, [
        FermionTerm(1j * weight, ((i, CREATE), (j, ANNIHILATE))),
        FermionTerm(-1j * weight, ((j, CREATE), (i, ANNIHILATE)))])


REAL_LAYER = hopping(0, 1, 4) + number_op(2, 4, 0.8)
COMPLEX_LAYER = complex_hopping(1, 2, 4, 0.6) + number_op(3, 4, -0.5)


@pytest.mark.parametrize("h, dtype", [(REAL_LAYER, np.float64),
                                      (COMPLEX_LAYER, np.complex128)])
def test_matrix_dtype_follows_the_weights(h, dtype):
    assert sector_matrix(h, EtaSector(4, 2)).dtype == dtype
    _key, kept = fock._derived([h], 2)
    assert fock._block_buffer(kept.tables[0], kept.blocks).dtype == dtype


@pytest.mark.parametrize("layers", [[REAL_LAYER, COMPLEX_LAYER],
                                    [COMPLEX_LAYER, REAL_LAYER]])
def test_real_and_complex_layers_sum_to_a_complex_matrix(layers):
    """A complex layer after a real one promotes the summed buffer."""
    for eta in range(5):
        for p in (1, 2):
            assert close(exact_evolution_error(layers, 0.7, p, 3, eta),
                         dense_evolution_error(layers, 0.7, p, 3, eta))


def as_complex(h):
    """h with every weight a complex number."""
    return FermionSum(h.n_modes, [FermionTerm(complex(t.weight), t.factors)
                                  for t in h])


def oracle_values(layers):
    """The seminorm of the summed layers and their evolution errors at
    p=1,2 and r=1,4, for eta 0 to 4, from an empty memo: a complex weight
    equals its real part and hashes as it, so a kept input of the other
    dtype would be found."""
    fock._KEPT.clear()
    total = sum(layers[1:], layers[0])
    values = []
    for eta in range(5):
        values.append(eta_seminorm(total, eta))
        values += [exact_evolution_error(layers, 0.02, p, r, eta)
                   for p in (1, 2) for r in (1, 4)]
    return values


def test_real_kernels_agree_with_complex_on_pionless_layers():
    """The pionless layers are real, so the oracle runs on float64; the
    same layers with complex weights run on complex128, as every layer did
    before the dtype followed the weights."""
    layers = pionless((2, 2, 1))
    got = oracle_values(layers)
    assert all(vecs.dtype == np.float64
               for (_vals, vecs), _parts in fock._derived(layers, 4)[1].spectra)
    complex_layers = [as_complex(h) for h in layers]
    want = oracle_values(complex_layers)
    assert all(vecs.dtype == np.complex128 for (_vals, vecs), _parts
               in fock._derived(complex_layers, 4)[1].spectra)
    for g, w in zip(got, want):
        assert close(g, w)


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


@pytest.mark.parametrize("p", [0, 3])
def test_an_order_the_oracle_has_no_formula_for_is_refused(p):
    with pytest.raises(ValueError, match=rf"^order p={p} not supported"):
        exact_evolution_error([hopping(0, 1, 4)], 0.1, p, 1, 2)


def test_empty_layer_list_is_refused():
    with pytest.raises(ValueError, match="layers is empty"):
        exact_evolution_error([], 0.1, 1, 1, 2)


def test_non_integer_eta_r_and_p_are_refused():
    """eta, p and r take any integer type, but no bool and no float, not
    even one equal to the eta of a kept input."""
    h = hopping(0, 1, 4)
    assert eta_seminorm(h, np.int64(1)) == eta_seminorm(h, 1)
    for eta in (2.5, 1.0, True):
        message = f"^eta must be an integer, got {eta!r}$"
        with pytest.raises(DomainError, match=message):
            eta_seminorm(h, eta)
        with pytest.raises(DomainError, match=message):
            exact_evolution_error([h], 0.1, 1, 1, eta)
    for name, p, r in (("r", 1, 2.5), ("r", 1, True), ("p", 2.0, 1),
                       ("p", True, 1)):
        with pytest.raises(DomainError,
                           match=f"{name} must be an integer, got"):
            exact_evolution_error([h], 0.1, p, r, 2)
    assert exact_evolution_error([h], 0.1, np.int64(2), np.int32(3),
                                 np.int8(2)) == \
        exact_evolution_error([h], 0.1, 2, 3, 2)


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

def reference_sector_matrix(h, sector):
    states = np.array(sector.basis, dtype=np.uint64)
    mat = np.zeros((sector.dim, sector.dim), dtype=complex)
    for term in h.terms:
        cols, image, sign = reference_images(term, states)
        mat[np.searchsorted(states, image), cols] += sign * term.weight
    return mat


def reference_block_buffer(h, blocks):
    buf = np.zeros(blocks.size, dtype=complex)
    for term in h.terms:
        cols, image, sign = reference_images(term, blocks.states)
        rows = np.searchsorted(blocks.states, image)
        buf[blocks.row_base[rows] + blocks.local[cols]] += sign * term.weight
    return buf


def assert_builders_equal_reference(h, etas):
    for eta in etas:
        _key, kept = fock._derived([h], eta)
        (table,) = kept.tables
        assert np.array_equal(fock._block_buffer(table, kept.blocks),
                              reference_block_buffer(h, kept.blocks))
        sector = EtaSector(h.n_modes, eta)
        assert np.array_equal(sector_matrix(h, sector),
                              reference_sector_matrix(h, sector))


@pytest.mark.parametrize("shape, max_eta", [((2, 1, 1), 3), ((2, 2, 1), 4)])
def test_builders_equal_the_per_term_loop_on_pionless_layers(shape, max_eta):
    layers = pionless_layers(LatticeSpec(*shape, 2.2), pionless_params_for(2.2))
    for layer in layers:
        assert_builders_equal_reference(layer, range(max_eta + 1))


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


def reference_action(term, state):
    """The image of a basis state under a term and its Jordan-Wigner sign,
    one factor at a time right to left in plain ints, or None where the
    term annihilates the state."""
    sign = 1
    for m, k in reversed(term.factors):
        if (state >> m & 1) == (k == CREATE):
            return None
        if k != NUMBER:
            sign *= (-1) ** (state & ((1 << m) - 1)).bit_count()
            state ^= 1 << m
    return state, sign


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(npfo_sums))
def test_term_masks_give_the_factor_by_factor_action(h):
    """Each term's (flip, sign, odd) row maps every state it does not
    annihilate to the image and sign of its factors acting one by one."""
    table = fock._terms(h)
    for row, term in enumerate(h.terms):
        need, care, flip, sign, odd = (
            int(column[row]) for column in
            (table.need, table.care, table.flip, table.sign, table.odd))
        for state in range(1 << h.n_modes):
            want = reference_action(term, state)
            if state & care != need:
                assert want is None
            else:
                assert want == (state ^ flip,
                                (-1) ** ((state & sign).bit_count() + odd))


# the one memo: per input, what depends on neither t, p nor r

def key(sums, eta):
    return fock._Key(sums, eta)


def kept(layers, eta):
    return key(layers, eta) in fock._KEPT


def assert_memo_is(before):
    """The memo holds the same inputs, in the same order, as ``before``."""
    after = list(fock._KEPT.items())
    assert [k for k, _ in after] == [k for k, _ in before]
    assert all(a is b for (_, a), (_, b) in zip(after, before))


def layout_arrays(input_kept):
    blocks = input_kept.blocks
    return [*(a for table in input_kept.tables for a in table),
            blocks.states, blocks.row_base, blocks.local]


def spectra_arrays(input_kept):
    return [a for whole, parts in input_kept.spectra
            for pair in (whole, *parts) for a in pair if a is not None]


def test_layout_memo_is_read_only_and_bounded():
    """A seminorm keeps the input's tables and layout, read-only, and no
    eigensystems; the memo charges their bytes and more against its
    bound."""
    eta_seminorm(hopping(0, 1, 4), 2)
    (input_kept,) = fock._KEPT.values()
    assert input_kept.spectra is None
    arrays = layout_arrays(input_kept)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    assert sum(a.nbytes for a in arrays) < input_kept.nbytes \
        <= 16 * fock.MAX_BLOCK ** 2


def test_refused_layouts_are_never_cached():
    """A call refused for its size or its input leaves the memo as it
    was, in the same order; so each refusal is found anew."""
    too_big = chain(20, range(20))
    eta_seminorm(too_big, 1)
    exact_evolution_error(DIAGONAL_LAYERS, 0.7, 1, 1, 2)
    before = list(fock._KEPT.items())
    assert len(before) == 2
    for _ in range(3):
        with pytest.raises(SizeError):
            eta_seminorm(too_big, 5)
        with pytest.raises(SizeError):
            exact_evolution_error([too_big], 0.1, 1, 1, 5)
        with pytest.raises(SizeError):
            eta_seminorm(number_op(0, 65), 1)
        with pytest.raises(ValueError, match="outside"):
            eta_seminorm(too_big, 21)
        with pytest.raises(ValueError, match="step count"):
            exact_evolution_error(DIAGONAL_LAYERS, 0.7, 1, 0, 2)
    assert_memo_is(before)


def test_spectra_memo_keys_on_content():
    value = exact_evolution_error(DIAGONAL_LAYERS, 0.7, 2, 3, 2)
    (input_kept,) = fock._KEPT.values()
    copies = [FermionSum(h.n_modes, h.terms) for h in DIAGONAL_LAYERS]
    assert exact_evolution_error(copies, 0.7, 2, 3, 2) == value
    assert len(fock._KEPT) == 1
    assert fock._KEPT[key(copies, 2)] is input_kept
    # a weight one ulp off is another input, with the value of an empty memo
    moved = [moved_by_one_ulp(DIAGONAL_LAYERS[0]), *DIAGONAL_LAYERS[1:]]
    value = exact_evolution_error(moved, 0.7, 2, 3, 2)
    assert len(fock._KEPT) == 2
    fock._KEPT.clear()
    assert exact_evolution_error(moved, 0.7, 2, 3, 2) == value
    # so is a sum whose terms are reassigned after a call
    h = FermionSum(4, DIAGONAL_LAYERS[0].terms)
    before = exact_evolution_error([h, *DIAGONAL_LAYERS[1:]], 0.7, 1, 2, 2)
    h.terms = hopping(0, 2, 4).terms
    after = exact_evolution_error([h, *DIAGONAL_LAYERS[1:]], 0.7, 1, 2, 2)
    fock._KEPT.clear()
    assert after == exact_evolution_error(
        [hopping(0, 2, 4), *DIAGONAL_LAYERS[1:]], 0.7, 1, 2, 2)
    assert after != before
    # and so is another eta; one layer has the key of a seminorm of it, and
    # the evolution error adds its eigensystems to what the seminorm kept
    fock._KEPT.clear()
    layer = DIAGONAL_LAYERS[0]
    eta_seminorm(layer, 2)
    eta_seminorm(layer, 3)
    seminorm_kept = fock._KEPT[key([layer], 2)]
    exact_evolution_error([layer], 0.7, 1, 1, 2)
    assert len(fock._KEPT) == 2
    input_kept = fock._KEPT[key([layer], 2)]
    assert input_kept.tables is seminorm_kept.tables
    assert input_kept.blocks is seminorm_kept.blocks
    assert input_kept.spectra is not None


def test_spectra_memo_is_read_only():
    exact_evolution_error(DIAGONAL_LAYERS, 0.7, 1, 1, 2)
    (input_kept,) = fock._KEPT.values()
    for _whole, parts in input_kept.spectra:
        assert parts[1][1] is None  # the number-only layer: no vectors
    layout, spectra = layout_arrays(input_kept), spectra_arrays(input_kept)
    for array in layout + spectra:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    assert input_kept.nbytes > sum(a.nbytes for a in layout + spectra)


def test_refused_spectra_are_never_kept():
    """A layer refused as not Hermitian leaves the memo as it was, also
    where a seminorm of it is kept."""
    one_way = FermionSum(4, [FermionTerm(1.0, ((0, CREATE), (1, ANNIHILATE)))])
    eta_seminorm(one_way, 2)
    exact_evolution_error(DIAGONAL_LAYERS, 0.7, 1, 1, 2)
    before = list(fock._KEPT.items())
    for _ in range(3):
        with pytest.raises(ContractError):
            exact_evolution_error([one_way], 0.1, 1, 1, 2)
        with pytest.raises(ContractError):
            exact_evolution_error([hopping(1, 2, 4), one_way], 0.1, 1, 1, 2)
    assert_memo_is(before)
    assert fock._KEPT[key([one_way], 2)].spectra is None


def test_spectra_memo_evicts_the_least_recently_used(monkeypatch):
    a, b, c = ([hopping(0, 1, 4, w), number_op(2, 4)] for w in (0.5, 0.6, 0.7))
    values = [exact_evolution_error(layers, 0.3, 2, 2, 2)
              for layers in (a, b, c)]
    (held,) = {input_kept.nbytes for input_kept in fock._KEPT.values()}
    # room for two of the three inputs
    monkeypatch.setattr(fock, "MAX_BLOCK", math.isqrt((3 * held - 1) // 16))
    assert 2 * held <= 16 * fock.MAX_BLOCK ** 2 < 3 * held
    fock._KEPT.clear()
    exact_evolution_error(a, 0.3, 2, 2, 2)
    exact_evolution_error(b, 0.3, 2, 2, 2)
    exact_evolution_error(a, 0.3, 2, 2, 2)  # a is now the more recent
    assert exact_evolution_error(c, 0.3, 2, 2, 2) == values[2]
    assert kept(a, 2) and not kept(b, 2) and kept(c, 2)
    # an input over the whole budget is computed, not kept, and evicts
    # nothing
    monkeypatch.setattr(fock, "MAX_BLOCK", math.isqrt((held - 1) // 16))
    before = list(fock._KEPT.items())
    assert exact_evolution_error(b, 0.3, 2, 2, 2) == values[1]
    assert_memo_is(before)


def test_spectra_memo_hits_equal_cold_values():
    layers = pionless((2, 1, 1))
    points = [(t, p, r) for t in (0.05, 0.5) for p in (1, 2) for r in (1, 3)]
    warm = [exact_evolution_error(layers, t, p, r, 3) for t, p, r in points]
    cold = []
    for t, p, r in points:
        fock._KEPT.clear()
        cold.append(exact_evolution_error(layers, t, p, r, 3))
    assert warm == cold


def test_seminorm_memo_hits_equal_cold_values():
    """A seminorm of a kept input equals the one an empty memo gives, bit
    for bit."""
    cases = [(h, eta) for h in (*pionless((2, 1, 1)), MIXED)
             for eta in (1, 2, 3)]
    cold = []
    for h, eta in cases:
        fock._KEPT.clear()
        cold.append(eta_seminorm(h, eta).hex())
    for h, eta in cases:
        eta_seminorm(h, eta)
    assert len(fock._KEPT) == len(cases)
    assert [eta_seminorm(h, eta).hex() for h, eta in cases] == cold


def test_memo_hit_hashes_its_key_once(monkeypatch):
    """A count, not a timing: a warm call hashes each term of its key once,
    and an evolution error on a kept input hits it."""
    layers = pionless((2, 1, 1))
    exact_evolution_error(layers, 0.1, 1, 1, 3)
    eta_seminorm(layers[0], 3)
    calls = [0]
    term_hash = FermionTerm.__hash__

    def counted(term):
        calls[0] += 1
        return term_hash(term)

    monkeypatch.setattr(FermionTerm, "__hash__", counted)
    before = list(fock._KEPT.items())
    exact_evolution_error(layers, 0.2, 2, 3, 3)
    assert calls[0] == sum(len(h) for h in layers)
    assert_memo_is([before[1], before[0]])  # the hit is the most recent
    calls[0] = 0
    eta_seminorm(layers[0], 3)
    assert calls[0] == len(layers[0])
    assert_memo_is(before)


def test_memo_bound_counts_what_it_keeps(monkeypatch):
    """Many small inputs, each dropped by the caller after its call: what
    the memo holds, measured as the memory that emptying it frees, is no
    more than it charged, and stays within its bound when that is small.
    No count cap drops any of them under the real bound."""

    def held_and_charged():
        tracemalloc.start()
        try:
            for k in range(120):
                eta_seminorm(hopping(0, 1 + k % 3, 4, 1 + k / 1024), 2)
            charged = sum(kept.nbytes for kept in fock._KEPT.values())
            count = len(fock._KEPT)
            held = tracemalloc.get_traced_memory()[0]
            fock._KEPT.clear()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < held <= charged
        return held, count

    assert held_and_charged()[1] == 120
    monkeypatch.setattr(fock, "MAX_BLOCK", 64)
    held, count = held_and_charged()
    assert held <= 16 * fock.MAX_BLOCK ** 2 and count >= 10


def test_footprint_counts_a_view_and_its_base_once_each():
    base = np.zeros(10)
    view = base[2:5]
    both = sys.getsizeof(view) + sys.getsizeof(base)
    assert fock._footprint(view) == both
    assert fock._footprint(view, view, base) == both


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
    _key, kept = fock._derived([h], 3)
    assert len(h) >= 1500 and len(kept.blocks.states) >= 4000
    tracemalloc.start()
    try:
        fock._block_buffer(kept.tables[0], kept.blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


# one block per orbit of the group swaps, against every block

def found_orbits(sums):
    n_modes = max(h.n_modes for h in sums)
    tables = [fock._terms(h) for h in sums]
    return fock._orbits(fock._mode_groups(n_modes, tables), sums)


def singleton_orbits(groups, sums):
    """Each group its own orbit: the detector finding no swap."""
    return tuple((g,) for g in range(len(groups)))


def reduced_and_full(call):
    """call() on one block per orbit, and again on every block: the
    reference, with the detector finding no swap.  The memo is emptied
    around each call, so that neither call reuses the other's blocks."""
    fock._KEPT.clear()
    reduced = call()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "_orbits", singleton_orbits)
        fock._KEPT.clear()
        try:
            return reduced, call()
        finally:
            fock._KEPT.clear()


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
        reduced, full = reduced_and_full(
            lambda: fock._derived(layers, eta)[1].blocks)
        assert len(reduced.states) < len(full.states)
        for h in [*layers, total]:
            assert close(*reduced_and_full(lambda: eta_seminorm(h, eta)))
        # one call per side decomposes each stack once for all four (p, r)
        reduced, full = reduced_and_full(
            lambda: [exact_evolution_error(layers, 0.02, p, r, eta)
                     for p in (1, 2) for r in (1, 2)])
        for got, want in zip(reduced, full, strict=True):
            assert close(got, want)


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
        counts = np.stack([np.bitwise_count(states & np.uint64(g))
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
    blocks = fock._derived(layers, 3)[1].blocks
    assert max(d for _, _, d in blocks.stacks) == 1728
    assert blocks.size == 3_661_648
    with monkeypatch.context() as patch:
        patch.setattr(fock, "_orbits", singleton_orbits)
        with pytest.raises(SizeError, match="19664704 block entries"):
            fock._derived(layers, 3)
    # at eta=4 the block of one nucleon per species has 12**4 = 20,736
    # states, and is refused before any state is enumerated
    def enumerate_states(modes, eta):
        raise AssertionError("sector enumerated before the size check")

    monkeypatch.setattr(fock, "_subsets", enumerate_states)
    with pytest.raises(SizeError, match="a block of 20736 states"):
        fock._derived(layers, 4)


def test_unjoined_swappable_modes_leave_one_block_per_count():
    # modes 1..39 are alike: at eta=10 the C(40, 10) blocks of one state
    # fall into two orbits, by the occupation of mode 0
    assert fock._derived([number_op(0, 40, 2.5)], 10)[1].blocks.size == 2
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
    the reference rewrite orders the mapped product, is symmetric, and the
    sum with the image's sign flipped is not."""
    factors = tuple([(m, CREATE) for m in sorted(modes[:pairs])]
                    + [(m, ANNIHILATE) for m in sorted(modes[pairs:2 * pairs])]
                    + [(m, NUMBER) for m in
                       sorted(modes[2 * pairs:2 * pairs + numbers])])
    ((mapped, mapped_w),) = rewrite_normal_order(
        [(SWAP_IMAGE[m], k) for m, k in factors], w).items()
    assume(mapped != factors)

    def orbits(terms):
        return fock._orbits((SWAP_A, SWAP_B), [FermionSum(6, terms)])

    term = FermionTerm(w, factors)
    assert orbits([term, FermionTerm(mapped_w, mapped)]) == ((0, 1),)
    assert orbits([term, FermionTerm(-mapped_w, mapped)]) == ((0,), (1,))


def swapped(h, a, b):
    """h with mode groups a and b swapped, the k-th mode of one with the
    k-th mode of the other, each term re-sorted by the reference rewrite,
    which shares no code with the swap test."""
    bits_a, bits_b = fock._bits(a), fock._bits(b)
    image = dict(zip(bits_a + bits_b, bits_b + bits_a))
    acc = {}
    for t in h.terms:
        for f, w in rewrite_normal_order(
                [(image.get(m, m), k) for m, k in t.factors],
                t.weight).items():
            acc[f] = acc.get(f, 0.0) + w
    return FermionSum(h.n_modes, [FermionTerm(w, f) for f, w in acc.items()])


@st.composite
def sums_and_groups(draw):
    """A sum on at most 8 modes and a random partition of its modes into
    groups, ordered by lowest mode."""
    n = draw(st.integers(2, 8))
    h = draw(st.one_of(fermion_sums(n), npfo_sums(n)))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups = sorted({sum(1 << m for m in range(n) if labels[m] == label)
                     for label in labels}, key=lambda g: g & -g)
    return h, groups


@settings(max_examples=100, deadline=None)
@given(sums_and_groups())
def test_swap_invariance_equals_the_term_by_term_map(case):
    """For every pair of equal-size groups, _swap_invariant on the sum, on
    the sum plus its swapped image (which maps to itself) and on the sum
    minus that image (whose terms map to terms, but not its weights) says
    what mapping the FermionSum term by term says."""
    h, groups = case
    for i, a in enumerate(groups):
        for b in groups[i + 1:]:
            if a.bit_count() != b.bit_count():
                continue
            image = swapped(h, a, b)
            for s in (h, h + image, h - image):
                want = {t.factors: t.weight for t in swapped(s, a, b)} == \
                    {t.factors: t.weight for t in s}
                assert fock._swap_invariant([s], a, b) == want

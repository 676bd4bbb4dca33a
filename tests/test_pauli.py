import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuceft.encodings import (LatticeSpec, QubitLayout, encode_fermion_sum,
                              encode_hopping)
from nuceft.errors import DimensionError, SizeError
from nuceft.models import pionless_layers
from nuceft.params import pionless_params_for
from nuceft.pauli import (PauliString, PauliSum, anticommutator_sum,
                          commutator_sum, dense_matrix, multiply)

from pauli_reference import canonical, exact_terms, pairwise

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)
SINGLE = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_label(label):
    """Independent dense oracle: qubit 0 is the least significant factor."""
    mat = np.eye(1, dtype=complex)
    for ch in label:
        mat = np.kron(SINGLE[ch], mat)
    return mat


def test_from_label_matches_kron_oracle():
    for label in ("X", "IZ", "XY", "ZZX", "IYXI", "XXYZ"):
        p = PauliString.from_label(label)
        assert np.allclose(p.dense(), kron_label(label))


def test_label_roundtrip():
    p = PauliString.from_label("XIZY", phase=3)
    assert p.label() == "XIZY"
    assert PauliString.from_label(p.label(), p.phase) == p


def test_phase_is_mod_four():
    p = PauliString.from_label("X", phase=1)
    assert np.allclose(p.dense(), 1j * X)
    assert PauliString(1, 1, 0, 5).phase == 1


def test_multiply_small_cases():
    x = PauliString.from_label("X")
    z = PauliString.from_label("Z")
    xz = multiply(x, z)
    assert np.allclose(xz.dense(), X @ Z)
    assert np.allclose(multiply(z, x).dense(), Z @ X)
    # XZ = -iY
    assert xz.label() == "Y"
    assert xz.phase == 3


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63),
       st.integers(0, 63), st.integers(0, 3), st.integers(0, 3))
def test_multiply_matches_dense(xa, za, xb, zb, pa, pb):
    a = PauliString(6, xa, za, pa)
    b = PauliString(6, xb, zb, pb)
    assert np.allclose(multiply(a, b).dense(), a.dense() @ b.dense())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63),
       st.integers(0, 63))
def test_commutes_with_matches_dense(xa, za, xb, zb):
    a = PauliString(6, xa, za)
    b = PauliString(6, xb, zb)
    comm = a.dense() @ b.dense() - b.dense() @ a.dense()
    assert a.commutes_with(b) == bool(np.allclose(comm, 0))


def test_weight_and_support():
    p = PauliString.from_label("XIZY")
    assert p.weight == 3
    assert p.support == 0b1101


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionError):
        multiply(PauliString.from_label("X"), PauliString.from_label("XX"))
    with pytest.raises(DimensionError, match="negative qubit count"):
        PauliString(-1, 0, 0)
    with pytest.raises(DimensionError, match="^mask exceeds 2 qubits: "
                       "x=0x4 z=0x0$"):
        PauliString(2, 4, 0)
    with pytest.raises(DimensionError,
                       match="^term acts on 2 qubits, sum on 3$"):
        PauliSum(3, [(1.0, PauliString.from_label("XZ"))])
    with pytest.raises(ValueError, match="^invalid Pauli character 'Q'$"):
        PauliString.from_label("XQ")


def test_sum_canonicalization_merges_terms():
    x = PauliString.from_label("X")
    s = PauliSum(1, [(0.5, x), (0.25, x)])
    assert len(s) == 1
    ((c, _),) = list(s)
    assert c == 0.75


def test_sum_phase_folded_into_coefficient():
    minus_x = PauliString.from_label("X", phase=2)
    s = PauliSum.from_string(1.0, minus_x)
    ((c, string),) = list(s)
    assert string.phase == 0
    assert c == -1.0
    assert np.allclose(dense_matrix(s), -X)


def test_sum_repr():
    assert repr(PauliSum(2, [])) == "PauliSum(2, 0)"
    assert repr(PauliSum(2, [(1.0, PauliString.from_label("XI")),
                             (-0.5j, PauliString.from_label("ZY"))])) == \
        "(1+0j)*XI + (0-0.5j)*ZY"


def test_sum_product_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = PauliSum(3, [(complex(rng.normal(), rng.normal()),
                          PauliString(3, int(rng.integers(8)),
                                      int(rng.integers(8))))
                         for _ in range(3)])
        b = PauliSum(3, [(complex(rng.normal(), rng.normal()),
                          PauliString(3, int(rng.integers(8)),
                                      int(rng.integers(8))))
                         for _ in range(3)])
        assert np.allclose(dense_matrix(a * b),
                           dense_matrix(a) @ dense_matrix(b), atol=1e-12)
        lhs = dense_matrix(commutator_sum(a, b))
        rhs = dense_matrix(a) @ dense_matrix(b) \
            - dense_matrix(b) @ dense_matrix(a)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_adjoint_of_hermitian_sum():
    h = PauliSum(2, [(1.5, PauliString.from_label("XZ")),
                     (-0.5, PauliString.from_label("YY"))])
    assert h.is_hermitian()
    assert np.allclose(dense_matrix(h.adjoint()),
                       dense_matrix(h).conj().T)


@pytest.mark.parametrize("coeff", [1j, np.complex64(1j), np.complex128(1j),
                                   np.complex64(1 + 1e-3j)])
def test_an_imaginary_part_of_any_complex_type_is_not_hermitian(coeff):
    assert not PauliSum.from_masks(1, [(coeff, 1, 0, 0)]).is_hermitian()
    assert PauliSum.from_masks(1, [(coeff.real, 1, 0, 0)]).is_hermitian()


def test_adjoint_returns_python_complex():
    h = PauliSum(2, [(1.5, PauliString.from_label("XZ")),
                     (0.5 - 2j, PauliString.from_label("YY"))])
    coeffs = [c for c, _ in h.adjoint()]
    assert [type(c) for c in coeffs] == [complex, complex]
    assert coeffs == [1.5, 0.5 + 2j]


N_QUBITS = 3
COEFFS = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


def term_lists(x_masks=st.integers(0, 7), z_masks=st.integers(0, 7),
               coeffs=COEFFS):
    """(coeff, string) pairs over a few strings, each drawn up to three
    times with its own coefficient and phase, so that repeated strings
    merge."""
    strings = st.lists(st.tuples(x_masks, z_masks), min_size=1, max_size=4)
    return strings.flatmap(lambda pool: st.lists(
        st.tuples(coeffs, st.sampled_from(pool), st.integers(0, 3)),
        max_size=3 * len(pool))).map(lambda terms: [
            (c, PauliString(N_QUBITS, x, z, phase))
            for c, (x, z), phase in terms])


def pauli_sums(x_masks=st.integers(0, 7), z_masks=st.integers(0, 7)):
    return term_lists(x_masks, z_masks).map(
        lambda terms: PauliSum(N_QUBITS, terms))


# real, complex and integer coefficients, signed zeros among them
ANY_COEFFS = st.one_of(COEFFS, st.floats(-2.0, 2.0), st.integers(-2, 2),
                       st.sampled_from([0.0, -0.0, complex(-0.0, 0.0),
                                        complex(0.0, -0.0)]))


@settings(max_examples=200, deadline=None)
@given(term_lists(coeffs=ANY_COEFFS), term_lists(coeffs=ANY_COEFFS),
       ANY_COEFFS)
def test_sums_equal_the_canonical_reference(terms_a, terms_b, scalar):
    """A sum, a difference, a multiple and an adjoint have the terms of the
    canonical sum of their parts, coefficient bits included."""
    a, b = PauliSum(N_QUBITS, terms_a), PauliSum(N_QUBITS, terms_b)
    minus_b = canonical(N_QUBITS, [(-1 * c, s) for c, s in b.terms])
    for got, want in (
            (a, canonical(N_QUBITS, terms_a)),
            (a + b, canonical(N_QUBITS, a.terms + b.terms)),
            (a - b, canonical(N_QUBITS, a.terms + minus_b.terms)),
            (scalar * a, canonical(N_QUBITS,
                                   [(scalar * c, s) for c, s in a.terms])),
            (a.adjoint(), canonical(N_QUBITS, [(c.conjugate(), s)
                                               for c, s in a.terms]))):
        assert got.terms == want.terms
        assert exact_terms(got) == exact_terms(want)


@settings(max_examples=200, deadline=None)
@given(pauli_sums(), pauli_sums())
def test_brackets_match_dense(a, b):
    da, db = dense_matrix(a), dense_matrix(b)
    assert np.allclose(dense_matrix(commutator_sum(a, b)),
                       da @ db - db @ da, atol=1e-12)
    assert np.allclose(dense_matrix(anticommutator_sum(a, b)),
                       da @ db + db @ da, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(pauli_sums(x_masks=st.just(0)), pauli_sums(x_masks=st.just(0)))
def test_commuting_sums_have_an_empty_commutator(a, b):
    # Z-type strings all commute
    assert len(commutator_sum(a, b)) == 0


@settings(max_examples=200, deadline=None)
@given(pauli_sums(), pauli_sums())
def test_products_equal_the_pairwise_reference(a, b):
    """Same coefficients bit for bit, same term order, same dropped
    zeros as summing the pairwise products in a-major order."""
    for got, want in ((a * b, pairwise(a, b)),
                      (commutator_sum(a, b), pairwise(a, b, keep=True)),
                      (anticommutator_sum(a, b), pairwise(a, b, keep=False))):
        assert got.terms == want.terms
        assert exact_terms(got) == exact_terms(want)
        assert all(s.phase == 0 for _, s in got.terms)


def count_builds(monkeypatch):
    """A counter of the strings built, each through the validating
    constructor."""
    built = {"validated": 0}
    validate = PauliString.__post_init__

    def counted_validate(string):
        built["validated"] += 1
        validate(string)

    monkeypatch.setattr(PauliString, "__post_init__", counted_validate)
    return built


def assert_built_on_read(built, p):
    """No string built before ``p`` is read; each read of its terms builds
    and validates one string per term."""
    assert built == {"validated": 0}
    for reads in (1, 2):
        assert len(p.terms) == len(p)
        assert built == {"validated": reads * len(p)}


def test_product_builds_each_string_once(monkeypatch):
    """A count, not a timing: the product of the jw-encoded 2x2x1 kinetic
    and diagonal layers builds no string, and a read of its terms builds
    each once."""
    lattice = LatticeSpec(2, 2, 1, 2.2)
    jw = QubitLayout("jw", lattice)
    built = count_builds(monkeypatch)
    kin_x, _kin_y, diag = (encode_fermion_sum(jw, layer) for layer in
                           pionless_layers(lattice, pionless_params_for(2.2)))
    product = kin_x * diag
    assert len(product) > len(kin_x) + len(diag)
    assert_built_on_read(built, product)


@pytest.mark.parametrize("encoding", ["jw", "vc", "compact"])
def test_hopping_builds_each_string_once(monkeypatch, encoding):
    """A y-bond hopping image builds no string, the vc dressing included
    (its path-edge operators are built with the layout), and a read of
    its terms builds each once."""
    layout = QubitLayout(encoding, LatticeSpec(2, 2, 1, 2.2))
    built = count_builds(monkeypatch)
    assert_built_on_read(built, encode_hopping(layout, (0, 0, 0), (0, 1, 0), 2))


def assert_validated(p):
    """Every string of a sum equals the one the validating constructor
    builds from its masks: same qubit count, phase 0, same fields."""
    for _, s in p.terms:
        assert type(s) is PauliString
        checked = PauliString(p.n_qubits, s.x_mask, s.z_mask)
        assert s == checked and vars(s) == vars(checked)
        assert hash(s) == hash(checked) and repr(s) == repr(checked)


@settings(max_examples=100, deadline=None)
@given(pauli_sums(), pauli_sums(), st.sampled_from(["jw", "vc", "compact"]),
       st.sampled_from([(2, 1, 1), (2, 2, 1), (1, 2, 2)]),
       st.integers(0, 3), st.data())
def test_built_strings_equal_validated_ones(a, b, encoding, shape, species,
                                            data):
    for p in (a, b, a * b, commutator_sum(a, b), anticommutator_sum(a, b),
              a + b, a - b, (0.5 - 2j) * a, a.adjoint()):
        assert_validated(p)
    lattice = LatticeSpec(*shape, 2.2)
    site_i, site_j, _axis = data.draw(st.sampled_from(list(lattice.bonds())))
    assert_validated(encode_hopping(QubitLayout(encoding, lattice),
                                    site_i, site_j, species))


def test_built_sum_checks_that_its_masks_fit():
    """The one check a sum built from masks makes: the union of its masks
    fits.  Each phase is read mod 4."""
    assert PauliSum.from_masks(3, [(1j, 4, 3, 0), (0.5, 4, 3, 5)]).masks == {
        (4, 3): 1.5j}
    with pytest.raises(DimensionError, match="mask exceeds 3 qubits: 0x9"):
        PauliSum.from_masks(3, [(1j, 1, 0, 0), (1j, 0, 8, 0)])


def test_anticommuting_strings_have_an_empty_anticommutator():
    x = PauliSum.from_string(1.0, PauliString.from_label("XI"))
    z = PauliSum.from_string(0.5j, PauliString.from_label("ZY"))
    assert len(anticommutator_sum(x, z)) == 0
    ((c, s),) = list(commutator_sum(x, z))
    assert s.label() == "YY" and c == 1.0


def test_dense_matrix_cap():
    big = PauliSum(15, [(1.0, PauliString.identity(15))])
    with pytest.raises(SizeError):
        dense_matrix(big)
    with pytest.raises(SizeError):
        PauliString.identity(15).dense()


def test_dense_matrix_equals_the_kron_reference_on_phased_sums():
    rng = np.random.default_rng(28)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        terms, ref = [], np.zeros((1 << n, 1 << n), dtype=complex)
        for _ in range(int(rng.integers(1, 6))):
            label = "".join(rng.choice(list("IXYZ"), size=n))
            phase = int(rng.integers(0, 4))
            coeff = complex(rng.normal(), rng.normal())
            terms.append((coeff, PauliString.from_label(label, phase)))
            ref += coeff * 1j ** phase * kron_label(label)
        assert np.allclose(dense_matrix(PauliSum(n, terms)), ref,
                           rtol=0, atol=1e-12)
        for coeff, string in terms:
            assert np.allclose(string.dense(),
                               1j ** string.phase * kron_label(string.label()),
                               rtol=0, atol=0)

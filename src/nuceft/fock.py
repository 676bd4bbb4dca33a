"""Exact fermionic brute-force backend.

Number-preserving fermionic operators (NPFOs) are ordered products of
creation, annihilation and number factors on labeled modes with a scalar
weight, with equal counts of creations and annihilations.  This module
normal-orders arbitrary ladder products into canonical NPFOs, computes
commutators symbolically, and builds dense matrices restricted to the
fixed-particle-number (eta) sector for semi-norms and exact product-formula
errors.  It is the independent oracle behind every derived value.

Occupation convention: bit i of a basis integer is the occupation of mode i,
and ladder operators pick up the sign (-1)^(number of occupied modes below i),
matching the Jordan-Wigner string direction used by the encodings module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, SizeError

CREATE = "+"
ANNIHILATE = "-"
NUMBER = "n"

_KIND_ORDER = {CREATE: 0, ANNIHILATE: 1, NUMBER: 2}

Factor = tuple[int, str]  # (mode, kind)


@dataclass(frozen=True)
class FermionTerm:
    """weight * a+(s1)...a+(sk) a(t1)...a(tm) N(u1)...N(up), modes distinct.

    Canonical ordered form: creations, then annihilations, then numbers,
    each group in ascending mode order, and no mode repeated anywhere in
    the term.  ``is_npfo`` additionally requires k == m.
    """

    weight: float
    factors: tuple[Factor, ...]

    def __post_init__(self):
        modes = [m for m, _ in self.factors]
        if len(set(modes)) != len(modes):
            raise ValueError(f"repeated mode in canonical term: {self.factors}")
        groups = [_KIND_ORDER[k] for _, k in self.factors]
        if groups != sorted(groups):
            raise ValueError(f"factors out of canonical order: {self.factors}")
        for kind in (CREATE, ANNIHILATE, NUMBER):
            grp = [m for m, k in self.factors if k == kind]
            if grp != sorted(grp):
                raise ValueError(f"modes out of order within group: {self.factors}")

    @property
    def creations(self) -> tuple[int, ...]:
        return tuple(m for m, k in self.factors if k == CREATE)

    @property
    def annihilations(self) -> tuple[int, ...]:
        return tuple(m for m, k in self.factors if k == ANNIHILATE)

    @property
    def numbers(self) -> tuple[int, ...]:
        return tuple(m for m, k in self.factors if k == NUMBER)

    @property
    def is_npfo(self) -> bool:
        return len(self.creations) == len(self.annihilations)

    @property
    def locality(self) -> int:
        return len(self.factors)

    def modes(self) -> frozenset[int]:
        return frozenset(m for m, _ in self.factors)

    def __repr__(self) -> str:
        if not self.factors:
            return f"{self.weight}*1"
        sym = {CREATE: "a+", ANNIHILATE: "a", NUMBER: "N"}
        body = " ".join(f"{sym[k]}({m})" for m, k in self.factors)
        return f"{self.weight}*{body}"


class FermionSum:
    """Canonical sum of FermionTerms over a declared mode universe."""

    __slots__ = ("n_modes", "terms")

    def __init__(self, n_modes: int, terms: Iterable[FermionTerm] = ()):
        self.n_modes = n_modes
        acc: dict[tuple[Factor, ...], float] = {}
        for t in terms:
            for m, _ in t.factors:
                if not 0 <= m < n_modes:
                    raise ValueError(f"mode {m} outside universe of {n_modes}")
            acc[t.factors] = acc.get(t.factors, 0.0) + t.weight
        self.terms = tuple(FermionTerm(w, f) for f, w in acc.items() if w != 0.0)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __add__(self, other: "FermionSum") -> "FermionSum":
        n = max(self.n_modes, other.n_modes)
        return FermionSum(n, list(self.terms) + list(other.terms))

    def __sub__(self, other: "FermionSum") -> "FermionSum":
        return self + (-1.0) * other

    def __rmul__(self, scalar: float) -> "FermionSum":
        return FermionSum(self.n_modes,
                          [FermionTerm(scalar * t.weight, t.factors) for t in self.terms])

    def adjoint(self) -> "FermionSum":
        acc: dict[tuple[Factor, ...], float] = {}
        for t in self.terms:
            rev = tuple(reversed(_expand_numbers(t.factors)))
            conj = tuple((m, CREATE if k == ANNIHILATE else ANNIHILATE) for m, k in rev)
            _accumulate(acc, normal_order(conj, t.weight.conjugate(), self.n_modes))
        return _from_weights(self.n_modes, acc)

    def __repr__(self) -> str:
        return " + ".join(repr(t) for t in self.terms) if self.terms else "0"


@dataclass(frozen=True)
class EtaSector:
    """Enumeration of occupation bit patterns with popcount == eta."""

    n_modes: int
    eta: int
    basis: tuple[int, ...] = field(init=False)
    index: dict = field(init=False)

    def __post_init__(self):
        if not 0 <= self.eta <= self.n_modes:
            raise ValueError(f"eta={self.eta} outside [0, {self.n_modes}]")
        states = [sum(1 << m for m in occ)
                  for occ in itertools.combinations(range(self.n_modes), self.eta)]
        states.sort()
        object.__setattr__(self, "basis", tuple(states))
        object.__setattr__(self, "index", {s: i for i, s in enumerate(states)})
        assert len(states) == comb(self.n_modes, self.eta)

    @property
    def dim(self) -> int:
        return len(self.basis)


def _expand_numbers(factors: Sequence[Factor]) -> list[Factor]:
    out: list[Factor] = []
    for m, k in factors:
        if k == NUMBER:
            out.append((m, CREATE))
            out.append((m, ANNIHILATE))
        else:
            out.append((m, k))
    return out


def normal_order(factors: Sequence[Factor], weight: float = 1.0,
                 n_modes: int | None = None) -> FermionSum:
    """Rewrite an arbitrary ladder/number product as canonical FermionTerms.

    Uses {a(i), a+(j)} = delta_ij and a(i)a(i) = a+(i)a+(i) = 0, then folds
    matched a+(i)...a(i) pairs into number factors.
    """
    if n_modes is None:
        n_modes = 1 + max((m for m, _ in factors), default=-1)
        n_modes = max(n_modes, 0)
    acc: dict[tuple[Factor, ...], float] = {}
    stack: list[tuple[float, tuple[Factor, ...]]] = [(weight, tuple(_expand_numbers(factors)))]
    while stack:
        w, fs = stack.pop()
        pos = _first_violation(fs)
        if pos is None:
            key, sign = _to_canonical(fs)
            if key is not None:
                acc[key] = acc.get(key, 0.0) + sign * w
            continue
        (m1, k1), (m2, k2) = fs[pos], fs[pos + 1]
        head, tail = fs[:pos], fs[pos + 2:]
        if k1 == ANNIHILATE and k2 == CREATE:
            if m1 == m2:
                stack.append((w, head + tail))
            stack.append((-w, head + ((m2, k2), (m1, k1)) + tail))
        else:  # same-kind pair out of order or repeated
            if m1 == m2:
                continue  # nilpotency: term vanishes
            stack.append((-w, head + ((m2, k2), (m1, k1)) + tail))
    return _from_weights(n_modes, acc)


def _accumulate(acc: dict[tuple[Factor, ...], float],
                terms: Iterable[FermionTerm]) -> None:
    """Add each term's weight into ``acc`` under its factors."""
    for t in terms:
        acc[t.factors] = acc.get(t.factors, 0.0) + t.weight


def _from_weights(n_modes: int, acc: dict[tuple[Factor, ...], float]) -> FermionSum:
    """The canonical sum of accumulated weights, built once."""
    return FermionSum(n_modes, (FermionTerm(w, f) for f, w in acc.items() if w != 0.0))


def _first_violation(fs: tuple[Factor, ...]) -> int | None:
    """Index of the first adjacent pair breaking normal order, or None."""
    for i in range(len(fs) - 1):
        (m1, k1), (m2, k2) = fs[i], fs[i + 1]
        if k1 == ANNIHILATE and k2 == CREATE:
            return i
        if k1 == k2 and m1 >= m2:
            return i
    return None


def _to_canonical(fs: tuple[Factor, ...]) -> tuple[tuple[Factor, ...] | None, int]:
    """Fold matched creation/annihilation pairs into number factors.

    Input is normal-ordered: strictly ascending creations, then strictly
    ascending annihilations.  Returns (canonical factors, sign) or (None, 0)
    when the term vanishes.
    """
    creates = [m for m, k in fs if k == CREATE]
    annis = [m for m, k in fs if k == ANNIHILATE]
    sign = 1
    numbers = []
    common = sorted(set(creates) & set(annis))
    for m in common:
        p = creates.index(m)
        q = annis.index(m)
        # move a+(m) right past later creations, a(m) left past earlier ones
        sign *= (-1) ** (len(creates) - 1 - p) * (-1) ** q
        creates.pop(p)
        annis.pop(q)
        numbers.append(m)
    fac = tuple((m, CREATE) for m in creates) + \
        tuple((m, ANNIHILATE) for m in annis) + \
        tuple((m, NUMBER) for m in sorted(numbers))
    return fac, sign


def _inversions(seq: Sequence[int]) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return inv


def reorder_only(factors: Sequence[Factor], weight: float = 1.0,
                 n_modes: int | None = None) -> FermionSum:
    """The :A: operation: move creations left with the fermionic sign,
    dropping all contraction terms (pure reordering, not the CAR rewrite).
    """
    if n_modes is None:
        n_modes = max((m for m, _ in factors), default=-1) + 1
    fs = _expand_numbers(factors)
    creates = [m for m, k in fs if k == CREATE]
    annis = [m for m, k in fs if k == ANNIHILATE]
    # parity of the partition: each creation hops over earlier annihilations
    sign = 1
    seen_annis = 0
    for _, k in fs:
        if k == ANNIHILATE:
            seen_annis += 1
        elif seen_annis % 2 == 1:
            sign = -sign
    if len(set(creates)) != len(creates) or len(set(annis)) != len(annis):
        return FermionSum(n_modes)  # nilpotency
    sign *= (-1) ** (_inversions(creates) + _inversions(annis))
    ordered = tuple((m, CREATE) for m in sorted(creates)) + \
        tuple((m, ANNIHILATE) for m in sorted(annis))
    fac, fold_sign = _to_canonical(ordered)
    return FermionSum(n_modes, [FermionTerm(sign * fold_sign * weight, fac)])


def _is_odd(term: FermionTerm) -> bool:
    """Whether the term has an odd number of ladder factors."""
    return sum(k != NUMBER for _, k in term.factors) % 2 == 1


def fermion_commutator(a: FermionSum, b: FermionSum) -> FermionSum:
    """[a, b] in canonical form; NPFO when a and b are NPFOs."""
    n = max(a.n_modes, b.n_modes)
    acc: dict[tuple[Factor, ...], float] = {}
    for ta in a.terms:
        fa = tuple(_expand_numbers(ta.factors))
        odd_a = _is_odd(ta)
        for tb in b.terms:
            if not (ta.modes() & tb.modes()) and not (odd_a and _is_odd(tb)):
                continue  # disjoint supports commute unless both terms are odd
            fb = tuple(_expand_numbers(tb.factors))
            w = ta.weight * tb.weight
            _accumulate(acc, normal_order(fa + fb, w, n))
            _accumulate(acc, normal_order(fb + fa, -w, n))
    return _from_weights(n, acc)


# dense sector matrices


def _apply_term(term: FermionTerm, state: int) -> tuple[int, float] | None:
    """Apply a canonical term to an occupation basis state.

    Factors act right to left.  Returns (new_state, amplitude) or None.
    """
    amp = 1.0
    for m, k in reversed(term.factors):
        bit = 1 << m
        if k == NUMBER:
            if not state & bit:
                return None
        elif k == ANNIHILATE:
            if not state & bit:
                return None
            amp *= (-1) ** bin(state & (bit - 1)).count("1")
            state ^= bit
        else:  # CREATE
            if state & bit:
                return None
            amp *= (-1) ** bin(state & (bit - 1)).count("1")
            state |= bit
    return state, amp * term.weight


def sector_matrix(h: FermionSum, sector: EtaSector) -> np.ndarray:
    """Dense matrix of h restricted to the eta sector (particle-number block)."""
    mat = np.zeros((sector.dim, sector.dim), dtype=complex)
    for term in h.terms:
        if len(term.creations) != len(term.annihilations):
            raise ValueError("term does not preserve particle number")
        for col, state in enumerate(sector.basis):
            hit = _apply_term(term, state)
            if hit is None:
                continue
            new_state, amp = hit
            mat[sector.index[new_state], col] += amp
    return mat


def full_matrix(h: FermionSum, n_modes: int | None = None) -> np.ndarray:
    """Dense matrix of h on the full 2^n Fock space."""
    if n_modes is None:
        n_modes = h.n_modes
    dim = 1 << n_modes
    mat = np.zeros((dim, dim), dtype=complex)
    for term in h.terms:
        for col in range(dim):
            hit = _apply_term(term, col)
            if hit is None:
                continue
            new_state, amp = hit
            mat[new_state, col] += amp
    return mat


def eta_seminorm(h: FermionSum, eta: int, cap: int = 16) -> float:
    """Largest singular value of h projected into the eta-fermion sector."""
    if h.n_modes > cap:
        raise SizeError(f"{h.n_modes} modes exceeds oracle cap {cap}")
    sector = EtaSector(h.n_modes, eta)
    if sector.dim == 0:
        return 0.0
    mat = sector_matrix(h, sector)
    if not mat.any():
        return 0.0
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def _expm_hermitian(mat: np.ndarray, t: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.exp(-1j * t * vals)) @ vecs.conj().T


def exact_evolution_error(layers: Sequence[FermionSum], t: float, p: int,
                          r: int, eta: int, cap: int = 16) -> float:
    """Spectral norm of exp(-itH) - P_p(t/r)^r restricted to the eta sector."""
    if p not in (1, 2):
        raise ValueError(f"order p={p} not supported by the oracle")
    if r < 1:
        raise ValueError("step count r must be >= 1")
    n_modes = max(layer.n_modes for layer in layers)
    if n_modes > cap:
        raise SizeError(f"{n_modes} modes exceeds oracle cap {cap}")
    sector = EtaSector(n_modes, eta)
    mats = []
    for layer in layers:
        m = sector_matrix(FermionSum(n_modes, layer.terms), sector)
        if not np.allclose(m, m.conj().T, atol=1e-12):
            raise ContractError("layer is not Hermitian in the eta sector")
        mats.append(m)
    total = sum(mats)
    exact = _expm_hermitian(total, t)
    dt = t / r
    if p == 1:
        step = np.eye(sector.dim, dtype=complex)
        for m in mats:
            step = step @ _expm_hermitian(m, dt)
    else:
        half = [_expm_hermitian(m, dt / 2) for m in mats]
        step = np.eye(sector.dim, dtype=complex)
        for u in half:
            step = step @ u
        for u in reversed(half):
            step = step @ u
    approx = np.linalg.matrix_power(step, r)
    return float(np.linalg.svd(exact - approx, compute_uv=False)[0])


# small constructors used by the model builders and tests


def hopping(i: int, j: int, n_modes: int, weight: float = 1.0) -> FermionSum:
    """weight * (a+(i) a(j) + a+(j) a(i))."""
    lo, hi = min(i, j), max(i, j)
    return FermionSum(n_modes, [
        FermionTerm(weight, ((lo, CREATE), (hi, ANNIHILATE))),
        FermionTerm(weight, ((hi, CREATE), (lo, ANNIHILATE))),
    ])


def number_op(i: int, n_modes: int, weight: float = 1.0) -> FermionSum:
    return FermionSum(n_modes, [FermionTerm(weight, ((i, NUMBER),))])

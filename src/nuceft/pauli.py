"""Symbolic Pauli-string algebra with exact integer phase tracking.

Pauli strings are stored in the symplectic (binary) representation: two bit
masks over the qubit index space plus a power of i.  Bit q of ``x_mask`` is
set when qubit q carries X or Y; bit q of ``z_mask`` when it carries Z or Y.
The operator represented is ``i**phase * P_0 (x) P_1 (x) ... (x) P_{n-1}``
with P_q read off the masks as I/X/Y/Z.  All phase arithmetic is done on the
Z4 exponent, so products and commutators are exact (no floating-point phases).

Canonical output: a ``PauliSum`` holds each distinct string once, with phase
0, in the order of its first occurrence, and drops exact-zero coefficients.
For a product or a bracket of two sums the occurrences are the term pairs
taken a-major (every term of b against the first term of a, then the next),
and each coefficient is accumulated in that order.

A ``PauliSum`` stores its qubit count and its canonical map
``{(x_mask, z_mask): coefficient}``, nothing else.  Every sum, product,
bracket, multiple and adjoint reads maps and returns one, through the one
accumulator ``_merged``, which checks once per sum that the union of the
masks fits.  ``PauliSum.from_masks`` builds a sum from
``(coeff, x_mask, z_mask, phase)`` terms the same way.  No string is built
until ``.terms`` or iteration reads the sum; each read then builds the
phase-0 strings.  Every string is built by the validating constructor
``PauliString(...)``, those that ``multiply`` returns included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionError, SizeError

_PAULI_CHARS = "IXZY"  # index = x_bit + 2*z_bit
_I_POWERS = tuple(1j ** k for k in range(4))


@dataclass(frozen=True)
class PauliString:
    """i**phase times a tensor product of single-qubit Paulis.

    Attributes:
        n_qubits: number of qubits the string acts on
        x_mask: bit q set when qubit q carries X or Y
        z_mask: bit q set when qubit q carries Z or Y
        phase: exponent of i, reduced mod 4
    """

    n_qubits: int
    x_mask: int
    z_mask: int
    phase: int = 0

    def __post_init__(self):
        if self.n_qubits < 0:
            raise DimensionError(f"negative qubit count {self.n_qubits}")
        full = (1 << self.n_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise DimensionError(
                f"mask exceeds {self.n_qubits} qubits: "
                f"x={self.x_mask:#x} z={self.z_mask:#x}")
        object.__setattr__(self, "phase", self.phase % 4)

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0, 0, 0)

    @classmethod
    def from_label(cls, label: str, phase: int = 0) -> "PauliString":
        """Build from a string like 'IXYZ'; qubit 0 is the leftmost character."""
        x_mask = 0
        z_mask = 0
        for q, ch in enumerate(label):
            if ch in ("X", "Y"):
                x_mask |= 1 << q
            if ch in ("Z", "Y"):
                z_mask |= 1 << q
            if ch not in "IXYZ":
                raise ValueError(f"invalid Pauli character {ch!r}")
        return cls(len(label), x_mask, z_mask, phase)

    @property
    def weight(self) -> int:
        return (self.x_mask | self.z_mask).bit_count()

    @property
    def support(self) -> int:
        return self.x_mask | self.z_mask

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def commutes_with(self, other: "PauliString") -> bool:
        _check_widths(self, other)
        sym = (self.x_mask & other.z_mask) ^ (self.z_mask & other.x_mask)
        return sym.bit_count() % 2 == 0

    def label(self) -> str:
        return _label(self.n_qubits, self.x_mask, self.z_mask)

    def __repr__(self) -> str:
        prefix = {0: "", 1: "i*", 2: "-", 3: "-i*"}[self.phase]
        return f"{prefix}{self.label()}"

    def dense(self) -> np.ndarray:
        """``dense_matrix`` of the one-term sum with coefficient i**phase."""
        return dense_matrix(PauliSum.from_masks(
            self.n_qubits, [(1, self.x_mask, self.z_mask, self.phase)]))


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Group product a*b with the exact Z4 phase.

    Each factor is rewritten in X^x Z^z order (i per Y), Z^az past X^bx
    gives (-1)^|az & bx|, and the product goes back to letter form.  That
    rule is ``_times``'s, for every product and bracket of sums; the
    factors' own phases add to it.
    """
    _check_widths(a, b)
    ((_, x, z, phase),) = _times({(a.x_mask, a.z_mask): 1},
                                 {(b.x_mask, b.z_mask): 1}, None)
    return PauliString(a.n_qubits, x, z, a.phase + b.phase + phase)


def _check_widths(a, b) -> None:
    if a.n_qubits != b.n_qubits:
        raise DimensionError(
            f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")


def _label(n_qubits: int, x_mask: int, z_mask: int) -> str:
    """Letters of qubits 0..n-1, qubit 0 leftmost."""
    return "".join(_PAULI_CHARS[((x_mask >> q) & 1) + 2 * ((z_mask >> q) & 1)]
                   for q in range(n_qubits))


def _merged(n_qubits: int, terms: Iterable[tuple[complex, int, int, int]]
            ) -> dict[tuple[int, int], complex]:
    """The canonical map of a sum: each (coeff, x_mask, z_mask, phase) adds
    coeff * i**phase to its masks' coefficient, from 0 in input order, and
    zeros are then dropped.  A mask fits exactly when the union of all of
    them does, so the fit is checked once per sum."""
    combined: dict[tuple[int, int], complex] = {}
    for coeff, x, z, phase in terms:
        key = (x, z)
        combined[key] = combined.get(key, 0) + coeff * _I_POWERS[phase & 3]
    combined = {key: c for key, c in combined.items() if c != 0}
    union = 0
    for x, z in combined:
        union |= x | z
    if union >> max(n_qubits, 0):
        raise DimensionError(f"mask exceeds {n_qubits} qubits: {union:#x}")
    return combined


def _times(a: dict, b: dict, parity: int | None):
    """The terms of ab, or with ``parity`` a bracket, term pairs a-major.

    Two Pauli strings either commute or anticommute, so each pair's ab and
    ba are equal or opposite: for ab - ba (parity 1) or ab + ba (parity 0)
    a pair whose symplectic product has that parity contributes
    2*ca*cb*(sa*sb) and any other pair cancels exactly.
    """
    b_terms = [(bx, bz, (bx & bz).bit_count(), cb) for (bx, bz), cb in b.items()]
    for (ax, az), ca in a.items():
        ya = (ax & az).bit_count()
        if parity is not None:
            ca = 2 * ca
        for bx, bz, yb, cb in b_terms:
            zx = az & bx
            if parity is not None and \
                    ((ax & bz) ^ zx).bit_count() & 1 != parity:
                continue
            x = ax ^ bx
            z = az ^ bz
            yield (ca * cb, x, z,
                   ya + yb + 2 * zx.bit_count() - (x & z).bit_count())


class PauliSum:
    """Weighted sum of Pauli strings in canonical form.

    ``masks`` is the canonical map {(x_mask, z_mask): coefficient}: every
    string has phase 0 (phases are folded into the coefficients), no two
    terms share their masks, and exact-zero coefficients are dropped.  It
    is all a sum stores besides ``n_qubits``, and is not to be mutated.
    """

    __slots__ = ("n_qubits", "masks")

    def __init__(self, n_qubits: int, terms: Iterable[tuple[complex, PauliString]] = ()):
        items = []
        for coeff, string in terms:
            if string.n_qubits != n_qubits:
                raise DimensionError(
                    f"term acts on {string.n_qubits} qubits, sum on {n_qubits}")
            items.append((coeff, string.x_mask, string.z_mask, string.phase))
        self.n_qubits = n_qubits
        self.masks = _merged(n_qubits, items)

    @classmethod
    def from_string(cls, coeff: complex, string: PauliString) -> "PauliSum":
        return cls(string.n_qubits, [(coeff, string)])

    @classmethod
    def from_masks(cls, n_qubits: int,
                   terms: Iterable[tuple[complex, int, int, int]]
                   ) -> "PauliSum":
        """The canonical sum of (coeff, x_mask, z_mask, phase) terms, each
        coeff * i**phase times the phase-0 string of its masks."""
        out = cls.__new__(cls)
        out.n_qubits = n_qubits
        out.masks = _merged(n_qubits, terms)
        return out

    @property
    def terms(self) -> tuple[tuple[complex, PauliString], ...]:
        """(coefficient, phase-0 string) pairs in canonical order, the
        strings built on each read."""
        n = self.n_qubits
        return tuple((c, PauliString(n, x, z))
                     for (x, z), c in self.masks.items())

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self):
        return iter(self.terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        _check_widths(self, other)
        return PauliSum.from_masks(self.n_qubits, [
            (c, x, z, 0)
            for (x, z), c in (*self.masks.items(), *other.masks.items())])

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1) * other

    def __rmul__(self, scalar: complex) -> "PauliSum":
        return PauliSum.from_masks(self.n_qubits, [
            (scalar * c, x, z, 0) for (x, z), c in self.masks.items()])

    def __mul__(self, other: "PauliSum") -> "PauliSum":
        return _products(self, other, None)

    def adjoint(self) -> "PauliSum":
        # stored strings are phase-free hence Hermitian
        return PauliSum.from_masks(self.n_qubits, [
            (c.conjugate(), x, z, 0) for (x, z), c in self.masks.items()])

    def is_hermitian(self) -> bool:
        return all(c.imag == 0 for c in self.masks.values())

    def commutes_with(self, other: "PauliSum") -> bool:
        _check_widths(self, other)
        return all(((ax & bz) ^ (az & bx)).bit_count() % 2 == 0
                   for ax, az in self.masks for bx, bz in other.masks)

    def __repr__(self) -> str:
        if not self.masks:
            return f"PauliSum({self.n_qubits}, 0)"
        return " + ".join(f"({c:g})*{_label(self.n_qubits, x, z)}"
                          for (x, z), c in self.masks.items())


def commutator_sum(a: PauliSum, b: PauliSum) -> PauliSum:
    """ab - ba in canonical form; empty when every term pair commutes."""
    return _products(a, b, 1)


def anticommutator_sum(a: PauliSum, b: PauliSum) -> PauliSum:
    """ab + ba in canonical form; empty when every term pair anticommutes."""
    return _products(a, b, 0)


def _products(a: PauliSum, b: PauliSum, parity: int | None) -> PauliSum:
    _check_widths(a, b)
    return PauliSum.from_masks(a.n_qubits, _times(a.masks, b.masks, parity))


# most qubits dense_matrix builds; its output is all it allocates that big
MAX_DENSE_QUBITS = 14


def dense_matrix(p: PauliSum) -> np.ndarray:
    """Exact dense matrix of a PauliSum under the cap, from the masks alone:
    (x, z) -> c adds c i**|x & z| (-1)**|j & z| at (j ^ x, j) for each j."""
    if p.n_qubits > MAX_DENSE_QUBITS:
        raise SizeError(
            f"{p.n_qubits} qubits exceeds dense cap {MAX_DENSE_QUBITS}")
    dim = 1 << p.n_qubits
    cols = np.arange(dim, dtype=np.int64)
    mat = np.zeros((dim, dim), dtype=complex)
    for (x, z), coeff in p.masks.items():
        signs = np.where(np.bitwise_count(cols & z) & 1, -1.0, 1.0)
        mat[cols ^ x, cols] += coeff * (
            _I_POWERS[(x & z).bit_count() & 3] * signs)
    return mat

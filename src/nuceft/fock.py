"""Exact fermionic brute-force backend.

Number-preserving fermionic operators (NPFOs) are ordered products of
creation, annihilation and number factors on labeled modes with a scalar
weight, with equal counts of creations and annihilations.  This module
normal-orders arbitrary ladder products into canonical NPFOs, computes
commutators symbolically, and builds dense matrices restricted to the
fixed-particle-number (eta) sector for semi-norms and exact product-formula
errors.  It is the independent oracle behind every derived value.

Canonical output: a ``FermionSum`` holds each distinct factor tuple once, in
the order of its first occurrence, and drops exact-zero weights.  A product
normal-orders into the terms its rewrite reaches; a commutator takes its
term pairs a-major (every term of b against the first term of a, then the
next) and adds each pair's ab, then its -ba, product by product in that
order.

The oracle is exact per conserved block.  Every mode group joined by the
ladder factors of some term keeps its occupation count, so the eta sector
splits into blocks labelled by per-group counts (the four species counts
for pionless layers).  Semi-norms and evolution errors are the largest over
the blocks, computed with stacked linear algebra over blocks of equal size.
Symmetric blocks are computed once per orbit, in two steps.  First, two
mode groups of equal size are swapped mode by mode in order; a swap that
maps every input sum to itself (term by term, with the fermionic sign of
the re-sort and bit-equal weights) joins the two groups into one orbit, and
a pair already in one orbit is not tried.  Any permutation of the counts
of one orbit's groups gives a block of the same spectrum and the same
product-formula error, so, second, only the blocks whose counts do not
increase along each orbit are built: a walk takes the orbits one at a time,
keyed by the particles placed so far, and gives each orbit's groups every
non-increasing run of counts that the later orbits can fill up to eta.  For
the pionless layers at eta=3 on three or more sites that is 3 of the 20
blocks.

Every matrix is assembled in one vectorized pass per sum.  The sum becomes
one table of per-term masks and weights, checked once for number
preservation and finite weights.  Its Jordan-Wigner string folds into one
image mask and one sign mask per term: a term maps a state s to s ^ flip
with the sign (-1)^(popcount(s & sign) + odd), where ``sign`` XORs the
masks below the term's ladder modes and ``odd`` is the parity that the
earlier flips add, so a hit costs one XOR and one popcount.  The
(term, state) hits are found term-major in chunks of about 2^20 pairs,
which bounds the temporaries, and added in term order, so each entry sums
its terms in the order a term-by-term loop would.  A layer of number
factors alone is diagonal, and is exponentiated entry by entry with no
eigendecomposition.

Between calls the oracle keeps one memo, keyed on content: eta and each
sum's mode count and terms (a tuple of frozen terms, so a sum whose terms
are reassigned is a new input).  For each input it keeps what depends on
neither t, p nor r: the term tables, the orbit-reduced block layout (its
states, each state's place in its block and the stacks of equal-size
blocks) and, once exact_evolution_error asks, per stack the eigensystems of
each layer and of their sum, found with each layer's hermiticity check.
The kept arrays are read-only.  Each input is charged the bytes of its
arrays and of its Python objects, key and terms included, and the kept
inputs together hold at most 16 * MAX_BLOCK**2 bytes, as much as MAX_BLOCK**2
complex entries; the least recently used input goes first.  A hit hashes
the terms of its key once.  A call that raises leaves the memo as it was,
and an input alone over that bound is not kept.
No value is kept: each call builds its own block buffer, or its own
phases, step product and power, and takes its own norms.

Occupation convention: bit i of a basis integer is the occupation of mode i,
and ladder operators pick up the sign (-1)^(number of occupied modes below i),
matching the Jordan-Wigner string direction used by the encodings module.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from cmath import isfinite
from itertools import combinations_with_replacement
from math import comb, prod
from typing import Iterable, NamedTuple, Sequence

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
        _check_kinds(self.factors)
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
            _merge(acc, _ordered(conj, t.weight.conjugate()))
        return _from_weights(self.n_modes, acc)

    def __repr__(self) -> str:
        return " + ".join(repr(t) for t in self.terms) if self.terms else "0"


def _expand_numbers(factors: Sequence[Factor]) -> list[Factor]:
    out: list[Factor] = []
    for m, k in factors:
        if k == NUMBER:
            out.append((m, CREATE))
            out.append((m, ANNIHILATE))
        else:
            out.append((m, k))
    return out


def _check_kinds(factors: Iterable[Factor]) -> None:
    for _, k in factors:
        if k not in _KIND_ORDER:
            raise ValueError(f"unknown factor kind {k!r} (expected "
                             f"{CREATE!r}, {ANNIHILATE!r} or {NUMBER!r})")


def normal_order(factors: Sequence[Factor], weight: float = 1.0,
                 n_modes: int | None = None) -> FermionSum:
    """Rewrite an arbitrary ladder/number product as canonical FermionTerms.

    Uses {a(i), a+(j)} = delta_ij and a(i)a(i) = a+(i)a+(i) = 0, then folds
    matched a+(i)...a(i) pairs into number factors.
    """
    if n_modes is None:
        n_modes = 1 + max((m for m, _ in factors), default=-1)
        n_modes = max(n_modes, 0)
    _check_kinds(factors)
    for m, _ in factors:
        if not 0 <= m < n_modes:
            raise ValueError(f"mode {m} outside universe of {n_modes}")
    return _from_weights(n_modes, _ordered(tuple(_expand_numbers(factors)),
                                           weight))


def _ordered(fs: tuple[Factor, ...], weight: float
             ) -> dict[tuple[Factor, ...], float]:
    """{canonical factors: weight} of weight times a product of ladder
    factors, keyed in the order the rewrite first reaches each term."""
    acc: dict[tuple[Factor, ...], float] = {}
    stack: list[tuple[float, tuple[Factor, ...]]] = [(weight, fs)]
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
    return acc


def _merge(acc: dict[tuple[Factor, ...], float],
           part: dict[tuple[Factor, ...], float]) -> None:
    """Add the non-zero weights of one ordered product into ``acc``."""
    for f, w in part.items():
        if w != 0.0:
            acc[f] = acc.get(f, 0.0) + w


def _from_weights(n_modes: int, acc: dict[tuple[Factor, ...], float]) -> FermionSum:
    """The canonical sum of accumulated weights, built once.  The keys are
    unique and their modes lie in the universe, so each term is validated
    once, by its own construction."""
    out = FermionSum.__new__(FermionSum)
    out.n_modes = n_modes
    out.terms = tuple(FermionTerm(w, f) for f, w in acc.items() if w != 0.0)
    return out


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


def _prepared(term: FermionTerm) -> tuple[float, tuple[Factor, ...], int, bool]:
    """A term's weight, ladder expansion, support mask, and whether it has
    an odd number of ladder factors."""
    support = 0
    for m, _ in term.factors:
        support |= 1 << m
    odd = sum(k != NUMBER for _, k in term.factors) % 2 == 1
    return term.weight, tuple(_expand_numbers(term.factors)), support, odd


def fermion_commutator(a: FermionSum, b: FermionSum) -> FermionSum:
    """[a, b] in canonical form; NPFO when a and b are NPFOs."""
    n = max(a.n_modes, b.n_modes)
    b_terms = [_prepared(tb) for tb in b.terms]
    acc: dict[tuple[Factor, ...], float] = {}
    for ta in a.terms:
        wa, fa, support_a, odd_a = _prepared(ta)
        for wb, fb, support_b, odd_b in b_terms:
            if not support_a & support_b and not (odd_a and odd_b):
                continue  # disjoint supports commute unless both terms are odd
            w = wa * wb
            _merge(acc, _ordered(fa + fb, w))
            _merge(acc, _ordered(fb + fa, -w))
    return _from_weights(n, acc)


# sector matrices, block by block

# largest block the oracle diagonalizes; the blocks of one call together
# hold at most MAX_BLOCK**2 entries, and all the oracle keeps between calls
# at most the bytes of as many complex entries
MAX_BLOCK = 4096


def _subsets(modes: int, eta: int) -> np.ndarray:
    """The masks of eta of the modes set in ``modes``, ascending, as
    uint64."""
    bits = _bits(modes)
    empty = np.zeros(0, dtype=np.uint64)
    # masks over the modes seen so far, by popcount; a mask with the new
    # mode set exceeds every mask without it, so concatenation stays sorted
    level = {0: np.zeros(1, dtype=np.uint64)}
    for i, m in enumerate(bits):
        bit = np.uint64(1 << m)
        level = {e: np.concatenate((level.get(e, empty),
                                    level.get(e - 1, empty) | bit))
                 for e in range(max(0, eta - (len(bits) - 1 - i)),
                                min(eta, i + 1) + 1)}
    return level.get(eta, empty)


def _sector_states(n_modes: int, eta: int) -> np.ndarray:
    """Occupation masks with popcount eta, ascending, as uint64."""
    _check_width(n_modes)
    return _subsets((1 << n_modes) - 1, eta)


@dataclass(frozen=True)
class EtaSector:
    """Enumeration of occupation bit patterns with popcount == eta."""

    n_modes: int
    eta: int
    basis: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if not 0 <= self.eta <= self.n_modes:
            raise ValueError(f"eta={self.eta} outside [0, {self.n_modes}]")
        object.__setattr__(self, "basis", tuple(
            _sector_states(self.n_modes, self.eta).tolist()))

    @property
    def dim(self) -> int:
        return len(self.basis)


class _Terms(NamedTuple):
    """A sum as one table, a row per term: the modes a state must have
    occupied and those it must have empty, its ladder modes, its sign mask
    and parity, and its weight.  A term maps a state s it does not
    annihilate to s ^ flip with the Jordan-Wigner sign
    (-1)^(popcount(s & sign) + odd).  Ladder factor j acts, right to left,
    on s ^ F_j, F_j the modes flipped before it, and popcount(a ^ b) has
    the parity of popcount(a) + popcount(b); so ``sign`` is the XOR of the
    ladder modes' ``bit - 1`` masks and ``odd`` is the parity of the sum
    over j of popcount(F_j & (bit_j - 1))."""

    need: np.ndarray     # (terms,) modes to be occupied
    care: np.ndarray     # (terms,) modes to be occupied or empty
    flip: np.ndarray     # (terms,) ladder modes
    sign: np.ndarray     # (terms,) modes whose occupation sets the sign
    odd: np.ndarray      # (terms,) uint8 parity the flips add to the sign
    weights: np.ndarray  # (terms,) float, or complex if any weight is


def _check_width(n_modes: int) -> None:
    if n_modes > 64:
        raise SizeError(f"{n_modes} modes exceeds the 64-bit occupation mask")


def _terms(h: FermionSum) -> _Terms:
    """The table of h; a term that does not preserve the particle number,
    or has a non-finite weight, is refused."""
    _check_width(h.n_modes)
    need, care, flips, signs, odds, weights = [], [], [], [], [], []
    for term in h.terms:
        occupied = vacant = balance = flip = sign = odd = 0
        for m, k in reversed(term.factors):
            bit = 1 << m
            if k == CREATE:
                vacant |= bit
                balance += 1
            else:
                occupied |= bit
                if k == ANNIHILATE:
                    balance -= 1
            if k != NUMBER:
                odd += (flip & (bit - 1)).bit_count()
                flip ^= bit
                sign ^= bit - 1
        if balance:
            raise ValueError("term does not preserve particle number")
        if not isfinite(term.weight):
            raise ValueError(f"term {term!r} has a non-finite weight")
        need.append(occupied)
        care.append(occupied | vacant)
        flips.append(flip)
        signs.append(sign)
        odds.append(odd & 1)
        weights.append(term.weight)
    weights = np.array(weights)
    return _Terms(*(np.array(column, dtype=np.uint64)
                    for column in (need, care, flips, signs)),
                  np.array(odds, dtype=np.uint8),
                  weights if weights.dtype.kind == "c" else
                  weights.astype(float))


# (term, state) pairs tested at once, which bounds the temporaries
_CHUNK = 1 << 20


def _accumulate(out: np.ndarray, table: _Terms, states: np.ndarray,
                place) -> None:
    """Add every term of the table into the flat array ``out``.

    Each state a term does not annihilate goes to its image with the sign
    the table's masks give; ``place(rows, cols)`` maps the positions in
    ``states`` of an image and its source to an index of ``out``.  The hits
    are taken term-major and added in that order, so each entry sums its
    terms in term order."""
    step = max(1, _CHUNK // max(len(states), 1))
    for lo in range(0, len(table.weights), step):
        hi = lo + step
        term, cols = np.nonzero(
            (states & table.care[lo:hi, None]) == table.need[lo:hi, None])
        term += lo
        source = states[cols]
        parity = np.bitwise_count(source & table.sign[term]) ^ table.odd[term]
        rows = np.searchsorted(states, source ^ table.flip[term])
        hits = (1.0 - 2.0 * (parity & 1)) * table.weights[term]
        # in out's dtype: numpy adds mixed dtypes on a slower path
        np.add.at(out, place(rows, cols), hits.astype(out.dtype, copy=False))


def sector_matrix(h: FermionSum, sector: EtaSector) -> np.ndarray:
    """Dense matrix of h restricted to the eta sector (particle-number block)."""
    states = np.array(sector.basis, dtype=np.uint64)
    dim = sector.dim
    mat = np.zeros((dim, dim), dtype=complex)
    _accumulate(mat.reshape(-1), _terms(h), states,
                lambda rows, cols: rows * dim + cols)
    return mat


def _mode_groups(n_modes: int, tables: Sequence[_Terms]) -> tuple[int, ...]:
    """Masks of the groups of modes joined by the ladder factors of any one
    term, by lowest mode.  Each term of an NPFO sum keeps every group's
    occupation count."""
    groups = [1 << m for m in range(n_modes)]
    for ladder in set().union(*(table.flip.tolist() for table in tables)):
        joined = [g for g in groups if g & ladder]
        if len(joined) > 1:
            groups = [g for g in groups if not g & ladder]
            groups.append(sum(joined))  # disjoint masks: the sum is the union
    return tuple(sorted(groups, key=lambda g: g & -g))


def _bits(mask: int) -> list[int]:
    return [m for m in range(mask.bit_length()) if mask >> m & 1]


def _swap_invariant(masks: np.ndarray, weights: np.ndarray,
                    a: int, b: int) -> bool:
    """Whether swapping mode groups a and b, the k-th mode of one with the
    k-th mode of the other, maps the sum to itself.  A mapped term re-sorts
    its creations and its annihilations and takes the sign of those sorts;
    its weight must equal the weight of the term it lands on exactly."""
    image = {m: m for m in range(max(a, b).bit_length())}
    for ma, mb in zip(_bits(a), _bits(b)):
        image[ma], image[mb] = mb, ma
    mapped = masks & ~np.uint64(a | b)
    for m, to in image.items():
        if m != to:
            mapped |= ((masks >> np.uint64(m)) & 1) << np.uint64(to)
    here = np.lexsort(masks[::-1])
    there = np.lexsort(mapped[::-1])
    if not np.array_equal(masks[:, here], mapped[:, there]):
        return False
    # the sorts' inversions: pairs m < m2 of a term's creations (or its
    # annihilations) whose images fall the other way round
    parity = np.zeros(masks.shape[1], dtype=np.uint64)
    for m, to in image.items():
        later = sum(1 << m2 for m2, to2 in image.items() if m2 > m and to2 < to)
        if later:
            for row in masks[:2]:
                parity += ((row >> np.uint64(m)) & 1) * \
                    np.bitwise_count(row & np.uint64(later))
    return np.array_equal(weights[here],
                          (1.0 - 2.0 * (parity & 1))[there] * weights[there])


def _orbits(groups: tuple[int, ...], tables: Sequence[_Terms]
            ) -> tuple[tuple[int, ...], ...]:
    """The orbits of the mode groups under the swaps of two equal-size
    groups that map every sum to itself, each orbit ascending.  Each group
    is tried against the nearest earlier group first; a pair already in one
    orbit is not tried, since the swaps found compose to swap it."""
    # each term's creation, annihilation and number modes
    sums = [(np.stack((t.care & ~t.need, t.need & t.flip, t.need & ~t.flip)),
             t.weights) for t in tables]
    orbit = list(range(len(groups)))  # each group's orbit, as a group in it
    for j, b in enumerate(groups):
        for i in range(j - 1, -1, -1):
            a = groups[i]
            if a.bit_count() != b.bit_count() or orbit[i] == orbit[j]:
                continue
            if all(_swap_invariant(masks, weights, a, b)
                   for masks, weights in sums):
                old = orbit[j]
                orbit = [orbit[i] if o == old else o for o in orbit]
    return tuple(sorted({tuple(g for g in range(len(groups)) if orbit[g] == o)
                         for o in orbit}))


def _walk(sizes: Sequence[int], orbits: Sequence[tuple[int, ...]], eta: int):
    """Per orbit, in order, the orbit and the moves of a walk over one block
    per orbit of the eta sector: (particles before, particles after, the
    orbit's per-group counts).  A block's counts do not increase along each
    orbit; a move that the later orbits cannot fill up to eta is left out."""
    totals = [0]
    room = sum(sizes)  # modes in the orbits not yet walked
    for orbit in orbits:
        size = sizes[orbit[0]]
        room -= size * len(orbit)
        moves = []
        for total in totals:
            for counts in combinations_with_replacement(
                    range(min(size, eta - total), -1, -1), len(orbit)):
                n = total + sum(counts)
                if n <= eta <= n + room:
                    moves.append((total, n, counts))
        totals = sorted({n for _, n, _ in moves})
        yield orbit, moves


def _block_sizes(sizes: Sequence[int], orbits: Sequence[tuple[int, ...]],
                 eta: int) -> tuple[int, int]:
    """Largest block dimension and summed squared block dimensions of one
    block per orbit of the eta sector, from the group sizes alone."""
    level = {0: (1, 1)}  # particles so far: (largest, squares)
    for orbit, moves in _walk(sizes, orbits, eta):
        grown: dict = {}
        for total, n, counts in moves:
            largest, squares = level[total]
            dim = prod(comb(sizes[g], k) for g, k in zip(orbit, counts))
            big, sq = grown.get(n, (0, 0))
            grown[n] = (max(big, largest * dim), sq + squares * dim * dim)
        level = grown
    return level[eta]


def _orbit_states(groups: Sequence[int], orbits: Sequence[tuple[int, ...]],
                  eta: int) -> np.ndarray:
    """The states of one block per orbit of the eta sector, ascending, as
    uint64; each group's share of a state is a subset of its modes."""
    level = {0: np.zeros(1, dtype=np.uint64)}  # particles so far: states
    for orbit, moves in _walk([g.bit_count() for g in groups], orbits, eta):
        grown: dict = {}
        for total, n, counts in moves:
            states = level[total]
            for g, k in zip(orbit, counts):
                states = (states[:, None] | _subsets(groups[g], k)).ravel()
            grown.setdefault(n, []).append(states)
        level = {n: np.concatenate(parts) for n, parts in grown.items()}
    return np.sort(level[eta])


class _Blocks(NamedTuple):
    """One block of conserved per-group counts per orbit of the eta sector.

    Blocks are laid out in one flat buffer, ordered by dimension, each
    block a row-major d x d matrix over its states in ascending order.
    The arrays are kept between calls, so they are read-only.
    """

    states: np.ndarray    # the blocks' states, ascending
    row_base: np.ndarray  # buffer offset of each state's row in its block
    local: np.ndarray     # each state's index within its block
    stacks: tuple[tuple[int, int, int], ...]  # (offset, blocks, dim)
    size: int             # buffer entries


def _layout(n_modes: int, groups: tuple[int, ...],
            orbits: tuple[tuple[int, ...], ...], eta: int) -> _Blocks:
    """The block layout of the eta sector for these mode groups and orbits.
    Only the blocks whose counts do not increase along each orbit are laid
    out; a layout over the cap is refused before it is enumerated."""
    sizes = [g.bit_count() for g in groups]
    largest, squares = _block_sizes(sizes, orbits, eta)
    if largest > MAX_BLOCK or squares > MAX_BLOCK ** 2:
        raise SizeError(f"eta={eta} sector has a block of {largest} states "
                        f"and {squares} block entries; the oracle cap is "
                        f"{MAX_BLOCK} states and {MAX_BLOCK ** 2} entries")
    states = _orbit_states(groups, orbits, eta)
    key = np.zeros_like(states)  # per-group counts, packed
    shift = 0
    for group, size in zip(groups, sizes):
        key |= np.bitwise_count(states & np.uint64(group)) << np.uint64(shift)
        shift += size.bit_length()
    _, block, dims = np.unique(key, return_inverse=True, return_counts=True)
    # renumber the blocks by dimension, so that equal sizes are adjacent
    by_dim = np.argsort(dims, kind="stable")
    block = np.argsort(by_dim)[block.ravel()]
    dims = dims[by_dim]
    # each state's index within its block, the block's states ascending
    local = np.empty(len(states), dtype=np.intp)
    local[np.argsort(block, kind="stable")] = np.arange(len(states)) - \
        np.repeat(np.cumsum(dims) - dims, dims)
    offsets = np.cumsum(dims ** 2) - dims ** 2
    dim_values, first, counts = np.unique(dims, return_index=True,
                                          return_counts=True)
    row_base = offsets[block] + local * dims[block]
    return _Blocks(states, row_base, local,
                   tuple(zip(offsets[first].tolist(), counts.tolist(),
                             dim_values.tolist())), int(squares))


class _Input(NamedTuple):
    """What the oracle derives from one input, none of which depends on t,
    p or r: the tables of the sums, the block layout that their groups and
    the orbits of those give the eta sector and, once exact_evolution_error
    asks, per stack of equal-size blocks the eigensystem (values, vectors)
    of the summed sums and one per sum.  Every array is read-only."""

    tables: tuple[_Terms, ...]
    blocks: _Blocks
    spectra: tuple | None  # ((whole, (part, ...)), ...) per stack
    nbytes: int            # bytes held, key included


class _Key:
    """The memo key of an input: eta and each sum's mode count and terms.
    The terms hash in Python, term by term, so the hash is taken once."""

    __slots__ = ("parts", "hash")

    def __init__(self, sums: Sequence[FermionSum], eta: int):
        self.parts = (eta, tuple((h.n_modes, h.terms) for h in sums))
        self.hash = hash(self.parts)

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other) -> bool:
        return isinstance(other, _Key) and self.parts == other.parts


# the inputs of recent calls in insertion order: the least recently used
# first
_KEPT: dict[_Key, _Input] = {}


def _frozen(arrays: Iterable[np.ndarray]) -> None:
    """Make the arrays read-only, as kept arrays are."""
    for a in arrays:
        a.flags.writeable = False


def _footprint(*roots) -> int:
    """Bytes of the objects reachable from ``roots`` through keys, tuples,
    the fields of terms and the bases of arrays, each counted once."""
    seen = set()
    total = 0
    todo = list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, tuple):
            todo.extend(obj)
        elif isinstance(obj, _Key):
            todo.append(obj.parts)
        elif isinstance(obj, FermionTerm):
            fields = vars(obj)
            total += sys.getsizeof(fields)
            todo.extend(fields.values())
        elif isinstance(obj, np.ndarray) and obj.base is not None:
            todo.append(obj.base)
    return total


def _derived(sums: Sequence[FermionSum], eta: int) -> tuple[_Key, _Input]:
    """The memo key of an input and what the memo keeps for it, derived now
    if it keeps nothing.  The memo is left as it was."""
    key = _Key(sums, eta)
    kept = _KEPT.get(key)
    if kept is None:
        n_modes = max(h.n_modes for h in sums)
        if not 0 <= eta <= n_modes:
            raise ValueError(f"eta={eta} outside [0, {n_modes}]")
        tables = tuple(_terms(h) for h in sums)
        groups = _mode_groups(n_modes, tables)
        blocks = _layout(n_modes, groups, _orbits(groups, tables), eta)
        _frozen([*(a for table in tables for a in table),
                 blocks.states, blocks.row_base, blocks.local])
        kept = _Input(tables, blocks, None, 0)
        kept = kept._replace(nbytes=_footprint(key, kept))
    return key, kept


def _keep(key: _Key, kept: _Input) -> None:
    """Keep an input as the most recently used; while the kept inputs hold
    more than 16 * MAX_BLOCK**2 bytes in all, the least recently used goes.
    An input alone over that is not kept and drops nothing."""
    budget = 16 * MAX_BLOCK ** 2
    if kept.nbytes > budget:
        return
    new = _KEPT.pop(key, None) is not kept
    _KEPT[key] = kept
    while new and sum(k.nbytes for k in _KEPT.values()) > budget:
        del _KEPT[next(iter(_KEPT))]


def _block_buffer(table: _Terms, blocks: _Blocks) -> np.ndarray:
    """Every block matrix of a sum's table, flat in the layout of
    ``blocks``."""
    buf = np.zeros(blocks.size, dtype=complex)
    _accumulate(buf, table, blocks.states,
                lambda rows, cols: blocks.row_base[rows] + blocks.local[cols])
    return buf


def _stacks(buf: np.ndarray, blocks: _Blocks) -> list[np.ndarray]:
    """The blocks of one flat buffer as (k, d, d) stacks, one per d."""
    return [buf[off:off + k * d * d].reshape(k, d, d)
            for off, k, d in blocks.stacks]


def _norm(stack: np.ndarray) -> float:
    """Largest spectral norm over a stack of matrices."""
    return float(np.linalg.svd(stack, compute_uv=False)[:, 0].max())


def eta_seminorm(h: FermionSum, eta: int) -> float:
    """Largest singular value of h projected into the eta-fermion sector,
    over one block per orbit of the group swaps that map h to itself."""
    key, kept = _derived([h], eta)
    _keep(key, kept)
    (table,) = kept.tables
    buf = _block_buffer(table, kept.blocks)
    return max(_norm(stack) for stack in _stacks(buf, kept.blocks))


def _phases(vals: np.ndarray, vecs: np.ndarray | None, t: float
            ) -> np.ndarray:
    """exp(-itM) of a stack of Hermitian matrices M from their eigenvalues
    and eigenvectors; with no vectors, M is diagonal and ``vals`` holds its
    diagonal, and each entry takes its phase."""
    phase = np.exp(-1j * t * vals)
    if vecs is None:
        out = np.zeros(vals.shape + vals.shape[-1:], dtype=complex)
        diag = np.arange(vals.shape[-1])
        out[..., diag, diag] = phase
        return out
    return (vecs * phase[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _with_spectra(kept: _Input) -> _Input:
    """The input with its eigensystems, a number-only sum's as its diagonal
    and no vectors.  Each sum is checked for hermiticity."""
    total = 0
    per_layer = []
    for table in kept.tables:
        buf = _block_buffer(table, kept.blocks)
        # the blocks laid out stand for their orbits, since every layer
        # maps to itself under the swaps that join them
        stacks = _stacks(buf, kept.blocks)
        for stack in stacks:
            if not np.allclose(stack, stack.conj().swapaxes(-1, -2),
                               atol=1e-12):
                raise ContractError("layer is not Hermitian in the eta sector")
        if not table.flip.any():
            per_layer.append([(np.diagonal(stack, 0, -2, -1).real.copy(),
                               None) for stack in stacks])
        else:
            per_layer.append([tuple(np.linalg.eigh(stack))
                              for stack in stacks])
        # from 0, as sum() adds: the first layer makes a new buffer, and
        # the rest add into it in layer order
        total += buf
    spectra = tuple(zip((tuple(np.linalg.eigh(stack))
                         for stack in _stacks(total, kept.blocks)),
                        zip(*per_layer)))
    _frozen(a for whole, parts in spectra for pair in (whole, *parts)
            for a in pair if a is not None)
    return kept._replace(spectra=spectra,
                         nbytes=kept.nbytes + _footprint(spectra))


def exact_evolution_error(layers: Sequence[FermionSum], t: float, p: int,
                          r: int, eta: int) -> float:
    """Spectral norm of exp(-itH) - P_p(t/r)^r restricted to the eta sector,
    the largest over the blocks of conserved per-group counts, one block per
    orbit of the group swaps that map every layer to itself.  A layer of
    number factors alone is diagonal and exponentiated entry by entry."""
    if p not in (1, 2):
        raise ValueError(f"order p={p} not supported by the oracle")
    if r < 1:
        raise ValueError("step count r must be >= 1")
    if not isfinite(t):
        raise ValueError(f"time t={t} is not finite")
    if not layers:
        raise ValueError("layers is empty; the oracle needs at least one")
    key, kept = _derived(layers, eta)
    if kept.spectra is None:
        kept = _with_spectra(kept)
    _keep(key, kept)
    dt = t / r
    worst = 0.0
    for whole, parts in kept.spectra:
        exact = _phases(*whole, t)
        if p == 1:
            factors = [_phases(*part, dt) for part in parts]
        else:
            half = [_phases(*part, dt / 2) for part in parts]
            factors = half + half[::-1]
        step = factors[0]
        for u in factors[1:]:
            step = step @ u
        worst = max(worst, _norm(exact - np.linalg.matrix_power(step, r)))
    return worst

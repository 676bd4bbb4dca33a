"""Exact fermionic brute-force backend.

Number-preserving fermionic operators (NPFOs) are ordered products of
creation, annihilation and number factors on labeled modes with a scalar
weight, with equal counts of creations and annihilations.  This module
normal-orders arbitrary ladder products into canonical NPFOs, computes
commutators symbolically, and builds dense matrices restricted to the
fixed-particle-number (eta) sector for semi-norms and exact product-formula
errors.  It is the independent oracle behind every derived value.

Canonical output: a ``FermionSum`` holds each distinct factor tuple once, in
the order of its first occurrence, and drops exact-zero weights.  Every
product is first its action on occupation states (``_Action``, composed
factor by factor).  Its terms are its creations, annihilations and numbers
times 1 - N(h) for each hole h, a mode it needs empty and leaves so, one
term per subset of the holes.  The subsets come number-carrying first,
with the hole whose last creation factor comes first as the most
significant bit (ascending modes in a product of two canonical terms):
the order in which a rewrite by adjacent swaps first reaches them.  An
adjoint reads each term's action backwards; a commutator takes its term
pairs a-major (every term of b against the first term of a, then the next)
and adds each pair's ab, then its -ba, in that order.

The oracle is exact per conserved block.  Every mode group joined by the
ladder factors of some term keeps its occupation count, so the eta sector
splits into blocks labelled by per-group counts (the four species counts
for pionless layers).  Semi-norms and evolution errors are the largest over
the blocks, computed with stacked linear algebra over blocks of equal size.
Symmetric blocks are computed once per orbit, in two steps.  First, two
mode groups of equal size are swapped mode by mode in order.  Each term's
image is the product of its moved factors, re-sorted by the algebra above
(``_action``, then ``_expand``, which carries the sign of the re-sort); a
swap that maps every term of every input sum to a term of that sum with
exactly its weight joins the two groups into one orbit, and a pair already
in one orbit is not tried.  Any permutation of the counts
of one orbit's groups gives a block of the same spectrum and the same
product-formula error, so, second, only the blocks whose counts do not
increase along each orbit are built: a walk takes the orbits one at a time,
keyed by the particles placed so far, and gives each orbit's groups every
non-increasing run of counts that the later orbits can fill up to eta.  For
the pionless layers at eta=3 on three or more sites that is 3 of the 20
blocks.

Every matrix is assembled in one vectorized pass per sum, by one assembler
into a flat buffer of blocks; the dense sector matrix is its one-block
case, the whole sector as one block.  The sum becomes one table of the
terms' actions and weights, checked once for number preservation and
finite weights.  A term maps a state s to s ^ flip with the sign
(-1)^(popcount(s & sign) + odd), where ``sign`` XORs the masks below the
term's ladder modes and ``odd`` is the parity that the earlier flips add,
so a hit costs one XOR and one popcount.  The (term, state) hits are
found term-major in chunks of about 2^20 pairs, which bounds the
temporaries, and added in term order, so each entry sums its terms in the
order a term-by-term loop would.  Every matrix takes the dtype of its
table's weights: float64 when all of them are real (every pionless layer),
complex128 when any is complex.  The eigensystems, the norms and the
hermiticity check then run on real or complex kernels to match, and a sum
of real and complex layers is complex.  A layer of number factors alone is
diagonal, and is exponentiated entry by entry with no eigendecomposition.

Between calls the oracle keeps one memo, keyed on content: eta and each
sum's mode count and terms (a tuple of frozen terms, so a sum whose terms
are reassigned is a new input).  For each input it keeps what depends on
neither t, p nor r: the term tables, the orbit-reduced block layout (its
states, each state's place in its block and the stacks of equal-size
blocks) and, once exact_evolution_error asks, per stack the eigensystems of
each layer and of their sum, found with each layer's hermiticity check.
The kept arrays are read-only.  Each input is charged the bytes of its
arrays and of its Python objects, key and terms included, and the kept
inputs together hold at most 16 * MAX_BLOCK**2 bytes (256 MiB); the least
recently used input goes first.  A hit hashes the terms of its key once.  A
call that raises leaves the memo as it was, and an input alone over that
bound is not kept.
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

from .errors import ContractError, SizeError, check_count

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
            x = _action(t.factors)
            # the same map read backwards: s ^ flip goes to s with the sign
            # s had, whose mask reads popcount(flip & sign) more on s ^ flip
            _expand(x._replace(need=x.need ^ x.flip,
                               odd=x.odd ^ (x.flip & x.sign).bit_count() & 1),
                    t.weight.conjugate(), acc)
        return _from_weights(self.n_modes, acc)

    def __repr__(self) -> str:
        return " + ".join(repr(t) for t in self.terms) if self.terms else "0"


def _check_kinds(factors: Iterable[Factor]) -> None:
    for _, k in factors:
        if k not in _KIND_ORDER:
            raise ValueError(f"unknown factor kind {k!r} (expected "
                             f"{CREATE!r}, {ANNIHILATE!r} or {NUMBER!r})")


class _Action(NamedTuple):
    """What a product of factors does to an occupation state s: it keeps
    the states with (s & care) == need, maps each to s ^ flip and signs it
    (-1)^(popcount(s & sign) + odd).  A ladder factor on mode m flips bit m
    with the sign of the occupied modes below it; a number factor keeps the
    states with m occupied."""

    need: int  # modes to be occupied
    care: int  # modes to be occupied or empty
    flip: int  # modes flipped
    sign: int  # modes whose occupation sets the sign
    odd: int   # parity added to the sign


def _factor_action(m: int, k: str) -> _Action:
    bit = 1 << int(m)
    if k == NUMBER:
        return _Action(bit, bit, 0, 0, 0)
    return _Action(bit if k == ANNIHILATE else 0, bit, bit, bit - 1, 0)


def _compose(x: _Action, y: _Action) -> _Action | None:
    """x after y, or None when no state survives both.  y flips what x
    reads: x keeps s ^ y.flip when (s & x.care) == x.need ^ (y.flip &
    x.care), and its sign on s ^ y.flip reads popcount(y.flip & x.sign)
    more than on s."""
    need = x.need ^ (y.flip & x.care)
    if (need ^ y.need) & x.care & y.care:
        return None
    return _Action(need | y.need, x.care | y.care, x.flip ^ y.flip,
                   x.sign ^ y.sign,
                   (x.odd + y.odd + (y.flip & x.sign).bit_count()) & 1)


def _action(factors: Iterable[Factor]) -> _Action | None:
    """The action of a product of factors, the rightmost acting first, or
    None when it annihilates every state."""
    x = _Action(0, 0, 0, 0, 0)
    for m, k in factors:
        x = _compose(x, _factor_action(m, k))
        if x is None:
            return None
    return x


def _expand(x: _Action, w, acc: dict[tuple[Factor, ...], float],
            rank=None) -> None:
    """Add w times the product of action x into ``acc`` as canonical terms.

    The product is its creations, annihilations and numbers times 1 - N(h)
    for each hole h, a mode it needs empty and does not flip.  Each subset
    of the holes gives a term with a number factor on each of its modes,
    signed (-1)^|subset| times the ratio of x's sign to the canonical
    ladder term's.  Both sign masks XOR the masks below the flipped modes,
    so that ratio is (-1)^(x.odd + the ladder term's inversions, its pairs
    with the creation mode above the annihilation mode).  The subsets are
    taken number-carrying first, the first hole by ``rank`` (ascending
    modes by default) as the most significant bit: the order in which
    adjacent swaps of the factors first reach them when ``rank`` is the
    position of each hole's last creation factor, ascending in a product
    of two canonical terms.  A zero contribution takes no place in
    ``acc``."""
    numbers = x.need & ~x.flip
    creations, annihilations = x.flip & ~x.need, _bits(x.flip & x.need)
    ladder = tuple((m, CREATE) for m in _bits(creations)) + \
        tuple((m, ANNIHILATE) for m in annihilations)
    subsets = [(0, (x.odd + sum((creations >> (m + 1)).bit_count()
                                for m in annihilations)) & 1)]
    for h in reversed(sorted(_bits(x.care & ~x.need & ~x.flip), key=rank)):
        subsets = [(s | 1 << h, odd ^ 1) for s, odd in subsets] + subsets
    for s, odd in subsets:
        c = (-1 if odd else 1) * w
        if c != 0.0:
            key = ladder + tuple((m, NUMBER) for m in _bits(numbers | s))
            acc[key] = acc.get(key, 0.0) + c


def normal_order(factors: Sequence[Factor], weight: float = 1.0,
                 n_modes: int | None = None) -> FermionSum:
    """Rewrite an arbitrary ladder/number product as canonical FermionTerms.

    The product's action (``_compose``) is expanded into the terms that
    {a(i), a+(j)} = delta_ij and a(i)a(i) = a+(i)a+(i) = 0 give, with
    matched a+(i)...a(i) pairs folded into number factors (``_expand``).
    """
    if n_modes is None:
        n_modes = 1 + max((m for m, _ in factors), default=-1)
        n_modes = max(n_modes, 0)
    _check_kinds(factors)
    for m, _ in factors:
        if not 0 <= m < n_modes:
            raise ValueError(f"mode {m} outside universe of {n_modes}")
    acc: dict[tuple[Factor, ...], float] = {}
    x = _action(factors)
    if x is not None:
        last = {int(m): i for i, (m, k) in enumerate(factors) if k == CREATE}
        _expand(x, weight, acc, last.__getitem__)
    return _from_weights(n_modes, acc)


def _from_weights(n_modes: int, acc: dict[tuple[Factor, ...], float]) -> FermionSum:
    """The canonical sum of accumulated weights, built once.  The keys are
    unique and their modes lie in the universe, so each term is validated
    once, by its own construction."""
    out = FermionSum.__new__(FermionSum)
    out.n_modes = n_modes
    out.terms = tuple(FermionTerm(w, f) for f, w in acc.items() if w != 0.0)
    return out


def fermion_commutator(a: FermionSum, b: FermionSum) -> FermionSum:
    """[a, b] in canonical form; NPFO when a and b are NPFOs."""
    n = max(a.n_modes, b.n_modes)
    b_terms = [(tb.weight, _action(tb.factors)) for tb in b.terms]
    acc: dict[tuple[Factor, ...], float] = {}
    for ta in a.terms:
        x = _action(ta.factors)
        for wb, y in b_terms:
            if not x.care & y.care and \
                    not x.flip.bit_count() & y.flip.bit_count() & 1:
                continue  # disjoint supports commute unless both terms are odd
            w = ta.weight * wb
            for product, weight in ((_compose(x, y), w), (_compose(y, x), -w)):
                if product is not None:
                    _expand(product, weight, acc)
    return _from_weights(n, acc)


# sector matrices, block by block

# largest block the oracle diagonalizes; the blocks of one call together
# hold at most MAX_BLOCK**2 entries, so a block buffer takes at most 128 MiB
# for a real sum (float64) and 256 MiB for a complex one (complex128); all
# the oracle keeps between calls takes at most 16 * MAX_BLOCK**2 bytes
# (256 MiB)
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


@dataclass(frozen=True)
class EtaSector:
    """Enumeration of occupation bit patterns with popcount == eta.

    ``basis`` holds them ascending, as a read-only uint64 array."""

    n_modes: int
    eta: int
    basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("n_modes", "eta"):
            object.__setattr__(self, name,
                               check_count(getattr(self, name), name))
        _check_sector(self.n_modes, self.eta)
        if (dim := comb(self.n_modes, self.eta)) > MAX_BLOCK:
            raise SizeError(f"eta={self.eta} sector of {self.n_modes} modes has"
                            f" {dim} states; the oracle cap is {MAX_BLOCK}")
        basis = _subsets((1 << self.n_modes) - 1, self.eta)
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return len(self.basis)


class _Terms(NamedTuple):
    """A sum as one table, a row per term: its action (``_Action``) and its
    weight."""

    need: np.ndarray     # (terms,) modes to be occupied
    care: np.ndarray     # (terms,) modes to be occupied or empty
    flip: np.ndarray     # (terms,) ladder modes
    sign: np.ndarray     # (terms,) modes whose occupation sets the sign
    odd: np.ndarray      # (terms,) uint8 parity the flips add to the sign
    weights: np.ndarray  # (terms,) float, or complex if any weight is


def _check_sector(n_modes: int, eta: int) -> None:
    """Refuse an eta (a count) above n_modes, or more modes than a 64-bit
    occupation mask holds."""
    if eta > n_modes:
        raise ValueError(f"eta={eta} outside [0, {n_modes}]")
    if n_modes > 64:
        raise SizeError(f"{n_modes} modes exceeds the 64-bit occupation mask")


def _terms(h: FermionSum) -> _Terms:
    """The table of h, a row per term's action; a term that does not
    preserve the particle number, or has a non-finite weight, is
    refused."""
    rows = []
    for term in h.terms:
        x = _action(term.factors)
        if (x.flip & ~x.need).bit_count() != (x.flip & x.need).bit_count():
            raise ValueError("term does not preserve particle number")
        if not isfinite(term.weight):
            raise ValueError(f"term {term!r} has a non-finite weight")
        rows.append(x)
    need, care, flip, sign, odd = zip(*rows) if rows else ((),) * 5
    weights = np.array([term.weight for term in h.terms])
    return _Terms(*(np.array(column, dtype=np.uint64)
                    for column in (need, care, flip, sign)),
                  np.array(odd, dtype=np.uint8),
                  weights if weights.dtype.kind == "c" else
                  weights.astype(float))


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
    """The modes set in ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _swap_invariant(sums: Sequence[FermionSum], a: int, b: int) -> bool:
    """Whether swapping mode groups a and b, the k-th mode of one with the
    k-th mode of the other, maps every sum to itself: each term's image,
    its factors moved and re-sorted by the algebra (``_expand``), is a term
    of its sum with exactly its weight.  The swap is one to one, so that
    suffices; a term whose image is not stops the search."""
    image = dict(zip(_bits(a) + _bits(b), _bits(b) + _bits(a)))
    for h in sums:
        terms = {t.factors: t.weight for t in h.terms}.items()
        for t in h.terms:
            mapped = {}  # distinct modes in any order leave no hole: one term
            _expand(_action([(image.get(m, m), k) for m, k in t.factors]),
                    t.weight, mapped)
            if not mapped.items() <= terms:
                return False
    return True


def _orbits(groups: tuple[int, ...], sums: Sequence[FermionSum]
            ) -> tuple[tuple[int, ...], ...]:
    """The orbits of the mode groups under the swaps of two equal-size
    groups that map every sum to itself, each orbit ascending.  Each group
    is tried against the nearest earlier group first; a pair already in one
    orbit is not tried, since the swaps found compose to swap it."""
    orbit = list(range(len(groups)))  # each group's orbit, as a group in it
    for j, b in enumerate(groups):
        for i in range(j - 1, -1, -1):
            a = groups[i]
            if a.bit_count() != b.bit_count() or orbit[i] == orbit[j]:
                continue
            if _swap_invariant(sums, a, b):
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
    The arrays of a layout kept between calls are read-only.
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
    # checked before the lookup: eta=True or 1.0 would find eta=1's input
    eta = check_count(eta, "eta")
    key = _Key(sums, eta)
    kept = _KEPT.get(key)
    if kept is None:
        n_modes = max(h.n_modes for h in sums)
        _check_sector(n_modes, eta)
        tables = tuple(_terms(h) for h in sums)
        groups = _mode_groups(n_modes, tables)
        blocks = _layout(n_modes, groups, _orbits(groups, sums), eta)
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


# (term, state) pairs tested at once, which bounds the temporaries
_CHUNK = 1 << 20


def _block_buffer(table: _Terms, blocks: _Blocks) -> np.ndarray:
    """Every block matrix of a sum's table, flat in the layout of
    ``blocks``, in the dtype of the table's weights.

    Each state a term does not annihilate goes to its image with the sign
    the table's masks give, at the image's row and the source's column of
    their block.  The hits are taken term-major and added in that order, so
    each entry sums its terms in term order."""
    states = blocks.states
    buf = np.zeros(blocks.size, dtype=table.weights.dtype)
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
        # in buf's dtype: numpy adds mixed dtypes on a slower path
        np.add.at(buf, blocks.row_base[rows] + blocks.local[cols],
                  hits.astype(buf.dtype, copy=False))
    return buf


def sector_matrix(h: FermionSum, sector: EtaSector) -> np.ndarray:
    """Dense matrix of h restricted to the eta sector (particle-number
    block): float64 when every weight of h is real, complex128 when any is
    complex.  h and the sector must have the same mode count.  The sector
    is laid out as one block, its states ascending, row-major."""
    if h.n_modes != sector.n_modes:
        raise ValueError(f"sum on {h.n_modes} modes, sector on "
                         f"{sector.n_modes} modes")
    dim = sector.dim
    whole = _Blocks(sector.basis, np.arange(dim) * dim, np.arange(dim),
                    ((0, 1, dim),), dim * dim)
    return _block_buffer(_terms(h), whole).reshape(dim, dim)


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
        # from 0 in layer order, as sum() adds; not in place, so that a
        # complex layer after real ones promotes the sum
        total = total + buf
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
    if check_count(p, "order p") not in (1, 2):
        raise ValueError(f"order p={p} not supported by the oracle")
    r = check_count(r, "step count r", 1)
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

"""Independent references for the fermionic oracle tests.

Hand-built sums (``hopping``, ``number_op``) and two dense matrices of a sum
on the full 2^n Fock space that share no code with ``nuceft.fock``'s
builders: ``dense_sum`` multiplies one Jordan-Wigner ladder matrix per
factor, and ``reference_full_matrix`` applies each term to every basis
state, factor by factor.  Neither requires the sum to preserve the particle
number.

The symbolic reference is a rewrite of factor tuples by adjacent swaps: a
branching bubble sort that applies {a(i), a+(j)} = delta_ij and
a(i)a(i) = a+(i)a+(i) = 0, then folds matched pairs into number factors.
``rewrite_normal_order``, ``rewrite_adjoint`` and ``rewrite_commutator``
give {canonical factors: weight} in the order the rewrite first reaches
each term, with exact-zero weights dropped.
"""

import numpy as np

from nuceft.fock import (ANNIHILATE, CREATE, NUMBER, FermionSum,
                         FermionTerm)


def hopping(i, j, n_modes, weight=1.0):
    """weight * (a+(i) a(j) + a+(j) a(i))."""
    lo, hi = min(i, j), max(i, j)
    return FermionSum(n_modes, [
        FermionTerm(weight, ((lo, CREATE), (hi, ANNIHILATE))),
        FermionTerm(weight, ((hi, CREATE), (lo, ANNIHILATE))),
    ])


def number_op(i, n_modes, weight=1.0):
    return FermionSum(n_modes, [FermionTerm(weight, ((i, NUMBER),))])


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


def reference_images(term, states):
    """The states a term does not annihilate (their positions in
    ``states``), their images and the Jordan-Wigner signs, the term's ladder
    factors flipped one at a time right to left."""
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
            parity += np.bitwise_count(image & np.uint64((1 << m) - 1))
            image = image ^ np.uint64(1 << m)
    return hit, image, 1.0 - 2.0 * (parity & np.uint64(1))


def reference_full_matrix(h):
    """Dense matrix of h on the full 2^n Fock space, term by term."""
    states = np.arange(1 << h.n_modes, dtype=np.uint64)
    mat = np.zeros((len(states), len(states)), dtype=complex)
    for term in h.terms:
        cols, image, sign = reference_images(term, states)
        mat[image.astype(np.intp), cols] += sign * term.weight
    return mat


# the rewrite by adjacent swaps

def _expand_numbers(factors):
    out = []
    for m, k in factors:
        if k == NUMBER:
            out.append((m, CREATE))
            out.append((m, ANNIHILATE))
        else:
            out.append((m, k))
    return out


def _ordered(fs, weight):
    """{canonical factors: weight} of weight times a product of ladder
    factors, keyed in the order the rewrite first reaches each term."""
    acc = {}
    stack = [(weight, fs)]
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


def _merge(acc, part):
    """Add the non-zero weights of one ordered product into ``acc``."""
    for f, w in part.items():
        if w != 0.0:
            acc[f] = acc.get(f, 0.0) + w


def _first_violation(fs):
    """Index of the first adjacent pair breaking normal order, or None."""
    for i in range(len(fs) - 1):
        (m1, k1), (m2, k2) = fs[i], fs[i + 1]
        if k1 == ANNIHILATE and k2 == CREATE:
            return i
        if k1 == k2 and m1 >= m2:
            return i
    return None


def _to_canonical(fs):
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


def _prepared(term):
    """A term's weight, ladder expansion, support mask, and whether it has
    an odd number of ladder factors."""
    support = 0
    for m, _ in term.factors:
        support |= 1 << m
    odd = sum(k != NUMBER for _, k in term.factors) % 2 == 1
    return term.weight, tuple(_expand_numbers(term.factors)), support, odd


def _nonzero(acc):
    return {f: w for f, w in acc.items() if w != 0.0}


def rewrite_normal_order(factors, weight=1.0):
    return _nonzero(_ordered(tuple(_expand_numbers(factors)), weight))


def rewrite_adjoint(h):
    acc = {}
    for t in h.terms:
        rev = tuple(reversed(_expand_numbers(t.factors)))
        conj = tuple((m, CREATE if k == ANNIHILATE else ANNIHILATE)
                     for m, k in rev)
        _merge(acc, _ordered(conj, t.weight.conjugate()))
    return _nonzero(acc)


def rewrite_commutator(a, b):
    b_terms = [_prepared(tb) for tb in b.terms]
    acc = {}
    for ta in a.terms:
        wa, fa, support_a, odd_a = _prepared(ta)
        for wb, fb, support_b, odd_b in b_terms:
            if not support_a & support_b and not (odd_a and odd_b):
                continue  # disjoint supports commute unless both terms are odd
            w = wa * wb
            _merge(acc, _ordered(fa + fb, w))
            _merge(acc, _ordered(fb + fa, -w))
    return _nonzero(acc)

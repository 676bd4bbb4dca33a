"""Independent references for the fermionic oracle tests.

Hand-built sums (``hopping``, ``number_op``) and two dense matrices of a sum
on the full 2^n Fock space that share no code with ``nuceft.fock``'s
builders: ``dense_sum`` multiplies one Jordan-Wigner ladder matrix per
factor, and ``reference_full_matrix`` applies each term to every basis
state, factor by factor.  Neither requires the sum to preserve the particle
number.
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

"""Lattice Hamiltonian of the pionless EFT, built as its Trotter layers.

The one-pion-exchange and dynamical-pion models are priced from closed-form
commutator bounds (``trotter``) and need no lattice operator.  The parameter
objects live in ``params``.  Modes are numbered by ``encodings.mode_index``.
"""

from __future__ import annotations

from itertools import permutations

from .encodings import N_SPECIES, LatticeSpec, mode_index
from .fock import ANNIHILATE, CREATE, NUMBER, FermionSum, FermionTerm
# pionless_params_for is not used here; it stays importable from models
from .params import PionlessParams, pionless_params_for  # noqa: F401


def pionless_layers(lattice: LatticeSpec, params: PionlessParams) -> list[FermionSum]:
    """Kinetic bonds split by (axis, coordinate parity) plus one on-site layer.

    Up to six kinetic layers of -h hopping, in (axis, parity) order; the
    bonds in one layer are vertex-disjoint.  The final diagonal layer holds,
    at every site, the 6h number terms, C/2 times each ordered species pair
    and D/6 times each ordered species triple of number operators.
    """
    n = 4 * lattice.n_sites
    kinetic: dict[int, list[FermionTerm]] = {}
    for si, sj, axis in lattice.bonds():
        layer = kinetic.setdefault(2 * axis + si[axis] % 2, [])
        for sp in range(N_SPECIES):
            mi = mode_index(lattice, si, sp)
            mj = mode_index(lattice, sj, sp)
            lo, hi = min(mi, mj), max(mi, mj)
            layer.append(FermionTerm(-params.h, ((lo, CREATE), (hi, ANNIHILATE))))
            layer.append(FermionTerm(-params.h, ((hi, CREATE), (lo, ANNIHILATE))))
    site_modes = [[mode_index(lattice, site, sp) for sp in range(N_SPECIES)]
                  for site in lattice.sites()]
    diag = [FermionTerm(6 * params.h, ((m, NUMBER),))
            for modes in site_modes for m in modes]
    for k, weight in ((2, params.C_slash / 2), (3, params.D_slash / 6)):
        diag += [FermionTerm(weight, tuple((m, NUMBER) for m in sorted(ms)))
                 for modes in site_modes for ms in permutations(modes, k)]
    return ([FermionSum(n, terms) for _, terms in sorted(kinetic.items())]
            + [FermionSum(n, diag)])


def build_pionless(lattice: LatticeSpec, params: PionlessParams) -> FermionSum:
    """The pionless H: the union of ``pionless_layers``."""
    return FermionSum(4 * lattice.n_sites,
                      [t for layer in pionless_layers(lattice, params)
                       for t in layer])

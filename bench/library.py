"""Library-session workloads: the exact oracle and the symbolic algebra.

Each workload is a fixed list of operations, one call into nuceft each.
Operations call through the nuceft modules (``fock.sector_matrix``, not a
name imported from it) so that the tracer, which patches the module
attributes, sees them.  Every operation returns a canonical output that the
session compares with the reference, or checks against an analytic bound
when its input comes from the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from common import mismatch
from nuceft import encodings, fock, models, pauli, trotter

A_L = 2.2
# evolution time of the oracle points, MeV^-1: t ||H|| is about 2 on
# 2x2x1, so the Trotter error is far from both 0 and saturation
T_ORACLE = 0.02
RANDOM_SUMS = 12
RANDOM_MODES = 8
# (ladder pairs, number factors) per term; 8 modes in all
BLOCKS = ((1, 2), (1, 0), (0, 1), (0, 1))
# operations this short run several times in one timed call, so that a
# call lasts at least 10 ms (oracle) or 30 ms (algebra), several times the
# calibration loop timed around it
REPEATS = {"evolve.m8.": 10, "evolve.m16.e2.": 3, "sector.m16e3": 3,
           "seminorm.random.": 30, "commutator.kinx_kiny": 8, "mul.": 10,
           "commutator_sum.": 4, "encode_hopping.": 2,
           "encode_fermion_sum.": 4}
# every term of a random sum spans at most 4 modes, so at 4 particles in
# 8 modes no term vanishes in the sector and each sum takes one SVD
RANDOM_ETA = 4


@dataclass
class Op:
    kind: str
    part: str
    run: Callable[[], object]
    check: Callable[[object], str | None] | None = None
    repeat: int = 1


def fermion_map(h) -> dict:
    return {"terms": {" ".join(f"{k}{m}" for m, k in t.factors):
                      [complex(t.weight).real, complex(t.weight).imag]
                      for t in h.terms}}


def pauli_map(p) -> dict:
    return {"terms": {f"{s.x_mask:x}.{s.z_mask:x}": [complex(c).real,
                                                     complex(c).imag]
                      for c, s in p.terms}}


def matrix_summary(mat: np.ndarray) -> dict:
    """Shape, structure and invariants of a sector matrix."""
    mags = np.abs(mat)
    return {"dim": int(mat.shape[0]),
            "nonzero": int((mags > 1e-12 * mags.max()).sum()),
            "hermitian": bool(np.allclose(mat, mat.conj().T, atol=1e-12)),
            "trace": float(np.trace(mat).real),
            "frobenius": float(np.linalg.norm(mat))}


def random_npfo_sum(rng: random.Random):
    """Weighted canonical NPFO terms of the shapes in BLOCKS on disjoint
    modes, with the modes and weights drawn from ``rng``.  The shapes are
    fixed so that every seed costs the same.  Returns (sum, analytic
    bound).

    The bound is the occupancy seminorm bound the oracle is checked against:
    max |w| times min(ceil(eta / ceil(k_min / 2)), number of terms).
    """
    modes = list(range(RANDOM_MODES))
    rng.shuffle(modes)
    terms = []
    for pairs, numbers in BLOCKS:
        size = 2 * pairs + numbers
        block, modes = modes[:size], modes[size:]
        factors = ([(m, fock.CREATE) for m in sorted(block[:pairs])]
                   + [(m, fock.ANNIHILATE)
                      for m in sorted(block[pairs:2 * pairs])]
                   + [(m, fock.NUMBER) for m in sorted(block[2 * pairs:])])
        terms.append(fock.FermionTerm(rng.uniform(-2.0, 2.0), tuple(factors)))
    k_min = min(t.locality for t in terms)
    bound = max(abs(t.weight) for t in terms) * min(
        math.ceil(RANDOM_ETA / math.ceil(k_min / 2)), len(terms))
    return fock.FermionSum(RANDOM_MODES, terms), bound


def jw_seminorm(h, eta: int) -> float:
    """The eta-sector seminorm through the Jordan-Wigner image and its dense
    matrix: a second path to the oracle's value, sharing none of its
    sector code."""
    layout = encodings.QubitLayout("jw", encodings.LatticeSpec(2, 1, 1, A_L))
    dense = pauli.dense_matrix(encodings.encode_fermion_sum(layout, h))
    basis = [s for s in range(1 << h.n_modes) if bin(s).count("1") == eta]
    block = dense[np.ix_(basis, basis)]
    return float(np.linalg.svd(block, compute_uv=False)[0])


class Session:
    """Inputs and operations of one library workload.

    ``ops`` is one pass; a timed call runs ``op.run`` ``op.repeat`` times.
    ``op.check(output)`` returns None when the output is correct and a
    description of the difference otherwise.
    """

    def __init__(self, workload: str, seed: int, reference: dict | None):
        self.workload = workload
        self.reference = (reference or {}).get(workload, {})
        self.bounds: dict[str, float] = {}
        self.extra_checks: dict[str, Callable[[object], str | None]] = {}
        params = models.pionless_params_for(A_L)
        self.lattice8 = encodings.LatticeSpec(2, 1, 1, A_L)
        self.lattice16 = encodings.LatticeSpec(2, 2, 1, A_L)
        self.layers = {8: models.pionless_layers(self.lattice8, params),
                       16: models.pionless_layers(self.lattice16, params)}
        if workload == "oracle":
            self.ops = self._oracle_ops(params, random.Random(seed))
        elif workload == "algebra":
            self.ops = self._algebra_ops(params)
        else:
            raise ValueError(f"no library workload {workload!r}")
        for op in self.ops:
            op.check = partial(self.check, op)
            op.repeat = next((n for prefix, n in REPEATS.items()
                              if op.kind.startswith(prefix)), 1)

    # -- oracle ---------------------------------------------------------------

    def _oracle_ops(self, params, rng: random.Random) -> list[Op]:
        ops = []
        for n in (8, 16):
            for eta in (2, 3):
                for p in (1, 2):
                    coeff = (trotter.pionless_p1_bound(1.0, eta, params)
                             if p == 1 else
                             trotter.pionless_p2_coefficient(eta, params))
                    for r in (1, 4):
                        kind = f"evolve.m{n}.e{eta}.p{p}.r{r}"
                        self.bounds[kind] = (T_ORACLE ** 2 * coeff / r
                                             if p == 1 else
                                             T_ORACLE ** 3 * coeff / r ** 2)
                        ops.append(Op(kind, "evolution", _evolution(
                            self.layers[n], p, r, eta)))
        h16 = models.build_pionless(self.lattice16, params)
        for eta in (3, 4):
            ops.append(Op(f"sector.m16e{eta}", "evolution",
                          _sector(h16, eta)))
        ops.append(Op("seminorm.h16.e3", "seminorm",
                      lambda: fock.eta_seminorm(h16, 3)))
        for i in range(RANDOM_SUMS):
            h, bound = random_npfo_sum(rng)
            kind = f"seminorm.random.{i}"
            self.bounds[kind] = bound
            self.extra_checks[kind] = _agrees_with_jw(h)
            ops.append(Op(kind, "seminorm",
                          lambda h=h: fock.eta_seminorm(h, RANDOM_ETA)))
        return ops

    # -- algebra --------------------------------------------------------------

    def _algebra_ops(self, params) -> list[Op]:
        kin_x, kin_y, diag = self.layers[16]
        h8 = models.build_pionless(self.lattice8, params)
        h16 = models.build_pionless(self.lattice16, params)

        def comm(a, b):
            return fock.fermion_commutator(a, b)

        ops = [
            Op("commutator.kinx_kiny", "fermion", lambda: comm(kin_x, kin_y)),
            Op("commutator.kinx_diag", "fermion", lambda: comm(kin_x, diag)),
            Op("commutator.kiny_diag", "fermion", lambda: comm(kin_y, diag)),
            Op("commutator.nested", "fermion",
               lambda: comm(kin_x, comm(kin_x, diag))),
            Op("commutator.h8_h8", "fermion", lambda: comm(h8, h8)),
        ]
        lattice27 = encodings.LatticeSpec(3, 3, 3, A_L)
        for enc in ("jw", "vc", "compact"):
            layout = encodings.QubitLayout(enc, lattice27)
            ops.append(Op(f"encode_hopping.{enc}", "pauli",
                          _hoppings(layout, lattice27)))
        jw16 = encodings.QubitLayout("jw", self.lattice16)
        ops.append(Op("encode_fermion_sum.h16", "pauli",
                      lambda: encodings.encode_fermion_sum(jw16, h16)))
        enc_x, enc_y, enc_diag = (encodings.encode_fermion_sum(jw16, layer)
                                  for layer in self.layers[16])
        ops += [
            Op("mul.kinx_diag", "pauli", lambda: enc_x * enc_diag),
            Op("mul.kiny_diag", "pauli", lambda: enc_y * enc_diag),
            Op("commutator_sum.kinx_diag", "pauli",
               lambda: pauli.commutator_sum(enc_x, enc_diag)),
            Op("commutator_sum.kiny_diag", "pauli",
               lambda: pauli.commutator_sum(enc_y, enc_diag)),
        ]
        return ops

    # -- outputs --------------------------------------------------------------

    @staticmethod
    def canonical(output) -> object:
        """The JSON form an output is compared in."""
        if isinstance(output, fock.FermionSum):
            return fermion_map(output)
        if isinstance(output, pauli.PauliSum):
            return pauli_map(output)
        if isinstance(output, list):
            return [Session.canonical(x) for x in output]
        if isinstance(output, np.ndarray):
            return matrix_summary(output)
        return output

    def check(self, op: Op, output) -> str | None:
        got = self.canonical(output)
        if op.kind in self.bounds and not got <= self.bounds[op.kind] * (
                1 + 1e-9):
            return f"{got} exceeds the analytic bound {self.bounds[op.kind]}"
        if op.kind in self.extra_checks:
            return self.extra_checks[op.kind](got)
        if op.kind not in self.reference:
            return "no reference output recorded"
        return mismatch(self.reference[op.kind], got, op.kind)


def _evolution(layers, p, r, eta):
    return lambda: fock.exact_evolution_error(layers, T_ORACLE, p, r, eta)


def _sector(h, eta):
    return lambda: fock.sector_matrix(h, fock.EtaSector(h.n_modes, eta))


def _hoppings(layout, lattice):
    return lambda: [encodings.encode_hopping(layout, si, sj, sp)
                    for si, sj, _axis in lattice.bonds() for sp in range(4)]


def _agrees_with_jw(h):
    """A check against the jw path, computed on first use and kept, since
    the sum does not change between passes."""
    computed = []

    def check(value: float) -> str | None:
        if not computed:
            computed.append(jw_seminorm(h, RANDOM_ETA))
        other = computed[0]
        if math.isclose(value, other, rel_tol=1e-9):
            return None
        return f"seminorm {value} but {other} through the jw image"
    return check

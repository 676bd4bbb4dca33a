"""Self-check suites behind the ``verify`` CLI command.

Each suite returns a list of (check name, passed, detail) triples so the
CLI and the test suite can share the exact same machinery.  All random
checks use fixed seeds; a verify run is deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from . import VERIFY_SUITES
from .costs import HOPPING_WEIGHT
from .encodings import (N_SPECIES, LatticeSpec, QubitLayout, encode_hopping,
                        encode_ladder, encode_number, mode_index,
                        vc_stabilizers)
from .errors import DomainError
from .fock import (ANNIHILATE, CREATE, NUMBER, FermionSum, FermionTerm,
                   eta_seminorm, exact_evolution_error, fermion_commutator)
from .models import pionless_layers
from .params import pionless_params_for
from .pauli import (PauliString, PauliSum, anticommutator_sum, commutator_sum,
                    dense_matrix, multiply)
from .trotter import (pionless_p1_coefficient, pionless_p2_coefficient,
                      product_formula_error)

Check = tuple[str, bool, str]

PAULI_TRIALS = 100      # random string pairs verify_pauli checks densely
SEMINORM_TRIALS = 200   # random sums, then commutator pairs, it checks
ZERO_TOL = 1e-12        # a Pauli coefficient at most this is zero


def _random_string(rng: np.random.Generator, n_qubits: int) -> PauliString:
    x = int(rng.integers(0, 1 << n_qubits))
    z = int(rng.integers(0, 1 << n_qubits))
    return PauliString(n_qubits, x, z, int(rng.integers(0, 4)))


def verify_pauli() -> list[Check]:
    rng = np.random.default_rng(20260823)
    n = 5
    bad_mult = 0
    bad_comm = 0
    for _ in range(PAULI_TRIALS):
        a = _random_string(rng, n)
        b = _random_string(rng, n)
        prod = multiply(a, b)
        if not np.allclose(prod.dense(), a.dense() @ b.dense(), atol=1e-12):
            bad_mult += 1
        brackets = a.dense() @ b.dense() - b.dense() @ a.dense()
        vanishes = bool(np.allclose(brackets, 0, atol=1e-12))
        if a.commutes_with(b) != vanishes:
            bad_comm += 1
    checks = [
        ("pauli multiply matches dense product",
         bad_mult == 0, f"{PAULI_TRIALS - bad_mult}/{PAULI_TRIALS} ok"),
        ("pauli commutes_with matches dense commutator",
         bad_comm == 0, f"{PAULI_TRIALS - bad_comm}/{PAULI_TRIALS} ok"),
    ]

    rand_sums = []
    for _ in range(20):
        rand_sums.append(PauliSum(n, [
            (complex(rng.normal(), rng.normal()), _random_string(rng, n))
            for _ in range(3)]))
    bad_sum = 0
    for i in range(0, 20, 2):
        a, b = rand_sums[i], rand_sums[i + 1]
        lhs = dense_matrix(commutator_sum(a, b))
        rhs = dense_matrix(a) @ dense_matrix(b) - dense_matrix(b) @ dense_matrix(a)
        if not np.allclose(lhs, rhs, atol=1e-10):
            bad_sum += 1
    checks.append(("sum commutator matches dense commutator",
                   bad_sum == 0, f"{10 - bad_sum}/10 ok"))
    return checks


def _is_zero(p: PauliSum) -> bool:
    return all(abs(c) <= ZERO_TOL for c, _ in p)


def _is_identity(p: PauliSum) -> bool:
    terms = [(c, s) for c, s in p if abs(c) > ZERO_TOL]
    if len(terms) != 1:
        return False
    c, s = terms[0]
    return s.is_identity() and abs(c - 1.0) <= ZERO_TOL


def hopping_weights(lat: LatticeSpec) -> dict[str, int]:
    """The largest Pauli weight of an encoded hopping term on ``lat``, keyed
    as costs.HOPPING_WEIGHT: per vc axis, and over all compact bonds."""
    vc, compact = QubitLayout("vc", lat), QubitLayout("compact", lat)
    seen = dict.fromkeys(HOPPING_WEIGHT, 0)
    for si, sj, axis in lat.bonds():
        for key, layout in (("xyz"[axis], vc), ("compact", compact)):
            seen[key] = max(seen[key], *(
                s.weight for sp in range(N_SPECIES)
                for _, s in encode_hopping(layout, si, sj, sp)))
    return seen


def verify_encodings() -> list[Check]:
    checks: list[Check] = []
    lat = LatticeSpec(2, 2, 1, 2.2)
    n_modes = 4 * lat.n_sites

    for encoding in ("jw", "vc"):
        layout = QubitLayout(encoding, lat)
        ladders = {}
        for site in lat.sites():
            for sp in range(N_SPECIES):
                ladders[mode_index(lat, site, sp)] = (
                    encode_ladder(layout, site, sp, ANNIHILATE),
                    encode_ladder(layout, site, sp, CREATE))
        ok = True
        for i in range(n_modes):
            for j in range(n_modes):
                a_i, adag_i = ladders[i]
                a_j, adag_j = ladders[j]
                if not _is_zero(anticommutator_sum(a_i, a_j)):
                    ok = False
                mixed = anticommutator_sum(a_i, adag_j)
                if i == j:
                    if not _is_identity(mixed):
                        ok = False
                elif not _is_zero(mixed):
                    ok = False
        checks.append((f"{encoding} ladders satisfy the anticommutation "
                       f"relations", ok, f"{n_modes}x{n_modes} mode pairs"))

    layout = QubitLayout("vc", lat)
    stabs = vc_stabilizers(layout)
    encoded = []
    for si, sj, _axis in lat.bonds():
        for sp in range(N_SPECIES):
            encoded.append(encode_hopping(layout, si, sj, sp))
    for site in lat.sites():
        for sp in range(N_SPECIES):
            encoded.append(encode_number(layout, site, sp))
    ok = True
    for stab in stabs:
        wrap = PauliSum.from_string(1.0, stab)
        for term in encoded:
            if not wrap.commutes_with(term):
                ok = False
    checks.append(("vc stabilizers commute with every encoded term", ok,
                   f"{len(stabs)} stabilizers x {len(encoded)} terms"))

    seen = hopping_weights(LatticeSpec(2, 2, 2, 2.2))
    checks.append(("hopping weights equal costs.HOPPING_WEIGHT",
                   seen == HOPPING_WEIGHT,
                   f"observed {seen}, priced {HOPPING_WEIGHT}"))
    return checks


def _random_npfo_factors(rng: np.random.Generator,
                         modes: list[int]) -> tuple:
    """Canonical NPFO factors over exactly these modes."""
    k = len(modes)
    pairs = int(rng.integers(0, k // 2 + 1))
    shuffled = rng.permutation(modes).tolist()
    creates = sorted(shuffled[:pairs])
    annihs = sorted(shuffled[pairs:2 * pairs])
    numbers = sorted(shuffled[2 * pairs:])
    return tuple([(m, CREATE) for m in creates]
                 + [(m, ANNIHILATE) for m in annihs]
                 + [(m, NUMBER) for m in numbers])


def verify_seminorm() -> list[Check]:
    rng = np.random.default_rng(41)
    norm_bad = 0
    for _ in range(SEMINORM_TRIALS):
        n_modes = int(rng.integers(4, 13))
        order = list(rng.permutation(n_modes))
        tuples = []
        while order:
            size = int(rng.integers(1, min(4, len(order)) + 1))
            tuples.append(sorted(order[:size]))
            order = order[size:]
            if rng.random() < 0.3:
                break
        terms = []
        j_max = 0.0
        k_min = None
        for modes in tuples:
            w = float(rng.uniform(-2.0, 2.0))
            terms.append(FermionTerm(w, _random_npfo_factors(rng, modes)))
            j_max = max(j_max, abs(w))
            k_min = len(modes) if k_min is None else min(k_min, len(modes))
        x = FermionSum(n_modes, terms)
        eta = int(rng.integers(0, n_modes + 1))
        bound = j_max * min(math.ceil(eta / math.ceil(k_min / 2)),
                            len(tuples)) if eta else 0.0
        if eta_seminorm(x, eta) > bound + 1e-9:
            norm_bad += 1
    checks = [("disjoint NPFO sums respect the occupancy seminorm bound",
               norm_bad == 0,
               f"{SEMINORM_TRIALS - norm_bad}/{SEMINORM_TRIALS} ok")]

    comm_bad = 0
    tried = 0
    while tried < SEMINORM_TRIALS:
        n_modes = int(rng.integers(4, 11))
        k_a = int(rng.integers(2, min(5, n_modes) + 1))
        k_b = int(rng.integers(2, min(5, n_modes) + 1))
        modes_a = sorted(rng.choice(n_modes, size=k_a, replace=False).tolist())
        modes_b = sorted(rng.choice(n_modes, size=k_b, replace=False).tolist())
        if not set(modes_a) & set(modes_b):
            continue
        t_a = FermionTerm(1.0, _random_npfo_factors(rng, modes_a))
        t_b = FermionTerm(1.0, _random_npfo_factors(rng, modes_b))
        comm = fermion_commutator(FermionSum(n_modes, [t_a]),
                                  FermionSum(n_modes, [t_b]))
        live = [t for t in comm.terms if abs(t.weight) > 1e-12]
        if not live:
            continue
        tried += 1
        if len(live) > 2 ** (1 + min(k_a, k_b) / 2):
            comm_bad += 1
        if max(t.locality for t in live) > k_a + k_b - 1:
            comm_bad += 1
    checks.append(("NPFO commutators respect the term-count and locality "
                   "bounds", comm_bad == 0,
                   f"{SEMINORM_TRIALS - comm_bad}/{SEMINORM_TRIALS} ok"))
    return checks


# (lattice, times, particle numbers, step counts): 2x1x1 on a full grid,
# and 2x2x1 (16 modes) at eta=4, whose largest block has 256 states
TROTTER_GRIDS = (
    ((2, 1, 1), (0.05, 0.2, 0.5), (1, 2, 3), (1, 2, 4)),
    ((2, 2, 1), (0.2,), (4,), (1, 4)),
)


def verify_trotter() -> list[Check]:
    params = pionless_params_for(2.2)
    violations = 0
    total = 0
    for shape, grid_t, grid_eta, grid_r in TROTTER_GRIDS:
        layers = pionless_layers(LatticeSpec(*shape, 2.2), params)
        for t in grid_t:
            for eta in grid_eta:
                for p, coeff in (
                        (1, pionless_p1_coefficient(eta, params).total),
                        (2, pionless_p2_coefficient(eta, params))):
                    for r in grid_r:
                        exact = exact_evolution_error(layers, t, p, r, eta)
                        # the bound the estimator budgets: r steps of t / r
                        bound = r * product_formula_error(p, t / r, coeff)
                        total += 1
                        if exact > bound * (1 + 1e-9):
                            violations += 1
    return [("exact Trotter error never exceeds the analytic bound",
             violations == 0, f"{total - violations}/{total} grid points ok")]


SUITES = dict(zip(VERIFY_SUITES, (verify_pauli, verify_encodings,
                                   verify_seminorm, verify_trotter),
                  strict=True))


def run_suite(name: str) -> list[Check]:
    if name == "all":
        return [check for suite in SUITES.values() for check in suite()]
    if name not in SUITES:
        raise DomainError(f"unknown verify suite {name!r} "
                          f"(choose from {', '.join([*SUITES, 'all'])})")
    return SUITES[name]()

"""Self-check suites behind the ``verify`` CLI command.

Each suite returns a list of (check name, passed, detail) triples so the
CLI and the test suite can share the exact same machinery.  All random
checks use fixed seeds; a verify run is deterministic.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from . import VERIFY_SUITES
from .costs import HOPPING_WEIGHT
from .encodings import (N_SPECIES, LatticeSpec, QubitLayout, encode_hopping,
                        encode_ladder, encode_number, vc_stabilizers)
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
COMMUTATOR_DRAWS = 10 * SEMINORM_TRIALS  # pairs drawn at most to fill them
ZERO_TOL = 1e-12        # a Pauli coefficient at most this is zero


def _random_string(rng: np.random.Generator, n_qubits: int) -> PauliString:
    x = int(rng.integers(0, 1 << n_qubits))
    z = int(rng.integers(0, 1 << n_qubits))
    return PauliString(n_qubits, x, z, int(rng.integers(0, 4)))


def _tally(name: str, cases: Iterable[bool], what: str = "ok") -> Check:
    """A counted check: it passes when every case does, and says how many
    did.  A case passes only when its value is within its bound, so NaN
    fails."""
    cases = [bool(case) for case in cases]
    return name, all(cases), f"{sum(cases)}/{len(cases)} {what}"


def verify_pauli() -> list[Check]:
    rng = np.random.default_rng(20260823)
    n = 5
    pairs = [(_random_string(rng, n), _random_string(rng, n))
             for _ in range(PAULI_TRIALS)]
    sums = [PauliSum(n, [(complex(rng.normal(), rng.normal()),
                          _random_string(rng, n)) for _ in range(3)])
            for _ in range(20)]
    return [
        _tally("pauli multiply matches dense product", (
            np.allclose(multiply(a, b).dense(), a.dense() @ b.dense(),
                        atol=1e-12) for a, b in pairs)),
        _tally("pauli commutes_with matches dense commutator", (
            a.commutes_with(b) == np.allclose(
                a.dense() @ b.dense() - b.dense() @ a.dense(), 0, atol=1e-12)
            for a, b in pairs)),
        _tally("sum commutator matches dense commutator", (
            np.allclose(dense_matrix(commutator_sum(a, b)),
                        dense_matrix(a) @ dense_matrix(b)
                        - dense_matrix(b) @ dense_matrix(a), atol=1e-10)
            for a, b in zip(sums[0::2], sums[1::2], strict=True))),
    ]


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
        ladders = [(encode_ladder(layout, site, sp, ANNIHILATE),
                    encode_ladder(layout, site, sp, CREATE))
                   for site in lat.sites() for sp in range(N_SPECIES)]
        ok = all(_is_zero(anticommutator_sum(a_i, a_j))
                 and (_is_identity if i == j else _is_zero)(
                     anticommutator_sum(a_i, adag_j))
                 for i, (a_i, _) in enumerate(ladders)
                 for j, (a_j, adag_j) in enumerate(ladders))
        checks.append((f"{encoding} ladders satisfy the anticommutation "
                       f"relations", ok, f"{n_modes}x{n_modes} mode pairs"))

    layout = QubitLayout("vc", lat)
    stabs = vc_stabilizers(layout)
    encoded = ([encode_hopping(layout, si, sj, sp)
                for si, sj, _axis in lat.bonds() for sp in range(N_SPECIES)]
               + [encode_number(layout, site, sp)
                  for site in lat.sites() for sp in range(N_SPECIES)])
    ok = all(wrap.commutes_with(term)
             for wrap in (PauliSum.from_string(1.0, s) for s in stabs)
             for term in encoded)
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


def _seminorm_cases(rng: np.random.Generator):
    """Whether each random disjoint NPFO sum's seminorm is within its bound."""
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
        yield eta_seminorm(x, eta) <= bound + 1e-9


def _commutator_cases(rng: np.random.Generator):
    """Whether each random overlapping NPFO pair's live commutator is within
    both its term-count and its locality bound.  A trial that
    ``COMMUTATOR_DRAWS`` draws leave without a live commutator fails."""
    tried = draws = 0
    while tried < SEMINORM_TRIALS and draws < COMMUTATOR_DRAWS:
        draws += 1
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
        yield (len(live) <= 2 ** (1 + min(k_a, k_b) / 2)
               and max(t.locality for t in live) <= k_a + k_b - 1)
    yield from [False] * (SEMINORM_TRIALS - tried)


def verify_seminorm() -> list[Check]:
    rng = np.random.default_rng(41)  # the seminorm trials draw first
    return [
        _tally("disjoint NPFO sums respect the occupancy seminorm bound",
               _seminorm_cases(rng)),
        _tally("NPFO commutators respect the term-count and locality bounds",
               _commutator_cases(rng)),
    ]


# (lattice, times, particle numbers, step counts): 2x1x1 on a full grid,
# and 2x2x1 (16 modes) at eta=4, whose largest block has 256 states
TROTTER_GRIDS = (
    ((2, 1, 1), (0.05, 0.2, 0.5), (1, 2, 3), (1, 2, 4)),
    ((2, 2, 1), (0.2,), (4,), (1, 4)),
)


def verify_trotter() -> list[Check]:
    params = pionless_params_for(2.2)
    return [_tally(
        "exact Trotter error never exceeds the analytic bound", (
            # the bound the estimator budgets: r steps of t / r
            exact_evolution_error(layers, t, p, r, eta)
            <= r * product_formula_error(p, t / r, coeff) * (1 + 1e-9)
            for shape, grid_t, grid_eta, grid_r in TROTTER_GRIDS
            for layers in [pionless_layers(LatticeSpec(*shape, 2.2), params)]
            for t in grid_t for eta in grid_eta
            for p, coeff in (
                (1, pionless_p1_coefficient(eta, params).total),
                (2, pionless_p2_coefficient(eta, params)))
            for r in grid_r),
        "grid points ok")]


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

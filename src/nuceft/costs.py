"""Per-Trotter-step circuit costs: 2-qubit depth, Rz counts, T-gate counts.

Closed-form transcriptions only; no circuits are constructed.  Depth means
2-qubit-gate depth assuming all-to-all connectivity, Rz counts feed the
repeat-until-success synthesis cost, and everything comes in controlled and
uncontrolled variants (controlled steps are what phase estimation applies).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError

# Single-axis hopping-layer depths for the auxiliary-qubit encoding; the
# three axes differ because the stabilizer dressing differs per direction.
KINETIC_DEPTH = {
    ("x", False): 16, ("y", False): 22, ("z", False): 26,
    ("x", True): 20, ("y", True): 26, ("z", True): 30,
}

# All hopping axes look alike in the compact encoding.
COMPACT_KINETIC_DEPTH = {False: 10, True: 14}

# On-site density-density layer (same circuit in both encodings).
CONTACT_DEPTH = {False: 8, True: 22}

# One-pion-exchange model on-site pieces: plain contact and the
# isospin-exchange contact.
OPE_CONTACT_DEPTH = {False: 6, True: 26}
OPE_EXCHANGE_DEPTH = {False: 54, True: 98}

# One site-pair class of the finite-range potential.
LONG_RANGE_PAIR_DEPTH = {False: 14336, True: 16384}


class _StepCostFields(NamedTuple):
    depth_2q: int
    rz_count: int
    controlled: bool
    encoding: str
    model: str
    order: int


class StepCost(_StepCostFields):
    """Cost of one Trotter step: depth, rotation count, and provenance."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.depth_2q < 0 or self.rz_count < 0:
            raise DomainError("circuit costs must be nonnegative")
        return self


class Layer(NamedTuple):
    """``count`` back-to-back copies of one circuit layer of the given
    2-qubit depth."""

    name: str
    depth: int
    count: int = 1


# A step is a sequence of stages run one after another.  A stage is a set of
# branches acting on disjoint registers in parallel; a branch is a sequence
# of layers.
Branch = tuple[Layer, ...]
Stage = tuple[Branch, ...]


def _vc_kinetic(controlled: bool) -> Branch:
    # each hopping axis splits into 8 mutually commuting sublayers
    return tuple(Layer(f"kinetic_{axis}", KINETIC_DEPTH[(axis, controlled)], 8)
                 for axis in "xyz")


def _pion_fermion(controlled: bool) -> Branch:
    """The nucleon layers both pion models share: hopping, contact and
    isospin exchange."""
    return (*_vc_kinetic(controlled),
            Layer("contact", OPE_CONTACT_DEPTH[controlled]),
            Layer("exchange", OPE_EXCHANGE_DEPTH[controlled]))


def _pionless_vc(controlled: bool, size: int) -> tuple[Stage, ...]:
    return (((*_vc_kinetic(controlled),
              Layer("contact", CONTACT_DEPTH[controlled])),),)


def _pionless_compact(controlled: bool, size: int) -> tuple[Stage, ...]:
    return (((Layer("kinetic", COMPACT_KINETIC_DEPTH[controlled], 6),
              Layer("contact", CONTACT_DEPTH[controlled])),),)


def _ope_vc(controlled: bool, size: int) -> tuple[Stage, ...]:
    """``size`` is the number of long-range site-pair classes."""
    return (((*_pion_fermion(controlled),
              Layer("long_range_pair", LONG_RANGE_PAIR_DEPTH[controlled],
                    size)),),)


def _dynpi_vc(controlled: bool, size: int) -> tuple[Stage, ...]:
    """``size`` is the boson register width n_b."""
    boson = (Layer("boson_mass", boson_mass_depth(size, controlled)),
             Layer("boson_gradient", boson_gradient_depth(size, controlled)),
             Layer("boson_momentum", boson_momentum_depth(size, controlled)))
    return ((_pion_fermion(controlled), boson),
            ((Layer("axial", axial_coupling_depth(size, controlled)),),),
            ((Layer("weinberg", weinberg_term_depth(size, controlled)),),))


# The priced (model, encoding) pairs and their step-layer inventories.
STEP_LAYERS = {
    ("pionless", "vc"): _pionless_vc,
    ("pionless", "compact"): _pionless_compact,
    ("ope", "vc"): _ope_vc,
    ("dynpi", "vc"): _dynpi_vc,
}


def check_priced(model: str, encoding: str) -> None:
    if (model, encoding) not in STEP_LAYERS:
        raise DomainError(
            f"model {model!r} is not costed in the {encoding!r} encoding")


def compose_depth(stages: tuple[Stage, ...], order: int) -> int:
    """2-qubit depth of one product-formula step.

    p=1 runs the stages in sequence, each as deep as its deepest branch.
    The symmetric p=2 step runs that sequence forward and backward; the
    deepest single layer sits in the middle and runs once.
    """
    first = sum(max(sum(layer.depth * layer.count for layer in branch)
                    for branch in stage)
                for stage in stages)
    if order == 1:
        return first
    deepest = max(layer.depth for stage in stages for branch in stage
                  for layer in branch)
    return 2 * first - deepest


def _step_cost(model: str, encoding: str, order: int, controlled: bool,
               size: int, rz: int) -> StepCost:
    check_priced(model, encoding)
    depth = compose_depth(STEP_LAYERS[(model, encoding)](controlled, size),
                          order)
    return StepCost(depth, rz, controlled, encoding, model, order)


def pionless_step_cost(encoding: str, order: int, controlled: bool,
                       L: int = 1) -> StepCost:
    """Step cost for the contact-interaction model."""
    if order not in (1, 2):
        raise DomainError(f"product-formula order must be 1 or 2, got {order}")
    if L < 1:
        raise DomainError(f"lattice extent must be >= 1, got {L}")
    rz = (84 if controlled else 42) * L ** 3
    return _step_cost("pionless", encoding, order, controlled, 0, rz)


def interaction_ball_sites(ell_units: float) -> int:
    """Number of lattice sites within the interaction range, padded by one
    spacing: ceil(4 pi (ell/a + 1)^3 / 3)."""
    if ell_units < 1:
        raise DomainError(
            f"range cutoff must be >= 1 lattice unit, got {ell_units}")
    return math.ceil(4 * math.pi * (ell_units + 1) ** 3 / 3)


def ope_step_cost(ell_units: float, L: int, controlled: bool) -> StepCost:
    """Step cost for the one-pion-exchange model with range cutoff
    ell = ell_units * a_L (p=1 only)."""
    if L < 1:
        raise DomainError(f"lattice extent must be >= 1, got {L}")
    R = interaction_ball_sites(ell_units)
    rz = (52 + 1024 * R) * L ** 3
    if controlled:
        rz *= 2
    return _step_cost("ope", "vc", 1, controlled, R, rz)


def boson_mass_depth(n_b: int, controlled: bool) -> int:
    """Depth of the on-site field-squared layer."""
    half = -(-n_b // 2)
    if controlled:
        return n_b ** 2 + 2 * half + 3 * n_b - 4
    return 2 * half + 2 * n_b - 4


def boson_gradient_depth(n_b: int, controlled: bool) -> int:
    """Depth of the nearest-neighbor field-difference-squared layer."""
    half = -(-n_b // 2)
    if controlled:
        return 24 * n_b ** 2 + 12 * half + 36 * n_b - 24
    return 12 * half + 24 * n_b - 24


def boson_momentum_depth(n_b: int, controlled: bool) -> int:
    """Depth of the conjugate-momentum-squared layer (QFT sandwich)."""
    half = -(-n_b // 2)
    if controlled:
        return 3 * n_b ** 2 + 2 * half + n_b - 4
    return 2 * n_b ** 2 + 2 * half - 4


def axial_coupling_depth(n_b: int, controlled: bool) -> int:
    """Depth of the nucleon-field axial-coupling layer."""
    return 1296 + (1728 if controlled else 864) * n_b


def weinberg_term_depth(n_b: int, controlled: bool) -> int:
    """Depth of the two-field nucleon-bilinear layer."""
    if controlled:
        return 146 * n_b ** 2 + 190 * n_b + 144
    return 98 * n_b ** 2 + 94 * n_b + 96


def dynpi_step_cost(n_b: int, L: int, controlled: bool) -> StepCost:
    """Step cost for the dynamical-pion model (p=1 only).

    The rotation count is the per-term tally (33 n_b^2 + 90 n_b + 64) L^3.
    The paper's published headline polynomial, (45 n_b^2 + 114 n_b + 76)
    L^3, is looser than this tally and is not priced.
    """
    if n_b < 1:
        raise DomainError(f"register width n_b must be >= 1, got {n_b}")
    if L < 1:
        raise DomainError(f"lattice extent must be >= 1, got {L}")
    rz = (33 * n_b ** 2 + 90 * n_b + 64) * L ** 3
    if controlled:
        rz *= 2
    return _step_cost("dynpi", "vc", 1, controlled, n_b, rz)


def t_synthesis(total_rz: int, eps_syn_total: float) -> float:
    """Expected T count to synthesize total_rz rotations within a shared
    accuracy budget, split evenly per rotation."""
    if total_rz < 1:
        raise DomainError(f"need at least one rotation, got {total_rz}")
    if eps_syn_total <= 0:
        raise DomainError(
            f"synthesis budget must be positive, got {eps_syn_total}")
    try:
        t_count = total_rz * (1.15 * math.log2(2 * total_rz / eps_syn_total)
                              + 9.2)
    except OverflowError:  # total_rz is beyond the float range
        t_count = math.inf
    if not math.isfinite(t_count):
        raise DomainError(
            f"the T count overflows the float range: about "
            f"10^{math.log10(total_rz):.0f} rotations at a synthesis budget "
            f"of {eps_syn_total:g}")
    return t_count


# Fermionic data qubits per lattice site.
_QUBITS_PER_SITE = {"vc": 6, "compact": 10}


def qubit_count(model: str, encoding: str, L: int, n_b: int = 0,
                task: str = "evolve") -> int:
    """Total qubits (data plus ancillas) for a task.

    Iterative phase estimation adds one control ancilla; for the
    dynamical-pion model its controlled step also needs one ancilla per
    fermionic register and per bosonic register at each site.
    """
    if L < 1:
        raise DomainError(f"lattice extent must be >= 1, got {L}")
    if task not in ("evolve", "qpe"):
        raise DomainError(f"unknown task {task!r}")
    check_priced(model, encoding)
    data = _QUBITS_PER_SITE[encoding] * L ** 3
    if model == "dynpi":
        if n_b < 1:
            raise DomainError(
                f"dynpi needs a register width n_b >= 1, got {n_b}")
        data += 3 * L ** 3 * n_b
    if task == "qpe":
        data += 1
        if model == "dynpi":
            data += 4 * L ** 3
    return data

"""Per-Trotter-step circuit costs: 2-qubit depth, Rz counts, T-gate counts.

Closed-form transcriptions only; no circuits are constructed.  Depth means
2-qubit-gate depth assuming all-to-all connectivity, Rz counts feed the
repeat-until-success synthesis cost, and everything comes in controlled and
uncontrolled variants (controlled steps are what phase estimation applies).

A priced (model, encoding) pair is declared by one ``STEP_LAYERS`` row: its
step-layer inventory, its rotations per site and its qubits per site, each a
function of the step's size.  A pair without a row is refused.

A hopping layer whose encoded terms weigh at most w is 2w+2 deep, 2w+6
controlled.  ``HOPPING_WEIGHT`` holds w (vc x/y/z 7/10/12, their stabilizer
dressings differ; compact 4), as ``verify encodings`` checks.  The other
depth tables are copied from the paper and follow no rule found here.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import DomainError

HOPPING_WEIGHT = {"x": 7, "y": 10, "z": 12, "compact": 4}


def _hopping_depth(w: int, controlled: bool) -> int:
    """Depth of a hopping layer whose terms have Pauli weight at most w."""
    return 2 * w + (6 if controlled else 2)


KINETIC_DEPTH = {(axis, c): _hopping_depth(HOPPING_WEIGHT[axis], c)
                 for c in (False, True) for axis in "xyz"}
COMPACT_KINETIC_DEPTH = {c: _hopping_depth(HOPPING_WEIGHT["compact"], c)
                         for c in (False, True)}

# Copied from the paper; no rule found here gives the tables below.
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
    qubits: int       # data qubits plus ancillas
    ancillas: int     # the control qubit(s) a controlled step adds


class StepCost(_StepCostFields):
    """Cost of one Trotter step: depth, rotation and qubit counts."""

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
    """The 6 kinetic sublayers are the (axis, parity) bond classes.  Their
    terms commute but share face qubits on which both act by Z, so 6
    assumes shared-Z scheduling; a qubit-disjoint greedy colouring of the
    encoded terms needs 7."""
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


class Pricing(NamedTuple):
    """What a priced (model, encoding) pair declares, as functions of the
    step's size."""

    stages: Callable[[bool, int], tuple[Stage, ...]]  # (controlled, size)
    rotations: Callable[[int], int]    # uncontrolled Rz per site
    qubits: Callable[[int], int]       # data qubits per site
    control_ancillas: int = 0          # per site, added by a controlled step


# The priced pairs.  Pionless prices 42 rotations per site, against the 38
# strings per site of its encoded H (8 per bond on 3 bonds, plus 14
# diagonal).  Dynpi adds three n_b-qubit boson registers per site, and its
# controlled step one ancilla per fermionic and per bosonic register.
STEP_LAYERS = {
    ("pionless", "vc"): Pricing(_pionless_vc, lambda _: 42, lambda _: 6),
    ("pionless", "compact"): Pricing(_pionless_compact, lambda _: 42,
                                     lambda _: 10),
    ("ope", "vc"): Pricing(_ope_vc, lambda R: 52 + 1024 * R, lambda _: 6),
    ("dynpi", "vc"): Pricing(_dynpi_vc,
                             lambda n_b: 33 * n_b ** 2 + 90 * n_b + 64,
                             lambda n_b: 6 + 3 * n_b, 4),
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
               L: int, size: int) -> StepCost:
    """One step of a priced pair on L^3 sites.  A controlled step doubles
    the rotations and adds one control qubit plus the pair's ancillas."""
    if L < 1:
        raise DomainError(f"lattice extent must be >= 1, got {L}")
    check_priced(model, encoding)
    row = STEP_LAYERS[(model, encoding)]
    sites = L ** 3
    rz = row.rotations(size) * sites
    ancillas = 0
    if controlled:
        rz *= 2
        ancillas = 1 + row.control_ancillas * sites
    return StepCost(compose_depth(row.stages(controlled, size), order), rz,
                    row.qubits(size) * sites + ancillas, ancillas)


def pionless_step_cost(encoding: str, order: int, controlled: bool,
                       L: int = 1) -> StepCost:
    """Step cost for the contact-interaction model."""
    if order not in (1, 2):
        raise DomainError(f"product-formula order must be 1 or 2, got {order}")
    return _step_cost("pionless", encoding, order, controlled, L, 0)


def interaction_ball_sites(ell_units: int) -> int:
    """Number of lattice sites within the interaction range, padded by one
    spacing: ceil(4 pi (ell/a + 1)^3 / 3)."""
    if ell_units < 1:
        raise DomainError(
            f"range cutoff must be >= 1 lattice unit, got {ell_units}")
    return math.ceil(4 * math.pi * (ell_units + 1) ** 3 / 3)


def ope_step_cost(ell_units: int, L: int, controlled: bool) -> StepCost:
    """Step cost for the one-pion-exchange model with range cutoff
    ell = ell_units * a_L (p=1 only)."""
    return _step_cost("ope", "vc", 1, controlled, L,
                      interaction_ball_sites(ell_units))


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
    return _step_cost("dynpi", "vc", 1, controlled, L, n_b)


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
    if t_count <= 0:
        raise DomainError(
            f"synthesis budget {eps_syn_total:g} is too large for {total_rz} "
            "rotations: the T-count fit needs eps < 512*rz to be positive")
    return t_count

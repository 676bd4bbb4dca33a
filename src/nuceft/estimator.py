"""End-to-end resource estimates: crossing-time evolution and phase
estimation, plus parameter sweeps.

The pipeline splits the total error budget into channels, sizes the range
cutoff or the boson registers from their shares, turns the commutator
coefficient into a Trotter step count, and prices the resulting circuit.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import NamedTuple

from .costs import (STEP_LAYERS, StepCost, check_priced, dynpi_step_cost,
                    ope_step_cost, pionless_step_cost, t_synthesis)
from .errors import DomainError, PrecisionError, check_count
from .params import CONSTANTS, OpeParams, convert_length, pionless_params_for
from .trotter import (CHANNELS, compose_total_error, dynpi_p1_bound,
                      ope_p1_bound, pionless_p1_coefficient,
                      pionless_p2_coefficient, steps_for_budget)
from .truncation import boson_cutoffs, choose_ope_cutoff

SCHEMA_VERSION = 1


class _TaskSpecFields(NamedTuple):
    task: str = "evolve"
    model: str = "pionless"
    encoding: str = "vc"
    order: int = 1
    L: int = 10
    a_L: float = 2.2                # fm
    eta: int = 40
    E_kin: float = 10.0             # MeV per nucleon (evolve task)
    delta_E: float = 1.0            # MeV (qpe task)
    E_max: float = 140.0            # MeV spectral range (qpe task)
    success: float = 0.3            # qpe success probability 1 - delta
    epsilon: float = 0.1
    convention: str = "fault-tolerant"
    ell_units: int | None = None    # force the range cutoff (lattice units)
    n_b: int | None = None          # force the boson register width


class TaskSpec(_TaskSpecFields):
    """One task to price; the inputs are checked on construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, choices in CHOICES.items():
            if getattr(self, name) not in choices:
                raise DomainError(f"unknown {name} {getattr(self, name)!r} "
                                  f"(choose from {choices})")
        # each count as the Python int it equals: an int32 L overflows in
        # the pipeline; a pin may be left out
        self = self._replace(
            order=check_count(self.order, "order"),
            L=check_count(self.L, "lattice extent L", 1),
            eta=check_count(self.eta, "eta", 1),
            **{pin: check_count(getattr(self, pin), pin, 1)
               for pin in _PINS if getattr(self, pin) is not None})
        for name in ("epsilon", "E_kin", "delta_E", "E_max", "success", "a_L"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, Real)
                    or not math.isfinite(value)):
                raise DomainError(
                    f"{name} must be a finite real number, got {value!r}")
        if self.eta > 4 * self.L ** 3:
            raise DomainError(
                f"eta must lie in [1, 4 L^3] = [1, {4 * self.L ** 3}] "
                f"(the modes of the lattice), got {self.eta}")
        if not self.epsilon > 0:
            raise DomainError(f"error budget must be positive, got {self.epsilon}")
        if not 0 < self.success < 1:
            raise DomainError(f"success probability must be in (0, 1), "
                              f"got {self.success}")
        for name, what in (("delta_E", "energy resolution"),
                           ("E_kin", "kinetic energy E_kin"),
                           ("E_max", "spectral range E_max")):
            if not (value := getattr(self, name)) > 0:
                raise DomainError(f"{what} must be positive, got {value}")
        return self


class _CostReportFields(NamedTuple):
    t: float                 # evolution time per application, MeV^-1
    r: int                   # Trotter steps (total, all applications)
    depth_total: int
    rz_total: int
    T_total: float
    qubits: int
    ancillas: int
    ledger: dict
    extras: dict | None = None


class CostReport(_CostReportFields):
    """What an estimate costs; ``extras`` defaults to a new empty dict."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        return self if self.extras is not None else self._replace(extras={})

    def to_json_dict(self) -> dict:
        return {"schema-version": SCHEMA_VERSION, **self._asdict()}


def crossing_time(a_L_fm: float, L: int, E_kin: float) -> float:
    """Time for a nucleon of the given kinetic energy to cross the lattice."""
    L = check_count(L, "lattice extent", 1)
    if not E_kin > 0:
        raise DomainError(f"kinetic energy must be positive, got {E_kin}")
    return convert_length(a_L_fm) * L * math.sqrt(CONSTANTS.M / (2 * E_kin))


def qpe_ancilla_bits(m: int, delta: float) -> int:
    """Precision bits plus the padding that boosts the success probability
    to 1 - delta."""
    if not 0 < delta < 1:
        raise DomainError(f"delta must be in (0, 1), got {delta}")
    m = check_count(m, "precision bits m", 1)
    return m + math.ceil(math.log2(1 / (2 * delta) + 0.5))


class _Frame(NamedTuple):
    """What a task fixes before any model is priced."""

    t: float              # evolved time per application, MeV^-1
    applications: int     # runs of the evolution the task needs
    controlled: bool      # whether each step is controlled on an ancilla
    energy: float         # energy scale the state carries, MeV
    ledger: dict          # the error budget split into channels
    extras: dict          # task-specific report fields


def _evolve(spec: TaskSpec) -> _Frame:
    """Crossing-time evolution: one run spending the whole budget."""
    t = crossing_time(spec.a_L, spec.L, spec.E_kin)
    ledger = compose_total_error(spec.model, spec.epsilon, spec.convention)
    return _Frame(t, 1, False, spec.eta * spec.E_kin, ledger, {})


def _qpe(spec: TaskSpec) -> _Frame:
    """Iterative phase estimation to delta_E: 2^n - 1 controlled runs of
    t = 2 pi / E_max.

    The quadrature split leaves sqrt(3) pi / 2^m of operator error, shared
    by the same channels as in the evolution task; the product share is
    spread over all applications.
    """
    if spec.delta_E >= spec.E_max:
        raise PrecisionError(
            f"energy resolution {spec.delta_E} MeV must be finer than the "
            f"spectral range {spec.E_max} MeV")
    try:
        m = math.ceil(math.log2(spec.E_max / spec.delta_E))
        n = qpe_ancilla_bits(m, 1 - spec.success)
        applications = 2 ** n - 1
        ledger = compose_total_error(
            spec.model, math.sqrt(3) * math.pi / 2 ** m, spec.convention)
        underflow = (ledger["prod"] / applications == 0
                     or ledger.get("eps_cut") == 0)
    except OverflowError:  # 2^m or 2^n is beyond the float range
        underflow = True
    if underflow:
        raise PrecisionError(
            f"energy resolution delta_E={spec.delta_E} MeV is too fine for "
            f"the spectral range {spec.E_max} MeV: the error share per "
            "application underflows to 0")
    return _Frame(2 * math.pi / spec.E_max, applications, True, spec.E_max,
                  ledger, {"m": m, "n": n, "applications": applications})


# Each pricer returns the commutator coefficient for steps_for_budget (no
# time in it), the sized intermediates it reports, and the step cost.

def _pionless(spec: TaskSpec, frame: _Frame) -> tuple[float, dict, StepCost]:
    params = pionless_params_for(spec.a_L)
    coeff = (pionless_p1_coefficient(spec.eta, params).total
             if spec.order == 1 else pionless_p2_coefficient(spec.eta, params))
    return (coeff, {},
            pionless_step_cost(spec.encoding, spec.order, frame.controlled,
                               spec.L))


def _ope(spec: TaskSpec, frame: _Frame) -> tuple[float, dict, StepCost]:
    ell = spec.ell_units
    if ell is None:
        # the range-cutoff error accrues over the total evolved time
        ell = choose_ope_cutoff(frame.ledger["trunc"],
                                frame.t * frame.applications, spec.eta,
                                spec.a_L)
    params = OpeParams.from_lecs(spec.a_L)
    zeta = ope_p1_bound(spec.eta, params, ell).total
    return (zeta, {"ell_units": ell, "zeta": zeta},
            ope_step_cost(ell, spec.L, frame.controlled))


def _dynpi(spec: TaskSpec, frame: _Frame) -> tuple[float, dict, StepCost]:
    lecs = OpeParams.from_lecs(spec.a_L)
    dig = boson_cutoffs(spec.eta, frame.energy, frame.ledger["eps_cut"], lecs,
                        spec.L, n_b=spec.n_b)
    xi = dynpi_p1_bound(spec.eta, lecs, dig, spec.L).total
    extras = {"n_b": dig.n_b, "pi_max": dig.pi_max, "Pi_max": dig.Pi_max,
              "xi": xi}
    return xi, extras, dynpi_step_cost(dig.n_b, spec.L, frame.controlled)


# model -> (pricer, the product-formula orders its bound covers, the pins
# it reads)
_MODELS = {"pionless": (_pionless, (1, 2), ()),
           "ope": (_ope, (1,), ("ell_units",)),
           "dynpi": (_dynpi, (1,), ("n_b",))}
# the TaskSpec fields that pin a sized intermediate, each reported in extras
# under its own name
_PINS = tuple(pin for _, _, read in _MODELS.values() for pin in read)
_TASKS = {"evolve": _evolve, "qpe": _qpe}
# each categorical TaskSpec field's values, from the table that prices them
CHOICES = {"task": tuple(_TASKS), "model": tuple(_MODELS),
           "encoding": tuple(dict.fromkeys(enc for _, enc in STEP_LAYERS)),
           "convention": tuple(dict.fromkeys(conv for _, conv in CHANNELS))}


def estimate(spec: TaskSpec) -> CostReport:
    """Resource estimate for crossing-time evolution or phase estimation."""
    check_priced(spec.model, spec.encoding)
    price, orders, pins = _MODELS[spec.model]
    if spec.order not in orders:
        raise DomainError(f"model {spec.model!r} is bounded only for "
                          f"order(s) {orders}, got {spec.order}")
    for name in _PINS:
        if name not in pins and getattr(spec, name) is not None:
            raise DomainError(f"model {spec.model!r} does not read {name}, "
                              f"got {getattr(spec, name)}")
    frame = _TASKS[spec.task](spec)
    try:
        coeff, extras, step = price(spec, frame)
    except ArithmeticError as exc:  # an a_L whose couplings leave the floats
        raise DomainError(
            f"model {spec.model!r} cannot be priced at a_L={spec.a_L:g} fm: "
            f"{type(exc).__name__}: {exc}") from exc
    r_app = steps_for_budget(spec.order, frame.t, coeff,
                             frame.ledger["prod"] / frame.applications)
    r = r_app * frame.applications
    rz_total = r * step.rz_count
    ledger = frame.ledger
    if "syn" not in ledger:
        # near-term circuits apply rotations natively; the T count is
        # informational, priced against the full budget
        ledger = dict(ledger, syn_nominal=spec.epsilon)
    T_total = t_synthesis(rz_total, ledger.get("syn", spec.epsilon))
    extras.update(frame.extras, coefficient=coeff, step_depth=step.depth_2q)
    if spec.task == "qpe":
        extras["r_per_application"] = r_app
    return CostReport(t=frame.t, r=r, depth_total=r * step.depth_2q,
                      rz_total=rz_total, T_total=T_total, qubits=step.qubits,
                      ancillas=step.ancillas, ledger=ledger, extras=extras)


# sweep axis -> the TaskSpec field it varies
SWEEP_FIELDS = {"eta": "eta", "L": "L", "epsilon": "epsilon",
                "ell": "ell_units", "n_b": "n_b"}
SWEEP_AXES = tuple(SWEEP_FIELDS)

SWEEP_HEADER = ("axis", "value", "r", "depth", "rz", "T", "qubits",
                "ell_or_nb", "notes")


def _sweep_point(template: TaskSpec, axis: str, value) -> dict:
    field_name = SWEEP_FIELDS[axis]
    row = dict(dict.fromkeys(SWEEP_HEADER, ""), axis=axis, value=value)
    try:
        # unparsed, through the checks of the constructor (not _replace)
        spec = TaskSpec(**{**template._asdict(), field_name: value})
        rep = estimate(spec)
    except DomainError as exc:
        row["notes"] = f"{type(exc).__name__}: {exc}"
        return row
    row.update(r=rep.r, depth=rep.depth_total, rz=rep.rz_total,
               T=repr(rep.T_total), qubits=rep.qubits,
               ell_or_nb=next((rep.extras[pin] for pin in _PINS
                               if pin in rep.extras), ""))
    return row


def sweep(template: TaskSpec, axis: str, grid) -> list[dict]:
    """One estimate per grid value; failures become row-level notes."""
    values = list(grid)
    if not values:
        raise DomainError("sweep grid is empty")
    if axis not in SWEEP_AXES:
        raise DomainError(f"unknown sweep axis {axis!r} "
                          f"(choose from {SWEEP_AXES})")
    return [_sweep_point(template, axis, v) for v in values]

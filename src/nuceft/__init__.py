"""Resource estimates for simulating lattice nuclear effective field
theories on quantum computers.

Symbolic Pauli/fermion algebra, fermion-to-qubit encodings, Trotter error
bounds with an exact small-system oracle, truncation/digitization bounds,
per-step circuit costs, and an end-to-end task estimator with a CLI.
"""

from importlib import import_module

from .estimator import CostReport, TaskSpec, estimate, sweep

__version__ = "0.1.0"

# the suites of ``nuceft verify``, named here so that the CLI lists them
# without loading the oracle; ``verify.SUITES`` maps each to its checks
VERIFY_SUITES = ("pauli", "encodings", "seminorm", "trotter")

# the algebra and the oracle need numpy; they load on first access (PEP 562)
# so that the estimator and the CLI import without it
_LAZY = {"FermionSum": "fock", "FermionTerm": "fock", "eta_seminorm": "fock",
         "PauliString": "pauli", "PauliSum": "pauli"}


def __getattr__(name):
    if name in _LAZY:
        value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CostReport", "TaskSpec", "estimate", "sweep",
    "FermionSum", "FermionTerm", "eta_seminorm",
    "PauliString", "PauliSum",
    "__version__",
]

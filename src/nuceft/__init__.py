"""Resource estimates for simulating lattice nuclear effective field
theories on quantum computers.

Symbolic Pauli/fermion algebra, fermion-to-qubit encodings, Trotter error
bounds with an exact small-system oracle, truncation/digitization bounds,
per-step circuit costs, and an end-to-end task estimator with a CLI.
"""

from .estimator import CostReport, TaskSpec, estimate, sweep
from .fock import FermionSum, FermionTerm, eta_seminorm
from .pauli import PauliString, PauliSum

__version__ = "0.1.0"

__all__ = [
    "CostReport", "TaskSpec", "estimate", "sweep",
    "FermionSum", "FermionTerm", "eta_seminorm",
    "PauliString", "PauliSum",
    "__version__",
]

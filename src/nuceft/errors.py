"""Exception taxonomy shared across the package.

CLI mapping: ConfigError -> exit 1, DomainError (and subclasses) -> exit 2.
Everything else is a programming error and propagates normally.
"""

import operator


class NuceftError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(NuceftError, ValueError):
    """Operands act on different numbers of qubits."""


class SizeError(NuceftError, ValueError):
    """Dense-oracle request exceeds the configured cap."""


class GeometryError(NuceftError, ValueError):
    """Lattice sites do not satisfy the required adjacency."""


class UnsupportedOperatorError(NuceftError, ValueError):
    """Operator cannot be represented in the requested encoding."""


class ContractError(NuceftError, ValueError):
    """An input violates a stated precondition (e.g. non-Hermitian layer)."""


class DomainError(NuceftError, ValueError):
    """Inputs lie outside the validity domain of a formula."""


class UnreachableBudgetError(DomainError):
    """No cutoff within the search range satisfies the error budget."""


class PrecisionError(DomainError):
    """Requested energy resolution is not finer than the energy scale."""


class ConfigError(NuceftError, ValueError):
    """Malformed configuration file or flag combination."""


def check_count(value, what: str, minimum: int = 0, error=DomainError) -> int:
    """The Python int that a count equals, refusing with ``error`` (named
    by ``what``) a bool, a value that operator.index does not take (2.0 is
    refused) and a value below ``minimum``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise error(f"{what} must be an integer, got {value!r}")
    value = operator.index(value)
    if value < minimum:
        raise error(f"{what} must be >= {minimum}, got {value}")
    return value

"""Exception types shared across the package."""
from __future__ import annotations


class TameliftError(Exception):
    """Base class for all domain errors raised by this package; `exit_code`
    is the command line's exit code for the error."""

    exit_code = 2  # a validation or requested check failed


class DatumValidationError(TameliftError):
    """A root datum violates one of its structural invariants.

    `invariant` carries a short machine-readable name of the failed check.
    """

    def __init__(self, invariant: str, message: str):
        super().__init__(f"{invariant}: {message}")
        self.invariant = invariant


class ChamberMismatchError(TameliftError):
    """Two cocharacters were required to share an open chamber but do not."""


class InvalidPairError(TameliftError):
    """An inertial pair fails the Frobenius compatibility congruence."""


class GuardError(TameliftError):
    """An enumeration was requested beyond its configured desk-scale guard."""

    exit_code = 3


class LiftHypothesisError(TameliftError):
    """A lift was requested for a Weyl element whose f-th power is not 1."""


class InternalConsistencyError(TameliftError):
    """A re-verification that must hold by construction failed."""

    exit_code = 4


class MultisetDivisionError(TameliftError):
    """Multiset division requested with a non-dividing multiplicity."""

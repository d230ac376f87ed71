"""Exception hierarchy.  Every error that a spec file can trigger carries a
``where`` string (a dotted path into the file, e.g. ``"hopf.antipode"``) so the
CLI can print positioned diagnostics."""

from __future__ import annotations


class QpbError(Exception):
    """Base class; ``where`` locates the offending part of the input."""

    def __init__(self, message: str, where: str | None = None):
        self.where = where
        super().__init__(message if where is None else f"{where}: {message}")


class InputError(QpbError):
    pass


class SpecFileError(InputError):
    """Parse or schema error, positioned."""


class BadScalarLiteral(SpecFileError):
    pass


class UnknownPreset(InputError):
    pass


class BudgetExceeded(QpbError):
    pass


class DegreeBudget(BudgetExceeded):
    pass


# --- build-time rejections (exit code 2 territory) -------------------------

class NotCoaction(QpbError):
    pass


class NotPrincipal(QpbError):
    pass


class NoHaar(QpbError):
    pass


class NonUnique(QpbError):
    pass


class NotIdeal(QpbError):
    pass


class NotAdInvariant(QpbError):
    pass


class NotStarCompatible(QpbError):
    pass


class NotClassical(QpbError):
    pass


class NotCommutative(QpbError):
    pass


class NotProductBundle(QpbError):
    pass


class SplittingIncompatible(QpbError):
    pass


class NotCovariant(QpbError):
    pass


class EquivalenceViolation(QpbError):
    """The four classicality tests disagreed; this traps library bugs."""


class ValidationFailed(QpbError):
    """An axiom required for construction failed; carries the witness record."""

    def __init__(self, message: str, where: str | None = None, record=None):
        super().__init__(message, where)
        self.record = record

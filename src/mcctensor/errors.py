"""Exception types shared across the package.

Every error raised on bad input derives from MccError, so callers (and the
CLI) can catch one type.  Subclasses carry structured witnesses where the
operation contract promises one (a violating orbit pair, a parse line, an
offending cycle, ...).
"""

from __future__ import annotations


class MccError(ValueError):
    """Base class for all validation and precondition failures."""


class LabelMismatchError(MccError):
    """Composition/application attempted between incompatible labeled sets."""


class SizeCapError(MccError):
    """An enumeration would exceed the configured size cap."""


class TowerValidationError(MccError):
    """A tower fails one of the structural invariants (fiber sizes, group
    order, commutation), or references a level that does not exist."""


class MissingShiftError(MccError):
    """An operation needs the distinguished shift and the tower has none."""


class InvarianceError(MccError):
    """A table fails a required invariance; `pair` is a violating orbit pair
    (f, g.f) with table values that differ."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class DepthError(MccError):
    """A requested depth/level is out of range for the tower or window."""


class CompatibilityError(MccError):
    """A graph morphism entry connects edges with different endpoints."""


class ChainingError(MccError):
    """A bimodule term fails idempotent matching along its arrow."""


class ZeroInputCycleError(MccError):
    """The zero-input terms of a bimodule contain a directed cycle; `cycle`
    lists the generators on it."""

    def __init__(self, message, cycle=None):
        super().__init__(message)
        self.cycle = cycle or []


class CertificateError(MccError):
    """A vanishing certificate was required but refused; `report` holds the
    full certificate report including the failed check."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class CrossCheckError(MccError):
    """Two independent computations of one quantity disagree: an internal
    invariant failed, not the input.  `values` maps each side of the
    comparison to what it computed."""

    def __init__(self, message, values=None):
        super().__init__(message)
        self.values = values or {}


class ParseError(MccError):
    """A text artifact failed to parse; `line` is the 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line

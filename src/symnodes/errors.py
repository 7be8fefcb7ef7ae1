"""Exception hierarchy shared by all symnodes modules."""


class SymnodesError(Exception):
    """Base class for all errors raised by this package."""


class OutsideDomainError(SymnodesError, ValueError):
    """A coordinate lies outside the reference domain (beyond tolerance)."""


class InfeasibleParameterError(SymnodesError, ValueError):
    """An orbit parameter vector violates its linear constraints."""


class ConstraintConflictError(SymnodesError, ValueError):
    """A set of linear constraints has an empty feasible region."""


class IncompatibleCollectionError(SymnodesError):
    """An orbit collection cannot realize a prescribed face distribution."""


class DegenerateDistributionError(SymnodesError):
    """A node set contains (near-)coincident nodes."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class UnisolvencyError(SymnodesError):
    """A node set does not uniquely determine an interpolant."""


class NoViableCollectionError(SymnodesError):
    """The element's orbit collection could not be pinned, started or
    optimized; the message names the failing stage."""


class UnsupportedBaselineError(SymnodesError, ValueError):
    """The requested baseline distribution is not defined for this element."""


class NumericalError(SymnodesError):
    """An internal numerical consistency check failed."""


class NodeFileError(SymnodesError):
    """A node file is malformed or violates its declared header."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line

"""Exception hierarchy shared across the package."""


class HJJError(Exception):
    """Base class for all package-specific errors."""


class ContainmentViolation(HJJError):
    """A subspace expected to be contained in another is not.

    Raised by quotient computations when B2 is not inside Z2; this signals
    an invalid representation (or an upstream bug), never a tolerance issue.
    """


class NotACochain(HJJError):
    """A coboundary operand or quadratic cochain breaks its shape or compatibility law."""


class InvalidCocycle(HJJError):
    """A 2-cochain used to build an extension has a nonzero coboundary."""

    def __init__(self, message, triple=None, residual=None):
        super().__init__(message)
        self.triple = triple
        self.residual = residual


class InvalidRepresentation(HJJError):
    """The (V, rho, beta) data does not satisfy the representation laws."""


class UnsupportedSystem(HJJError):
    """A polynomial system falls outside the built-in elimination patterns."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


class DegenerateForm(HJJError):
    """A bilinear form required to be nondegenerate has determinant zero."""


class PreconditionFailure(HJJError):
    """A constructive operation was called with inputs violating a stated
    hypothesis; carries the name of the failing identity and a residual."""

    def __init__(self, message, identity=None, residual=None):
        super().__init__(message)
        self.identity = identity
        self.residual = residual


class ParseError(HJJError):
    """Malformed document text (not JSON, or structurally unreadable)."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(HJJError):
    """Well-formed JSON that does not validate against a document schema."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class UnknownEntry(HJJError):
    """Catalog lookup with a name that is not in the catalog."""


class MissingParameter(HJJError):
    """Catalog instantiation without a value for one of the entry's symbols."""

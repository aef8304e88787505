"""Exception types shared across the package."""


class GrCayleyError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(GrCayleyError, ValueError):
    """A ring, graph, or family parameter is out of the supported range."""


class ModulusError(GrCayleyError, ValueError):
    """A modulus polynomial fails a required property (monic, irreducible, primitive)."""


class IntegrityError(GrCayleyError):
    """An internal cross-check failed; the computed structure is inconsistent."""


class SizeError(GrCayleyError, ValueError):
    """The requested computation exceeds a hard size cutoff."""

"""Exception types shared across the package.

Every failure mode that callers are expected to distinguish gets its own
class; the CLI maps them onto exit codes.
"""


class TernrepError(Exception):
    """Base class for all package-specific errors."""


class NonResidueError(TernrepError, ValueError):
    """A quadratic equation mod p has no solution."""


class NotInvertibleError(TernrepError, ValueError):
    """Modular inverse requested for a non-unit."""


class NonCoprimeModuliError(TernrepError, ValueError):
    """CRT moduli share a common factor."""


class NotRepresentableError(TernrepError, ValueError):
    """A binary form a^2 + c*b^2 does not represent the given integer."""


class ResourceCapError(TernrepError, RuntimeError):
    """A bounded search or input ran out: the q search examined
    --max-prime-candidates values or reached PRIMALITY_LIMIT, a number to
    factor reached PRIMALITY_LIMIT, a scan reached past SCAN_HI_LIMIT, an
    oracle search passed ORACLE_STEP_BUDGET, or the lattice scan passed
    LATTICE_STEP_BUDGET."""


class InternalError(TernrepError, RuntimeError):
    """An invariant that the construction guarantees failed to hold."""

"""Exception types raised by the library.

Every failure mode that callers are expected to catch has a named class here;
generic ValueError/TypeError are reserved for programming errors.
"""

__all__ = [
    "LopStokesError",
    "NonPositiveParameter",
    "EqualDensities",
    "OutOfSector",
    "WrongSign",
    "SingularDetL",
    "NonPositiveOmega",
    "HeightNotInvertible",
    "NoCutoffFound",
    "ZeroModeData",
    "QuadratureFailure",
    "ConfigError",
    "WorkerLost",
]


class LopStokesError(Exception):
    """Base class for all library errors."""


class NonPositiveParameter(LopStokesError):
    """A physical parameter that must be positive is zero or negative."""


class EqualDensities(LopStokesError):
    """The two phase densities coincide; the derived surface-tension weights blow up."""


class OutOfSector(LopStokesError):
    """A resolvent parameter lies outside the admissible sector."""


class WrongSign(LopStokesError):
    """A quantity with a guaranteed sign (e.g. root real parts) violated it."""


class SingularDetL(LopStokesError):
    """The boundary-coupling determinant is numerically singular at the requested point."""


class NonPositiveOmega(LopStokesError):
    """A scanned lower-bound constant came out nonpositive."""


class HeightNotInvertible(LopStokesError):
    """lambda + K is too close to zero to invert the height equation at this point."""


class NoCutoffFound(LopStokesError):
    """No magnitude cutoff makes the height lower bound hold on the scanned grid."""


class ZeroModeData(LopStokesError):
    """Boundary data carries a zero-frequency component beyond tolerance."""


class QuadratureFailure(LopStokesError):
    """A quadrature's error estimate exceeds its relative tolerance."""


class ConfigError(LopStokesError):
    """Run configuration file is malformed or contains unknown/invalid entries."""


class WorkerLost(LopStokesError):
    """A process-pool worker died (a signal, the OOM killer) before returning its result."""

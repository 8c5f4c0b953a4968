"""Exception hierarchy shared across the package."""


class TcaError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(TcaError):
    """Array arguments have incompatible shapes."""


class SingularMatrixError(TcaError):
    """A matrix required to be nonsingular is singular to working tolerance."""


class NotPositiveDefiniteError(TcaError):
    """A covariance matrix does not admit a Cholesky factorisation."""


class RankDeficientRegressorsError(TcaError):
    """The regressor cross-product matrix is numerically singular."""


class ZeroImpactError(TcaError):
    """The normalisation response is too close to zero to rescale on."""


class InconsistentNormalizationError(TcaError):
    """An identified shock column has the wrong length for the system."""


class PathExplosionError(TcaError):
    """Path enumeration exceeded the configured cap."""


class ParseError(TcaError):
    """Condition text could not be parsed.

    Carries the 0-based character position at which parsing failed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ParseError):
    """A condition references a variable name not present in the ordering."""


class HorizonOutOfRangeError(ParseError):
    """A condition references a horizon outside 0..h."""


class TermExplosionError(TcaError):
    """A condition's evaluator plan grew beyond the cap."""


class BootstrapUnstableError(TcaError):
    """Too many bootstrap draws were discarded as degenerate."""

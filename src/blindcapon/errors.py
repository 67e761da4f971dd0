"""Exception hierarchy shared across the package."""


class BlindCaponError(Exception):
    """Base class for all errors raised by this package."""


class SingularCovariance(BlindCaponError):
    """Covariance matrix could not be factorized even after regularization."""


class DegenerateSignal(BlindCaponError):
    """Extracted signal has (numerically) zero power."""


class ScoreDegenerate(BlindCaponError):
    """Score normalizer nu is too close to zero to be usable."""


class DomainError(BlindCaponError, ValueError):
    """Parameter outside its mathematically valid domain."""


class RankDeficient(BlindCaponError):
    """Subspace method cannot proceed because of a rank deficiency."""


class Diverged(BlindCaponError):
    """Iterate left the admissible parameter region."""

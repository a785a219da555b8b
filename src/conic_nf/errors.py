"""Exception hierarchy shared across the package."""


class ConicError(Exception):
    """Base class for all errors raised by conic_nf."""


class InvalidD(ConicError):
    """d is 0 or 1, which do not define a quadratic field."""


class NotSquarefree(ConicError):
    """d is divisible by a square > 1."""


class NotEuclidean(ConicError):
    """Operation needs a norm-Euclidean field (Q or d in {-1,-2,-3,-7,-11})."""


class AllZero(ConicError):
    """gcd of an all-zero list is undefined."""


class EvenPrime(ConicError):
    """Operation is not defined at this prime: an odd-prime operation at a
    prime over 2, or the 2-adic Hilbert symbol at a prime over 2 whose
    completion is not Q_2."""


class UndecidedError(ConicError):
    """A bounded search was exhausted without reaching a verdict."""


class FactorizationFailed(UndecidedError):
    """Integer factorization exceeded the configured effort."""


class NotPositiveDefinite(ConicError):
    """Gram matrix fed to LLL is not positive definite."""


class PellSearchExhausted(UndecidedError):
    """A search found no solution within its fixed bound, or the descent ran too deep."""


class NotSolvable(ConicError):
    """The equation fails the local conditions, so it has no nonzero solution."""


class UnsupportedField(ConicError):
    """Holzer reduction only covers Q and the five Euclidean imaginary fields."""


class BaseDegenerate(ConicError):
    """Parameterisation needs a base solution with z != 0."""


class PreconditionViolated(ConicError):
    """An exact precondition check failed."""


class ParseError(ConicError):
    """Element or corpus text does not match the wire grammar."""

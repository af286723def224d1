"""Exception hierarchy shared by all quadrics modules."""


class QuadricsError(Exception):
    """Base class for every error raised by this package."""


# -- field construction and arithmetic ----------------------------------

class NonPrimeCharacteristic(QuadricsError):
    pass


class UnsupportedSize(QuadricsError):
    pass


class NoModulusAvailable(QuadricsError):
    pass


class DivisionByZero(QuadricsError):
    pass


class FieldMismatch(QuadricsError):
    pass


class InfiniteField(QuadricsError):
    pass


class InvalidElement(QuadricsError):
    pass


# -- quadratic spaces, vectors and matrices -----------------------------

class DimensionMismatch(QuadricsError):
    pass


class WrongShape(QuadricsError):
    pass


class NonUnitNorm(QuadricsError):
    pass


class SingularMatrix(QuadricsError):
    pass


class NotAnIsometry(QuadricsError):
    pass


# -- quadric points and counting ----------------------------------------

class InvariantViolation(QuadricsError):
    pass


class InvalidPrimePower(QuadricsError):
    pass


class TooLarge(QuadricsError):
    pass


# -- group actions -------------------------------------------------------

class NotOnQuadric(QuadricsError):
    pass


# -- transport ------------------------------------------------------------

class NormMismatch(QuadricsError):
    pass


class SearchExhausted(QuadricsError):
    pass

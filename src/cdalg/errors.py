"""Exception hierarchy shared by all cdalg modules."""


class CdalgError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(CdalgError):
    """An element, matrix or map does not conform to the algebra's dimension."""


class NonUnitalError(CdalgError):
    """The operation needs a distinguished unit but the algebra has none."""


class NotQuadraticError(CdalgError):
    """The algebra fails the squares-are-dependent requirement."""


class NotLocallyComplexError(CdalgError):
    """The algebra is not locally complex, so the requested analysis is undefined."""


class NotAlternativeError(CdalgError):
    """The algebra fails an alternativity precondition."""


class InvalidGradingError(CdalgError):
    """The supplied even/odd split is not a valid superalgebra grading."""


class UnknownAlgebraError(CdalgError):
    """No built-in algebra matches the requested name."""


class UnsupportedRationalClassError(CdalgError):
    """A recognizer needs a rational normalized basis that it cannot build.

    The message names the reason: the input's norm form is not a sum of
    squares over Q by a named invariant (the quaternions with i*i = -1 and
    j*j = -3 fail at 3), a number could not be factored, or a search ran
    out.  The algebra may still be isomorphic to the target over the reals.
    """


class InconsistentInputError(CdalgError):
    """Verified preconditions contradict each other; the input data is broken."""


class MalformedInputError(CdalgError):
    """A file or expression could not be parsed."""

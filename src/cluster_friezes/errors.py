"""Shared exception types."""


class DimensionMismatch(ValueError):
    """Operands live over different numbers of variables."""


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


class ZeroDenominator(ZeroDivisionError):
    """Attempted to build a fraction with denominator zero."""


class SubtractionFreeViolation(ValueError):
    """Tropical evaluation on an expression with a negative coefficient."""


class TropOverflow(OverflowError):
    """A tropical coordinate left the checked machine-integer range."""


class ExponentOverflow(TropOverflow):
    """A Laurent exponent or total degree left the packed range."""


class BudgetExceeded(RuntimeError):
    """Exchange-graph enumeration hit its seed budget (likely infinite type)."""


class NotFiniteType(ValueError):
    """Operation requires a Cartan matrix of finite type."""


class NegativeExponent(ValueError):
    """A cluster monomial exponent vector had a negative entry."""


class NotAdmissible(ValueError):
    """Element failed the pointed-expansion admissibility check."""


class NotFound(RuntimeError):
    """Exchange-graph search failed to locate a required vertex (bug)."""


class InternalDisagreement(AssertionError):
    """Two routes that must agree produced different values (bug)."""

"""Error types shared by the olim41 modules, and the integer checks."""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class SingularPointError(DomainError):
    """Evaluation requested at a singular point (zero coordinate,
    logarithm of zero, or a gradient on the dilogarithm cut)."""


class BranchInconsistencyError(DomainError):
    """The branch-correction ratio -D/(2*pi*i) is not close to the
    admissible integer or half-integer grid; the point is not a critical
    point of any branch of the potential."""


class UnsupportedFramingError(DomainError):
    """The direct surgery formula is stated for positive framing only."""


class ReferenceDataError(DomainError):
    """Malformed or inconsistent geometry reference data."""


class PrecisionExhaustedError(DomainError):
    """A q-series replay reached its round cap without meeting the
    relative accuracy budget, and the sum is not certified to be zero."""


def checked_integer(value, name):
    """value itself when it is an int (bool excluded); otherwise a
    DomainError that calls it name, such as "color" or "order"."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return value


def within_float_range(value, name):
    """value itself when the int value has a float; otherwise a
    DomainError that calls it name. From about 2^1024 on, none has."""
    try:
        float(value)
    except OverflowError:
        raise DomainError(f"{name} passes the float range: it has "
                          f"{value.bit_length()} bits") from None
    return value

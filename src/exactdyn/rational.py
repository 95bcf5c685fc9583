"""Exact rational values and their repo-wide text format.

Every quantity in this package is a ``fractions.Fraction``: unbounded,
always in canonical reduced form, with exact comparison.  The text format
is an optional leading ``-``, then ``num/den`` in ASCII decimal digits, ``/den``
omitted when the denominator is 1 (``-1/3``, ``0``, ``7``).  It is plain
``str`` formatting, so like ``str()`` it stops at Python's int-text limit
(``sys.get_int_max_str_digits()``); the CLI lifts that limit while it
renders.  ``fixed_point`` writes the one d-place decimal format, shared by
``truncate_decimal`` and the measured readouts.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

_RATIONAL_RE = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse the repo text format; raises ValueError on malformed input."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"not a rational: {text!r}")
    sign, num, den = m.groups()
    if den is not None and int(den) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    value = Fraction(int(num), int(den) if den is not None else 1)
    return -value if sign else value


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def require_unit_interval(q: Fraction, what: str = "value") -> Fraction:
    if q < 0 or q > 1:
        raise DomainError(f"{what} {format_rational(q)} outside [0,1]")
    return q


def truncate_decimal(q: Fraction, digits: int) -> str:
    """Decimal string of q truncated toward zero to `digits` places."""
    if digits < 0:
        raise ValueError("digits must be >= 0")
    units = abs(q.numerator) * 10**digits // q.denominator
    return ("-" if q < 0 else "") + fixed_point(units, digits)


def fixed_point(units: int, digits: int) -> str:
    """units / 10^digits, for units >= 0, with exactly `digits` places (no point at 0)."""
    if digits == 0:
        return str(units)
    text = str(units).zfill(digits + 1)
    return f"{text[:-digits]}.{text[-digits:]}"

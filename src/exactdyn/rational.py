"""Exact rational values and their repo-wide text format.

Every quantity in this package is a ``fractions.Fraction``: unbounded,
always in canonical reduced form, with exact comparison.  The text format
is an optional leading ``-``, then ``num/den`` in decimal with ``/den``
omitted when the denominator is 1 (``-1/3``, ``0``, ``7``).
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

from .errors import DomainError

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

_RATIONAL_RE = re.compile(r"^(-?)(\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse the repo text format; raises ValueError on malformed input."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational: {text!r}")
    sign, num, den = m.groups()
    if den is not None and int(den) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    value = Fraction(int(num), int(den) if den is not None else 1)
    return -value if sign else value


def _digits(n: int) -> str:
    """n in decimal at any size: str() stops at sys.get_int_max_str_digits()."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return _digits(q.numerator)
    return f"{_digits(q.numerator)}/{_digits(q.denominator)}"


def require_unit_interval(q: Fraction, what: str = "value") -> Fraction:
    if q < 0 or q > 1:
        raise DomainError(f"{what} {format_rational(q)} outside [0,1]")
    return q


def truncate_decimal(q: Fraction, digits: int) -> str:
    """Decimal string of q truncated toward zero to `digits` places."""
    if digits < 0:
        raise ValueError("digits must be >= 0")
    scale = 10**digits
    units = abs(q.numerator) * scale // q.denominator
    sign = "-" if q < 0 else ""
    if digits == 0:
        return f"{sign}{units}"
    return f"{sign}{units // scale}.{units % scale:0{digits}d}"

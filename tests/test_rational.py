from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from exactdyn.rational import format_rational, parse_rational, truncate_decimal

_RATIONALS = st.builds(Fraction, st.integers(-(10**60), 10**60), st.integers(1, 10**60))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_RATIONALS)
def test_rational_text_round_trips(q):
    assert parse_rational(format_rational(q)) == q


def _truncate_decimal_by_formula(q: Fraction, digits: int) -> str:
    """Reference: truncation through divmod by 10^digits and a zero-padded f-string."""
    scale = 10**digits
    units = abs(q.numerator) * scale // q.denominator
    sign = "-" if q < 0 else ""
    if digits == 0:
        return f"{sign}{units}"
    return f"{sign}{units // scale}.{units % scale:0{digits}d}"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_RATIONALS, st.integers(0, 12))
@example(Fraction(-1, 3), 2)
@example(Fraction(-1, 10**13), 12)  # truncates to "-0.000000000000"
def test_truncate_decimal_matches_the_formula(q, digits):
    assert truncate_decimal(q, digits) == _truncate_decimal_by_formula(q, digits)

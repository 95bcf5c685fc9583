from fractions import Fraction

from hypothesis import given, settings, strategies as st

from exactdyn.rational import format_rational, parse_rational

_RATIONALS = st.builds(Fraction, st.integers(-(10**60), 10**60), st.integers(1, 10**60))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_RATIONALS)
def test_rational_text_round_trips(q):
    assert parse_rational(format_rational(q)) == q

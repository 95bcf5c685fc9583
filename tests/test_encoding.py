from fractions import Fraction

import pytest

from exactdyn.encoding import (
    Encoding,
    decode_rational,
    encode_rational,
    pair,
    translate,
    unpair,
)
from exactdyn.errors import NotACodeError


@pytest.mark.parametrize(
    "n, p, code",
    [(0, 0, 0), (1, 0, 1), (0, 1, 2), (1, 1, 4), (2, 2, 12)],
)
def test_pair_examples(n, p, code):
    assert pair(n, p) == code
    assert unpair(code) == (n, p)


def test_pair_rejects_negatives():
    with pytest.raises(ValueError):
        pair(-1, 0)
    with pytest.raises(ValueError):
        unpair(-3)


@pytest.mark.parametrize(
    "value, code",
    [(Fraction(0), 2), (Fraction(1, 2), 12), (Fraction(-1, 3), 31)],
)
def test_encode_examples(value, code):
    assert encode_rational(value, Encoding.CANONICAL) == code
    assert decode_rational(code, Encoding.CANONICAL) == value


def test_decode_rejects_non_codes():
    with pytest.raises(NotACodeError, match="-1 is negative"):
        decode_rational(-1)
    # unpair(3) = (2, 0): denominator 0
    with pytest.raises(NotACodeError):
        decode_rational(3)
    # sign flag above 1: encode by hand with sign=2
    with pytest.raises(NotACodeError):
        decode_rational(pair(pair(2, 1), 1))
    # unreduced 2/4
    with pytest.raises(NotACodeError):
        decode_rational(pair(pair(0, 2), 4))
    # negative zero
    with pytest.raises(NotACodeError):
        decode_rational(pair(pair(1, 0), 1))
    # zero with denominator 2
    with pytest.raises(NotACodeError):
        decode_rational(pair(pair(0, 0), 2))


def test_translate_examples():
    assert translate(12, Encoding.CANONICAL, Encoding.ALTERNATIVE) == 26
    with pytest.raises(NotACodeError):
        translate(3, Encoding.CANONICAL, Encoding.ALTERNATIVE)


import random
from fractions import Fraction

import pytest

from exactdyn import dissipative
from exactdyn.errors import DomainError
from exactdyn.rational import ONE, ZERO


def test_step_examples():
    assert dissipative.step(Fraction(9, 10)) == Fraction(81, 100)
    assert dissipative.step(Fraction(0)) == 0
    assert dissipative.step(Fraction(1)) == 1
    with pytest.raises(DomainError):
        dissipative.step(Fraction(11, 10))


def test_limit_state():
    assert dissipative.limit_state(Fraction(9, 10)) == 0
    assert dissipative.limit_state(Fraction(0)) == 0
    assert dissipative.limit_state(Fraction(1)) == 1
    assert dissipative.limit_state(Fraction(999999, 10**6)) == 0


def test_iterate_approx_exact_while_small():
    for eps in (Fraction(1, 10**9), Fraction(1, 10**12)):
        assert dissipative.iterate_approx(Fraction(9, 10), 1, eps) == Fraction(81, 100)
    for n in (9, 11):
        assert dissipative.iterate_approx(Fraction(0), n, Fraction(1, 10)) == 0
        assert dissipative.iterate_approx(Fraction(1), n, Fraction(1, 10)) == 1
    x = Fraction(3, 7)
    assert dissipative.iterate_approx(x, 5, Fraction(1, 10**9)) == x ** (2**5)


def test_iterate_approx_accuracy_against_exact_power():
    rng = random.Random(8)
    for _ in range(40):
        x = Fraction(rng.randrange(10**4 + 1), 10**4)
        n = rng.randrange(7)
        eps = Fraction(1, 10 ** (1 + rng.randrange(8)))
        exact = x ** (2**n)
        got = dissipative.iterate_approx(x, n, eps)
        assert got <= exact  # one-sided from below
        assert exact - got <= eps
        assert got >= 0


def test_iterate_approx_beyond_the_exactness_cap():
    # 2^12 squarings of 9/10 need ~13600 bits exactly, over the cap
    x = Fraction(9, 10)
    eps = Fraction(1, 10**6)
    exact = Fraction(9**4096, 10**4096)
    got = dissipative.iterate_approx(x, 12, eps)
    assert got.denominator.bit_length() <= 2 * dissipative.EXACT_BITS_CAP
    assert 0 <= got <= exact
    assert exact - got <= eps


def _iterate_approx_by_fractions(x: Fraction, n: int, eps: Fraction) -> Fraction:
    # the Fraction loop iterate_approx replaced, kept as its reference
    amplified = (eps.denominator << (n + 4)) // eps.numerator
    prec = max(dissipative.EXACT_BITS_CAP, amplified.bit_length())
    unit = 1 << prec
    lo = hi = x
    for _ in range(n):
        lo = lo * lo
        hi = hi * hi
        if lo.denominator.bit_length() > prec:
            lo = Fraction((lo.numerator << prec) // lo.denominator, unit)
        if hi.denominator.bit_length() > prec:
            hi = Fraction(-((-hi.numerator << prec) // hi.denominator), unit)
            if hi > 1:
                hi = ONE
    return lo if lo > 0 else ZERO


def _first_date_below_by_fractions(x: Fraction, threshold: Fraction, max_date: int) -> int | None:
    value = x
    for n in range(max_date + 1):
        if value < threshold:
            return n
        value = value * value
    return None


def test_integer_squaring_matches_the_fraction_loop():
    rng = random.Random(5)
    epsilons = [Fraction(1, 10**k) for k in (1, 9, 30, 300, 1300)]  # 10^-1300 needs prec > cap
    assert (10**1300).bit_length() > dissipative.EXACT_BITS_CAP
    # 3^(2^11) fits in the cap and 3^(2^12) does not: rounding starts at the last date
    assert (3 ** 2**11).bit_length() <= dissipative.EXACT_BITS_CAP < (3 ** 2**12).bit_length()
    # (2^1024 - 1)^4 has exactly cap bits: date 2 is still exact
    assert ((2**1024 - 1) ** 4).bit_length() == dissipative.EXACT_BITS_CAP
    fixed = [Fraction(0), ONE, Fraction(1, 2), Fraction(2, 3), Fraction(2**1023, 2**1024 - 1),
             Fraction(1, 2**40), Fraction(2**39 + 1, 2**40), Fraction(2**40 - 1, 2**40)]
    for n in [*range(13), 16, 32, 64]:
        m = max(2, 2**n + rng.randrange(-(2**n) // 8, 2**n // 8 + 1))
        q = rng.randrange(1, 10**6 + 1)
        starts = [*fixed, 1 - Fraction(1, m), Fraction(rng.randrange(q + 1), q)]
        for i, x in enumerate(starts):
            # every eps at every short date; one eps per start, in turn, at long ones
            for eps in epsilons if n <= 12 else [epsilons[(i + n) % len(epsilons)]]:
                got = dissipative.iterate_approx(x, n, eps)
                want = _iterate_approx_by_fractions(x, n, eps)
                assert type(got) is Fraction and got == want, (x, n, eps)
        if n <= 8:  # past date 8, exact squares of 40-bit denominators outgrow 10^4 bits
            for threshold in (Fraction(1, 2), Fraction(1, 1000), epsilons[2], Fraction(3, 2)):
                for x in starts:
                    want = _first_date_below_by_fractions(x, threshold, n)
                    assert dissipative.first_date_below(x, threshold, n) == want


def test_nine_tenths_drops_below_threshold_at_seven():
    threshold = Fraction(1, 1000)
    assert dissipative.first_date_below(Fraction(9, 10), threshold, 10) == 7
    # the approximation sees the same crossing
    eps = Fraction(1, 10**7)
    assert dissipative.iterate_approx(Fraction(9, 10), 6, eps) > threshold
    assert dissipative.iterate_approx(Fraction(9, 10), 7, threshold) <= threshold
    assert dissipative.iterate_approx(Fraction(9, 10), 7, eps) + eps < threshold


def test_first_date_below_edges():
    assert dissipative.first_date_below(Fraction(0), Fraction(1, 2), 0) == 0
    assert dissipative.first_date_below(Fraction(1), Fraction(1, 2), 12) is None
    assert dissipative.first_date_below(Fraction(1, 2), Fraction(1), 5) == 0
    with pytest.raises(DomainError):
        dissipative.first_date_below(Fraction(9, 10), Fraction(0), 5)


def test_discontinuity_witness_examples():
    w = dissipative.discontinuity_witness(Fraction(1, 100))
    assert (w.x, w.x_alt, w.gap) == (Fraction(99, 100), Fraction(1), Fraction(1))
    w = dissipative.discontinuity_witness(Fraction(1, 2))
    assert w.x == Fraction(1, 2) and w.gap == 1
    w = dissipative.discontinuity_witness(Fraction(1, 10**6))
    assert w.x == Fraction(999999, 10**6) and w.gap == 1
    with pytest.raises(DomainError):
        dissipative.discontinuity_witness(Fraction(0))

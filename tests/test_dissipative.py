import random
from fractions import Fraction

import pytest

from exactdyn import dissipative
from exactdyn.errors import DomainError
from exactdyn.realfn import check_modulus


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
    assert dissipative.iterate_approx(Fraction(9, 10), 1, Fraction(1, 10**12)) == Fraction(81, 100)
    assert dissipative.iterate_approx(Fraction(0), 11, Fraction(1, 10)) == 0
    assert dissipative.iterate_approx(Fraction(1), 11, Fraction(1, 10)) == 1
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


def test_nine_tenths_drops_below_threshold_at_seven():
    threshold = Fraction(1, 1000)
    # independent crossing search by direct exact squaring
    value = Fraction(9, 10)
    crossing = None
    for n in range(10):
        if crossing is None and value < threshold:
            crossing = n
        value = value * value
    assert crossing == 7
    assert dissipative.first_date_below(Fraction(9, 10), threshold, 10) == 7
    # the approximation sees the same crossing
    assert dissipative.iterate_approx(Fraction(9, 10), 6, Fraction(1, 10**7)) > threshold
    assert dissipative.iterate_approx(Fraction(9, 10), 7, threshold) <= threshold


def test_first_date_below_edges():
    assert dissipative.first_date_below(Fraction(0), Fraction(1, 2), 0) == 0
    assert dissipative.first_date_below(Fraction(1), Fraction(1, 2), 12) is None
    assert dissipative.first_date_below(Fraction(1, 2), Fraction(1), 5) == 0
    with pytest.raises(DomainError):
        dissipative.first_date_below(Fraction(9, 10), Fraction(0), 5)


def test_convergence_bound():
    # dates up to 8 are in the check suite; date 9 costs twice as much as all of them
    rng = random.Random(9)
    eps = Fraction(1, 10**6)
    for delta in (Fraction(1, 10), Fraction(1, 100)):
        ceiling = 1 - delta
        for _ in range(30):
            x = ceiling * Fraction(rng.randrange(10**4 + 1), 10**4)
            assert dissipative.iterate_approx(x, 9, eps) <= ceiling ** (2**9) + eps


def test_finite_date_rules_certified():
    # dates up to 4 are in the check suite; dates 5 and 6 cost as much again
    for n in (5, 6):
        report = check_modulus(
            dissipative.as_real_fn(n), lambda q, n=n: q ** (2**n), 300, seed=0
        )
        assert report.ok, report.failures[0]


def test_discontinuity_witness_examples():
    w = dissipative.discontinuity_witness(Fraction(1, 100))
    assert (w.x, w.x_alt, w.gap) == (Fraction(99, 100), Fraction(1), Fraction(1))
    w = dissipative.discontinuity_witness(Fraction(1, 2))
    assert w.x == Fraction(1, 2) and w.gap == 1
    w = dissipative.discontinuity_witness(Fraction(1, 10**6))
    assert w.x == Fraction(999999, 10**6) and w.gap == 1
    with pytest.raises(DomainError):
        dissipative.discontinuity_witness(Fraction(0))


def test_witness_family_defeats_every_modulus():
    # for any claimed rule, pairs within eta keep a unit gap in the limit
    for j in range(1, 10):
        w = dissipative.discontinuity_witness(Fraction(1, 10**j))
        assert abs(w.x - w.x_alt) <= w.eta
        assert abs(dissipative.limit_state(w.x) - dissipative.limit_state(w.x_alt)) == 1

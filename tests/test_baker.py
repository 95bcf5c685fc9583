from fractions import Fraction

import pytest

from exactdyn import baker
from exactdyn.errors import DomainError


@pytest.mark.parametrize(
    "x, image",
    [
        (Fraction(1, 2), Fraction(1)),
        (Fraction(3, 4), Fraction(1, 2)),
        (Fraction(2, 3), Fraction(2, 3)),
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
    ],
)
def test_step_examples(x, image):
    assert baker.step(x) == image


def test_step_rejects_outside_unit_interval():
    for bad in (Fraction(-1, 10), Fraction(11, 10)):
        with pytest.raises(DomainError):
            baker.step(bad)
        with pytest.raises(DomainError):
            baker.iterate(bad, 3)


def test_iterate_examples():
    x = Fraction(5, 7)
    assert baker.iterate(x, 0) == x
    assert baker.iterate(Fraction(1, 48), 4) == Fraction(1, 3)
    assert baker.iterate(Fraction(1, 16), 4) == 1
    for refused in (lambda: baker.iterate(x, -1), lambda: baker.orbit(x, -1), lambda: baker.as_real_fn(-1)):
        with pytest.raises(DomainError, match="step count must be non-negative"):
            refused()


def test_orbit_matches_iterate():
    # every p/q with q <= 40, against repeated application of the rational step
    for x in {Fraction(p, q) for q in range(1, 41) for p in range(q + 1)}:
        n = 3 * x.denominator + 3
        points = baker.orbit(x, n)
        assert len(points) == n + 1 and baker.orbit(x, 0) == [x]
        stepped = x
        for k, p in enumerate(points):
            assert p == baker.iterate(x, k) == stepped
            stepped = baker.step(stepped)


def test_iterate_astronomical_step_counts():
    # independent oracle: find each orbit's cycle with the rational step,
    # then ask for a huge step count congruent to a small one mod the period
    huge = 10**9 + 7
    for x in (Fraction(1, 7), Fraction(5, 7), Fraction(3, 40), Fraction(1, 48), Fraction(13, 97)):
        seen: dict[Fraction, int] = {}
        current = x
        while current not in seen:
            seen[current] = len(seen)
            current = baker.step(current)
        entry, period = seen[current], len(seen) - seen[current]
        small = entry + (huge - entry) % period
        assert baker.iterate(x, huge) == list(seen)[small] == baker.iterate(x, small)


def test_real_fn_modulus_and_clamping():
    fn = baker.as_real_fn(3)
    assert fn.modulus(Fraction(1, 1000)) == Fraction(1, 8000)
    # q nudged outside [0,1] by the permitted slack is clamped, not rejected
    assert fn.approx(Fraction(1, 10), Fraction(-1, 100)) == baker.iterate(Fraction(0), 3)
    assert fn.approx(Fraction(1, 10), Fraction(101, 100)) == baker.iterate(Fraction(1), 3)
    ident = baker.as_real_fn(0)
    assert ident.approx(Fraction(1, 10), Fraction(1, 3)) == Fraction(1, 3)


def test_witness_examples():
    w = baker.sensitivity_witness(Fraction(1, 100), Fraction(0), Fraction(1))
    assert (w.start_a, w.start_b, w.steps) == (Fraction(0), Fraction(1, 128), 7)
    assert w.start_gap == Fraction(1, 128) <= Fraction(1, 100)
    assert baker.iterate(w.start_b, 7) == 1
    # eta >= 1 needs no scaling at all
    w = baker.sensitivity_witness(Fraction(1), Fraction(0), Fraction(1))
    assert w.steps == 0 and w.start_gap <= w.eta


def _witness_steps_by_loop(eta: Fraction) -> int:
    # reference: the least n with 2^n * eta >= 1, found by counting up
    n = 0
    while 2**n * eta < 1:
        n += 1
    return n


def test_witness_steps_match_counting_loop():
    etas = [Fraction(1), Fraction(3)]
    for k in range(60):
        near = Fraction(1, 2 ** (2 * k + 9))
        etas += [Fraction(1, 2**k), Fraction(1, 2**k) - near, Fraction(1, 2**k) + near]
    for eta in etas:
        w = baker.sensitivity_witness(eta, Fraction(0), Fraction(1))
        assert w.steps == _witness_steps_by_loop(eta)


def test_witness_rejects_bad_inputs():
    with pytest.raises(DomainError):
        baker.sensitivity_witness(Fraction(0), Fraction(0), Fraction(1))
    with pytest.raises(DomainError):
        baker.sensitivity_witness(Fraction(1, 10), Fraction(3, 2), Fraction(1))

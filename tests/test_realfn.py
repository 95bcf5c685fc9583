from fractions import Fraction

import pytest

from exactdyn import baker, realfn
from exactdyn.errors import DomainError
from exactdyn.realfn import (
    UNIT,
    ApproxReal,
    Interval,
    check_modulus,
    evaluate,
    from_rational,
    identity_on,
)


def test_from_rational_is_exact_at_every_accuracy():
    for q in (Fraction(1, 3), Fraction(0), Fraction(-5, 2)):
        x = from_rational(q)
        assert x.exact == q
        for eps in (Fraction(1), Fraction(1, 100), Fraction(1, 10**9)):
            assert x.at(eps) == q


def test_evaluate_examples():
    assert evaluate(baker.as_real_fn(1), from_rational(Fraction(1, 3)), Fraction(1, 8)) == Fraction(2, 3)
    ident = identity_on(UNIT)
    assert evaluate(ident, from_rational(Fraction(1, 2)), Fraction(1, 10)) == Fraction(1, 2)
    assert evaluate(baker.as_real_fn(2), from_rational(Fraction(1, 4)), Fraction(1, 100)) == 1


def test_evaluate_rejects_out_of_domain_points():
    with pytest.raises(DomainError):
        evaluate(baker.as_real_fn(1), from_rational(Fraction(3, 2)), Fraction(1, 10))
    with pytest.raises(DomainError):
        evaluate(baker.as_real_fn(1), from_rational(Fraction(1, 2)), Fraction(0))


def test_evaluate_uses_the_modulus_to_query_the_point():
    asked = []

    def at(eps):
        asked.append(eps)
        return Fraction(1, 3)

    evaluate(baker.as_real_fn(3), ApproxReal(at=at), Fraction(1, 10))
    assert asked == [Fraction(1, 80)]


def test_check_modulus_is_deterministic():
    honest = baker.as_real_fn(3)
    a = check_modulus(honest, lambda q: baker.iterate(q, 3), 300, seed=42)
    b = check_modulus(honest, lambda q: baker.iterate(q, 3), 300, seed=42)
    assert a == b


def test_identity_rule_certified():
    report = check_modulus(identity_on(UNIT), lambda q: q, 300, seed=3)
    assert report.ok, report.failures[0]
    assert report.trials == 300


def test_interval_basics():
    box = Interval(Fraction(0), Fraction(1))
    assert Fraction(1, 2) in box and Fraction(2) not in box
    assert box.clamp(Fraction(-3)) == 0
    assert box.clamp(Fraction(7, 2)) == 1
    with pytest.raises(DomainError):
        Interval(Fraction(1), Fraction(0))


def _adversarial_points_by_list_scan(domain: Interval) -> list[Fraction]:
    """The points deduplicated by scanning a list with ==, as before the hashed version."""
    pts = [domain.lo, domain.hi, (domain.lo + domain.hi) / 2]
    if domain.lo <= Fraction(1, 2) <= domain.hi:
        pts.append(Fraction(1, 2))
    width = domain.hi - domain.lo
    for j in range(1, 7):
        for k in range(1, 2**j):
            pts.append(domain.lo + width * Fraction(k, 2**j))
    seen: list[Fraction] = []
    for p in pts:
        if p not in seen:
            seen.append(p)
    return seen


@pytest.mark.parametrize(
    "lo, hi",
    [(0, 1), (0, 0), (Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 2), 2), (-2, Fraction(5, 7)), (0, Fraction(1, 2))],
)
def test_adversarial_points_match_the_list_scan(lo, hi):
    domain = Interval(Fraction(lo), Fraction(hi))
    got = realfn._adversarial_points(domain)
    assert got == tuple(_adversarial_points_by_list_scan(domain))
    assert realfn._adversarial_points(Interval(Fraction(lo), Fraction(hi))) is got

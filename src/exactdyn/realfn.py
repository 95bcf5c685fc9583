"""Real numbers and real functions represented by approximation rules.

A real number is a rule producing, for every positive rational accuracy,
a rational that close to it.  A real function on a closed interval is a
pair of rules: ``approx(eps, q)`` returns the value to within ``eps``
provided ``q`` is within ``modulus(eps)`` of the true argument.  The
defining guarantee is

    |x - q| <= modulus(eps)  implies  |f(x) - approx(eps, q)| <= eps

for every x in the domain.  Everything here is exact: accuracies, sample
points, and comparisons are rationals, never floats, so the guarantee is
machine-checkable as stated.

``check_modulus`` probes that guarantee against an exact oracle on a
seeded deterministic sample (adversarial points first, then pseudo-random
triples) and reports every violation it finds.  It is a sampler, not a
prover.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .errors import DomainError
from .rational import HALF, format_rational

ApproxRule = Callable[[Fraction], Fraction]
ValueRule = Callable[[Fraction, Fraction], Fraction]
ModulusRule = Callable[[Fraction], Fraction]


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] of reals with rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise DomainError(f"empty interval [{self.lo}, {self.hi}]")

    def __contains__(self, q: Fraction) -> bool:
        return self.lo <= q <= self.hi

    def clamp(self, q: Fraction) -> Fraction:
        return min(max(q, self.lo), self.hi)


UNIT = Interval(Fraction(0), Fraction(1))


@dataclass(frozen=True)
class ApproxReal:
    """A real number, queryable to any positive rational accuracy.

    ``at(eps)`` must return a rational within eps of the denoted real.
    ``exact`` may hold a rational real's value, which ``at`` must then return
    for every accuracy; ``evaluate`` reads it only to refuse an out-of-domain point.
    """

    at: ApproxRule
    exact: Optional[Fraction] = None


def from_rational(q: Fraction) -> ApproxReal:
    return ApproxReal(at=lambda eps: q, exact=q)


@dataclass(frozen=True)
class RealFn:
    """A real function given by a value rule and an input-accuracy rule."""

    approx: ValueRule
    modulus: ModulusRule
    domain: Interval


def identity_on(domain: Interval) -> RealFn:
    return RealFn(approx=lambda eps, q: domain.clamp(q), modulus=lambda eps: eps, domain=domain)


def constant_on(value: Fraction, domain: Interval) -> RealFn:
    return RealFn(approx=lambda eps, q: value, modulus=lambda eps: eps, domain=domain)


def evaluate(fn: RealFn, x: ApproxReal, eps: Fraction) -> Fraction:
    """Approximate fn at x to within eps.

    Asks x for an approximation at accuracy modulus(eps) and feeds it to
    the value rule.  When x carries an exact value, it must lie in the
    function's domain.
    """
    if eps <= 0:
        raise DomainError("accuracy must be positive")
    if x.exact is not None and x.exact not in fn.domain:
        raise DomainError(
            f"point {format_rational(x.exact)} outside domain "
            f"[{format_rational(fn.domain.lo)}, {format_rational(fn.domain.hi)}]"
        )
    return fn.approx(eps, x.at(fn.modulus(eps)))


def compose(outer: RealFn, inner: RealFn) -> RealFn:
    """outer after inner.

    The composite asks the outer rule for the accuracy it needs, computes
    the inner value to that accuracy, and finishes with the outer value
    rule.  The caller must ensure inner's range lies in outer's domain;
    that containment is not (and cannot be) checked here.
    """

    def approx(eps: Fraction, q: Fraction) -> Fraction:
        mid = outer.modulus(eps)
        return outer.approx(eps, inner.approx(mid, q))

    return RealFn(
        approx=approx,
        modulus=lambda eps: inner.modulus(outer.modulus(eps)),
        domain=inner.domain,
    )


@dataclass(frozen=True)
class ModulusFailure:
    eps: Fraction
    x: Fraction
    q: Fraction
    got: Fraction
    expected: Fraction

    @property
    def error(self) -> Fraction:
        return abs(self.expected - self.got)

    def __str__(self) -> str:
        return (
            f"eps={format_rational(self.eps)} x={format_rational(self.x)} "
            f"q={format_rational(self.q)}: |{format_rational(self.expected)} - "
            f"{format_rational(self.got)}| = {format_rational(self.error)} > eps"
        )


@dataclass(frozen=True)
class ModulusReport:
    trials: int
    failures: tuple[ModulusFailure, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.failures


_EPS_PALETTE = (
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 10),
    Fraction(1, 100),
    Fraction(1, 1000),
)


@lru_cache(maxsize=64)
def _adversarial_points(domain: Interval) -> tuple[Fraction, ...]:
    """Endpoints, midpoint, the fold at 1/2, and a dyadic grid; first occurrences, in order."""
    pts = [domain.lo, domain.hi, (domain.lo + domain.hi) / 2]
    if domain.lo <= HALF <= domain.hi:
        pts.append(HALF)
    width = domain.hi - domain.lo
    for j in range(1, 7):
        for k in range(1, 2**j):
            pts.append(domain.lo + width * Fraction(k, 2**j))
    return tuple(dict.fromkeys(pts))


def _random_in(domain: Interval, rng: random.Random) -> Fraction:
    den = rng.choice((7, 64, 97, 100, 128, 729, 1000, 1024, 9973))
    return domain.lo + (domain.hi - domain.lo) * Fraction(rng.randrange(den + 1), den)


def check_modulus(
    fn: RealFn,
    oracle: Callable[[Fraction], Fraction],
    trials: int,
    seed: int,
) -> ModulusReport:
    """Sample the defining guarantee of fn against an exact oracle.

    Each trial draws an accuracy eps, a rational x in the domain, and a
    rational q with |x - q| <= modulus(eps), then checks
    |oracle(x) - approx(eps, q)| <= eps by exact comparison.  The first
    trials walk adversarial x (endpoints, fold point, dyadics) with the
    extreme offsets q = x and q = x +- modulus(eps); the rest are seeded
    pseudo-random.  Deterministic for a given seed.
    """
    rng = random.Random(seed)
    adversarial = _adversarial_points(fn.domain)
    failures: list[ModulusFailure] = []
    checked = 0
    # offset multipliers exercise both ends of the permitted slack
    fixed_offsets = (Fraction(0), Fraction(1), Fraction(-1))
    while checked < trials:
        eps = _EPS_PALETTE[checked % len(_EPS_PALETTE)]
        if checked < len(adversarial) * len(fixed_offsets):
            x = adversarial[checked // len(fixed_offsets)]
            t = fixed_offsets[checked % len(fixed_offsets)]
        else:
            eps = Fraction(1, rng.randrange(1, 10**4))
            x = _random_in(fn.domain, rng)
            t = Fraction(rng.randrange(-100, 101), 100)
        q = x + t * fn.modulus(eps)
        got = fn.approx(eps, q)
        if abs(oracle(x) - got) > eps:
            failures.append(ModulusFailure(eps=eps, x=x, q=q, got=got, expected=oracle(x)))
        checked += 1
    return ModulusReport(trials=checked, failures=tuple(failures))

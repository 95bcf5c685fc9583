"""A dissipative system on [0,1] whose limit map is discontinuous: squaring.

One step sends x to x^2, so the state at date n is x^(2^n): every orbit
converges, to 0 for x < 1 and to 1 at the fixed point x = 1.  Finite-date
states are approximable to any accuracy (the exact value just gets big),
but the limit map jumps at 1, and ``discontinuity_witness`` produces, for
any closeness demand, a pair of starts that close together whose limits
differ by 1.  No input-accuracy rule can serve a function with such
witnesses, since any rule would force uniform continuity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .rational import HALF, ONE, ZERO, format_rational, require_unit_interval
from .realfn import UNIT, RealFn

# beyond this, iterates are tracked by a floor on a dyadic grid instead of
# exactly: the exact value of x^(2^n) has doubly exponential size
EXACT_BITS_CAP = 4096


def step(x: Fraction) -> Fraction:
    require_unit_interval(x, "state")
    return x * x


def limit_state(x: Fraction) -> Fraction:
    """The limit of the orbit of x: 0 below 1, 1 at 1 (exactly decidable)."""
    require_unit_interval(x, "state")
    return ONE if x == 1 else ZERO


def iterate_approx(x: Fraction, n: int, eps: Fraction) -> Fraction:
    """A rational within eps of x^(2^n), never above it, never below 0.

    Squares x exactly, as its reduced integer pair (p, q), while q stays
    within prec >= EXACT_BITS_CAP bits: squares of coprime integers are
    coprime, so no gcd is needed.  Then carries the floor of the state
    on the dyadic grid of step 2^-prec, a fixed-point integer squared and
    floored at each later date.  A floor never rises above the true
    state, squaring is monotone on [0,1], and each date at most doubles
    the error and adds one grid step, so prec is chosen fine enough that
    the final error is below eps.  Answers are one-sided underestimates.
    """
    require_unit_interval(x, "state")
    if n < 0:
        raise DomainError("date must be non-negative")
    if eps <= 0:
        raise DomainError("accuracy must be positive")
    # rounding at 2^-prec, amplified by at most 2 per remaining step, must
    # stay below eps overall
    amplified = (eps.denominator << (n + 4)) // eps.numerator
    prec = max(EXACT_BITS_CAP, amplified.bit_length())
    p, q = x.numerator, x.denominator
    for date in range(n):
        p, q = p * p, q * q
        if q.bit_length() > prec:
            break
    else:
        return Fraction(p, q)
    lo = (p << prec) // q
    for _ in range(date + 1, n):
        lo = (lo * lo) >> prec
    return Fraction(lo, 1 << prec)


def first_date_below(x: Fraction, threshold: Fraction, max_date: int) -> int | None:
    """Least date n <= max_date with x^(2^n) < threshold, or None.

    Decided by exact squaring of the reduced pair (p, q) of x and exact
    comparison; the representation doubles in size per date, so keep
    max_date modest (a few dozen).
    """
    require_unit_interval(x, "state")
    if threshold <= 0:
        raise DomainError("threshold must be positive")
    if max_date < 0:
        raise DomainError("date bound must be non-negative")
    p, q = x.numerator, x.denominator
    for n in range(max_date + 1):
        if p * threshold.denominator < threshold.numerator * q:
            return n
        p, q = p * p, q * q
    return None


def as_real_fn(n: int) -> RealFn:
    """The date-n state map as an approximation-rule function on [0,1].

    The derivative of one squaring step is bounded by 2 on [0,1], so the
    n-step map is 2^n-Lipschitz; half the accuracy budget covers the
    argument error through that bound and half covers the rounding of
    iterate_approx.
    """
    if n < 0:
        raise DomainError("date must be non-negative")
    scale = 2 ** (n + 1)
    return RealFn(
        approx=lambda eps, q: iterate_approx(UNIT.clamp(q), n, eps / 2),
        modulus=lambda eps: eps / scale,
        domain=UNIT,
    )


@dataclass(frozen=True)
class LimitWitness:
    """Starts within eta whose limit states differ by gap."""

    x: Fraction
    x_alt: Fraction
    eta: Fraction
    gap: Fraction

    def __str__(self) -> str:
        return (
            f"|{format_rational(self.x)} - {format_rational(self.x_alt)}| <= "
            f"{format_rational(self.eta)} but the limits differ by {format_rational(self.gap)}"
        )


def discontinuity_witness(eta: Fraction) -> LimitWitness:
    """A pair straddling the jump of the limit map at 1.

    x = 1 - min(eta, 1/2) has limit 0 while 1 has limit 1, so the gap is
    always exactly 1 no matter how small eta is: the family of witnesses
    defeats every candidate input-accuracy rule for the limit map.
    """
    if eta <= 0:
        raise DomainError("eta must be positive")
    x = 1 - min(eta, HALF)
    gap = abs(limit_state(x) - limit_state(ONE))
    return LimitWitness(x=x, x_alt=ONE, eta=eta, gap=gap)

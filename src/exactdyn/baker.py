"""The folded doubling map on [0,1]: exact dynamics and sensitivity witnesses.

One time step sends x to 2x on [0, 1/2] and to 2 - 2x on (1/2, 1]; both
branches are integer-affine, so orbits of rationals stay exactly rational.
The map is 2-Lipschitz, hence the n-step iterate admits the input-accuracy
rule eps / 2^n, and that bound is tight: dyadic starting points a/2^n and
a'/2^n are within 1/2^n of each other yet land exactly on a and a' after
n steps.  ``sensitivity_witness`` constructs that pair for any requested
closeness and any two target positions, as an exactly checkable record.

``iterate`` and ``orbit`` run on the integer kernels of ``grid``,
reading p/q as grid index p at resolution q.  ``iterate`` is closed-form,
T^n(p/q) = dist(2^n p/q, 2Z) (``grid.fold_power``), so it costs O(log n)
integer operations and n may be astronomically large.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import grid
from .errors import DomainError
from .rational import HALF, require_unit_interval
from .realfn import UNIT, RealFn


def step(x: Fraction) -> Fraction:
    require_unit_interval(x, "position")
    return 2 * x if x <= HALF else 2 - 2 * x


def iterate(x: Fraction, n: int) -> Fraction:
    """n-fold step; exact, n = 0 returns x unchanged."""
    q = require_unit_interval(x, "position").denominator
    return Fraction(grid.fold_power(x.numerator, q, n), q)


def orbit(x: Fraction, n: int) -> list[Fraction]:
    """[x, step(x), ..., step^n(x)] as exact rationals."""
    if n < 0:
        raise DomainError("step count must be non-negative")
    q = require_unit_interval(x, "position").denominator
    indices = [x.numerator]
    for _ in range(n):
        indices.append(grid.fold(indices[-1], q))
    return [Fraction(i, q) for i in indices]


def as_real_fn(n: int) -> RealFn:
    """The n-step iterate as an approximation-rule function on [0,1].

    The iterate has Lipschitz constant 2^n, so feeding the exact map a
    rational within eps / 2^n of the argument lands within eps of the
    true value.  Inputs nudged outside [0,1] by the permitted slack are
    clamped, which never increases their distance to an in-domain point.
    """
    if n < 0:
        raise DomainError("step count must be non-negative")
    scale = 2**n
    return RealFn(
        approx=lambda eps, q: iterate(UNIT.clamp(q), n),
        modulus=lambda eps: eps / scale,
        domain=UNIT,
    )


@dataclass(frozen=True)
class SensitivityWitness:
    """Two starts within eta whose orbits hit prescribed targets after n steps."""

    start_a: Fraction
    start_b: Fraction
    steps: int
    eta: Fraction
    end_a: Fraction
    end_b: Fraction

    @property
    def start_gap(self) -> Fraction:
        return abs(self.start_a - self.start_b)

    @property
    def end_gap(self) -> Fraction:
        return abs(self.end_a - self.end_b)


def sensitivity_witness(eta: Fraction, a: Fraction, b: Fraction) -> SensitivityWitness:
    """Build starts a/2^n and b/2^n for the least n with 1/2^n <= eta.

    Doubling n times sends a/2^n exactly to a (the orbit never leaves the
    rising branch until the last step), so the two starts are within eta
    of each other while their n-step images are the arbitrary targets a
    and b.  eta >= 1 yields n = 0.
    """
    if eta <= 0:
        raise DomainError("eta must be positive")
    require_unit_interval(a, "target")
    require_unit_interval(b, "target")
    # least n with 2^n >= 1/eta, that is with 2^n >= ceil(1/eta)
    n = (-(-eta.denominator // eta.numerator) - 1).bit_length()
    pow2 = 2**n
    witness = SensitivityWitness(
        start_a=a / pow2,
        start_b=b / pow2,
        steps=n,
        eta=eta,
        end_a=a,
        end_b=b,
    )
    assert witness.start_gap <= eta and Fraction(1, pow2) <= eta
    return witness

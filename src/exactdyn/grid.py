"""The folded doubling map restricted to a finite uniform grid.

States are the N+1 points i/N of [0,1].  Both branches of the map are
integer-affine and preserve the grid, so the finite dynamics agrees with
the exact rational dynamics with no rounding rule at all.  ``fold`` is
the one place the two branches are written on integers; the exact view
reads p/q as index p at resolution q.  On a finite state space,
closeness below half the minimal spacing already forces equality, and
every orbit is eventually periodic by pigeonhole.

n-step iterates are closed-form: dist(y, 2Z) is even and 2-periodic, so
T(dist(y, 2Z)) = dist(2y, 2Z) and by induction T^n(x) = dist(2^n x, 2Z).
``fold_power`` evaluates this on indices in O(log n) integer operations,
so n may be astronomically large.  The cycle entry of an orbit follows
from the 2-adic valuation of its reduced denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InvalidStateError


@dataclass(frozen=True)
class GridState:
    resolution: int
    index: int

    def __post_init__(self) -> None:
        _require_resolution(self.resolution)
        if not 0 <= self.index <= self.resolution:
            raise InvalidStateError(
                f"index {self.index} outside 0..{self.resolution}"
            )

    @property
    def position(self) -> Fraction:
        return Fraction(self.index, self.resolution)


def _require_resolution(resolution: int) -> None:
    if resolution < 1:
        raise InvalidStateError(f"resolution {resolution} must be >= 1")


def fold(i: int, resolution: int) -> int:
    """One step on grid indices: i/N goes to 2i/N or to (2N - 2i)/N."""
    doubled = 2 * i
    return doubled if doubled <= resolution else 2 * resolution - doubled


def fold_power(i: int, resolution: int, n: int) -> int:
    """fold applied n times to i: T^n(i/N) = dist(2^n i/N, 2Z), on indices."""
    if n < 0:
        raise InvalidStateError("step count must be non-negative")
    period = 2 * resolution
    r = pow(2, n, period) * i % period
    return min(r, period - r)


def step(s: GridState) -> GridState:
    return GridState(s.resolution, fold(s.index, s.resolution))


def iterate(s: GridState, n: int) -> GridState:
    """n-fold step in closed form (``fold_power``); n = 0 returns s unchanged."""
    return GridState(s.resolution, fold_power(s.index, s.resolution, n))


def table(resolution: int) -> list[tuple[int, int]]:
    """The complete graph of step as N+1 (index, successor index) pairs."""
    _require_resolution(resolution)
    return [
        (i, step(GridState(resolution, i)).index) for i in range(resolution + 1)
    ]


def min_separation(resolution: int) -> Fraction:
    """Half the minimal distance between distinct grid positions: 1/(2N).

    Two grid points within this distance of each other are equal, which is
    exactly why the finite-grid system is not sensitive to initial
    conditions.
    """
    _require_resolution(resolution)
    return Fraction(1, 2 * resolution)


def orbit_with_cycle(s: GridState) -> tuple[list[int], int, int]:
    """Indices visited until the first repeat, with cycle entry and length.

    Returns (orbit, entry, length) where orbit lists the distinct states
    in visit order, orbit[entry:] is the cycle, and length = len(orbit) -
    entry.  The entry is closed-form: reduce i/N to p/q and write
    q = 2^a m with m odd.  If a > 0, p is odd, and each step halves the
    power of two and keeps the numerator odd, so a steps reach an odd
    numerator over m.  Every image of a state over m has an even
    numerator, and on even numerators the map is a bijection (2 is a unit
    mod m), so they are exactly the periodic states.  The entry is thus
    a + (p mod 2): 0 for p = 0, a + 1 for a dyadic p/2^a, a + (p mod 2)
    otherwise.  The orbit is listed with ``fold`` until the entry state
    comes round again, at most N + 2 states.
    """
    resolution, i = s.resolution, s.index
    g = gcd(i, resolution)
    p, q = i // g, resolution // g
    a = (q & -q).bit_length() - 1
    entry = a + p % 2
    orbit: list[int] = []
    for _ in range(entry):
        orbit.append(i)
        i = fold(i, resolution)
    start = i
    for _ in range(resolution + 1):
        orbit.append(i)
        i = fold(i, resolution)
        if i == start:
            return orbit, entry, len(orbit) - entry
    raise AssertionError(f"entry {entry} of {s.index}/{resolution} is not on its cycle")

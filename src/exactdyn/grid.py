"""The folded doubling map restricted to a finite uniform grid.

States are the N+1 points i/N of [0,1].  Both branches of the map are
integer-affine and preserve the grid, so the finite dynamics agrees with
the exact rational dynamics with no rounding rule at all.  ``fold`` is
the one place the two branches are written on integers; the exact view
reads p/q as index p at resolution q.  On a finite state space,
closeness below half the minimal spacing already forces equality, and
every orbit is eventually periodic by pigeonhole, so ``advance`` cuts
an n-step iterate through the first cycle: n may be astronomically large.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, TypeVar

from .errors import InvalidStateError

T = TypeVar("T")


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


def advance(x: T, f: Callable[[T], T], n: int) -> T:
    """f applied n times to x, cutting through the first cycle met.

    Brent's cycle finder (BIT 1980): the tortoise jumps to the hare at
    every power-of-two step count, so only two states are held; once they
    meet, their distance is a period.  f is applied at most n times.
    """
    if n < 0:
        raise InvalidStateError("step count must be non-negative")
    tortoise, mark = x, 0
    for k in range(1, n + 1):
        x = f(x)
        if x == tortoise:
            for _ in range((n - k) % (k - mark)):
                x = f(x)
            return x
        if k & (k - 1) == 0:
            tortoise, mark = x, k
    return x


def step(s: GridState) -> GridState:
    return GridState(s.resolution, fold(s.index, s.resolution))


def iterate(s: GridState, n: int) -> GridState:
    return GridState(s.resolution, advance(s.index, lambda i: fold(i, s.resolution), n))


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
    entry.  Pigeonhole bounds the search by N + 2 steps.
    """
    first_seen: dict[int, int] = {}
    orbit: list[int] = []
    i = s.index
    while i not in first_seen:
        first_seen[i] = len(orbit)
        orbit.append(i)
        i = fold(i, s.resolution)
    entry = first_seen[i]
    return orbit, entry, len(orbit) - entry

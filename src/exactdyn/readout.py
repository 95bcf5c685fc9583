"""The folded doubling map as seen through a d-digit measuring device.

A readout truncates a position to d decimal digits, so it names the cell
[k/10^d, (k+1)/10^d) -- the set of positions the device cannot tell
apart -- with the top readout 1.000... naming exactly {1}.  Measurement
makes the dynamics nondeterministic: a cell's image under one time step
usually meets several cells, so one readout can be followed by several.

Successor sets are computed exactly.  The image of a cell under the
piecewise-affine step is one interval per branch, tracked with open and
closed endpoints; a readout is a successor precisely when its cell meets
that image, and single shared points count (the fold point 1/2 maps to 1
exactly).  Sampling alone would miss such measure-zero witnesses, which
is why the endpoints are bookkept instead of sampled.

Every successor set, and every set of readouts reachable in n steps, is
one run of consecutive readouts, so ``SuccessorSet`` holds just the run's
two ends.  Every run is the full run 0..10^d from ``settling_steps(d)``
steps on, so ``reach`` answers such step counts at once, however large,
and steps the run only below that.  ``min_reach_count`` bounds a run's
length from below without computing it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import DomainError
from .rational import HALF, ONE, ZERO, fixed_point, require_unit_interval


@dataclass(frozen=True)
class Span:
    """An interval with individually open or closed endpoints."""

    lo: Fraction
    hi: Fraction
    lo_open: bool = False
    hi_open: bool = False

    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def intersect(self, other: "Span") -> Optional["Span"]:
        if self.lo > other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif other.lo > self.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open or other.lo_open
        if self.hi < other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif other.hi < self.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open or other.hi_open
        candidate = Span(lo, hi, lo_open, hi_open)
        return None if candidate.is_empty() else candidate

    def some_point(self) -> Fraction:
        """A member, preferring closed endpoints over the midpoint."""
        if not self.lo_open:
            return self.lo
        if not self.hi_open:
            return self.hi
        return (self.lo + self.hi) / 2


_RISING = Span(ZERO, HALF)
_FALLING = Span(HALF, ONE, lo_open=True)


@dataclass(frozen=True)
class Readout:
    """A d-digit truncated measurement: value index k out of 10^d."""

    digits: int
    index: int

    def __post_init__(self) -> None:
        _require_digits(self.digits)
        if not 0 <= self.index <= 10**self.digits:
            raise DomainError(
                f"index {self.index} outside 0..10^{self.digits}"
            )

    @property
    def text(self) -> str:
        return fixed_point(self.index, self.digits)

    def cell(self) -> Span:
        """The set of positions this readout stands for."""
        scale = 10**self.digits
        if self.index == scale:
            return Span(ONE, ONE)
        return Span(
            Fraction(self.index, scale),
            Fraction(self.index + 1, scale),
            hi_open=True,
        )


def _require_digits(digits: int) -> None:
    if digits < 1:
        raise DomainError(f"digits {digits} must be >= 1")


def parse_readout(text: str, digits: int) -> Readout:
    """Read back exactly the text a readout prints: one digit, a point, d digits."""
    m = re.fullmatch(r"([0-9])\.([0-9]*)", text)
    if m is None:
        raise DomainError(f"not a readout: {text!r}")
    if len(m.group(2)) != digits:
        raise DomainError(f"{text!r} is not a {digits}-digit readout")
    return Readout(digits, int(m.group(1) + m.group(2)))


def measure(x: Fraction, digits: int) -> Readout:
    """Truncate a position to d digits: index floor(x * 10^d)."""
    require_unit_interval(x, "position")
    _require_digits(digits)
    scaled = x * 10**digits
    return Readout(digits, scaled.numerator // scaled.denominator)


@dataclass(frozen=True)
class SuccessorSet:
    """One run lo..hi of consecutive d-digit readout indices."""

    digits: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        _require_digits(self.digits)
        if not 0 <= self.lo <= self.hi <= 10**self.digits:
            raise DomainError(
                f"{self.lo}..{self.hi} is not a run of readouts in 0..10^{self.digits}"
            )

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(range(self.lo, self.hi + 1))

    @property
    def count(self) -> int:
        """The number of readouts in the run, at any size."""
        return self.hi - self.lo + 1

    def texts(self) -> list[str]:
        return [fixed_point(k, self.digits) for k in range(self.lo, self.hi + 1)]


def _branch_images(span: Span) -> list[tuple[Span, bool]]:
    """Exact image of a span under one step, one piece per branch.

    Returns (image span, rising?) pairs.  The rising branch x -> 2x keeps
    endpoint openness; the falling branch x -> 2 - 2x reverses the span,
    so the openness flags swap sides.
    """
    pieces: list[tuple[Span, bool]] = []
    rising = span.intersect(_RISING)
    if rising is not None:
        pieces.append(
            (Span(2 * rising.lo, 2 * rising.hi, rising.lo_open, rising.hi_open), True)
        )
    falling = span.intersect(_FALLING)
    if falling is not None:
        pieces.append(
            (
                Span(2 - 2 * falling.hi, 2 - 2 * falling.lo, falling.hi_open, falling.lo_open),
                False,
            )
        )
    return pieces


def _candidate_indices(image: Span, digits: int) -> range:
    scale = 10**digits
    lo_scaled = image.lo * scale
    hi_scaled = image.hi * scale
    first = lo_scaled.numerator // lo_scaled.denominator
    last = hi_scaled.numerator // hi_scaled.denominator
    return range(first, last + 1)


def _meetings(m: Readout) -> Iterator[tuple[int, Span, bool]]:
    """(k, overlap, rising?) for each branch image of m's cell meeting cell k."""
    for image, rising in _branch_images(m.cell()):
        for k in _candidate_indices(image, m.digits):
            overlap = image.intersect(Readout(m.digits, k).cell())
            if overlap is not None:
                yield k, overlap, rising


def successors(m: Readout) -> SuccessorSet:
    """Exactly the readouts of step images of points in m's cell: one run."""
    met = [k for k, _, _ in _meetings(m)]
    return SuccessorSet(m.digits, min(met), max(met))


def successor_witnesses(m: Readout) -> dict[int, Fraction]:
    """For each successor, a point of m's cell that steps into its cell.

    The witness is the branch preimage of a point where the cell's image
    meets the successor's cell, so it certifies membership constructively.
    No successor cell meets both branch pieces, so no witness is replaced.
    """
    witnesses: dict[int, Fraction] = {}
    for k, overlap, rising in _meetings(m):
        y = overlap.some_point()
        witnesses[k] = y / 2 if rising else 1 - y / 2
    return witnesses


def relation_table(digits: int) -> list[tuple[int, SuccessorSet]]:
    """Successor sets for every readout index, ascending."""
    _require_digits(digits)
    return [
        (k, successors(Readout(digits, k))) for k in range(10**digits + 1)
    ]


def settling_steps(digits: int) -> int:
    """Steps from which every run is the full run 0..10^d; ``reach`` proves it."""
    _require_digits(digits)
    return (10**digits).bit_length() + 1


def min_reach_count(digits: int, n: int) -> int:
    """A lower bound on ``reach(m, n).count`` that holds for every start m.

    Digits d < 1 and step counts n < 0 are refused, as ``reach`` refuses them.
    From ``settling_steps(d)`` steps on every run is full, 10^d + 1
    readouts.  Below that the bound is 2^(n-1), or 1 when n = 0, and
    some start attains it.  A run holds the readouts of the exact image
    T^n(cell): the relation contains every exact step, so by induction
    the cells of the n-step run cover T^n(cell).  For a cell of width
    1/10^d, 2^n·cell is an interval of length L = 2^n/10^d.  dist(., 2Z)
    has slope +-1 and turns at the integers: with no turn inside, the
    image has length L; with one, its longer side keeps at least L/2;
    with two, the image is all of [0,1].  So T^n(cell) has length at
    least min(1, 2^(n-1)/10^d).  Below the settling step
    2^(n-1) <= 2^(bit_length(10^d) - 1) <= 10^d, so the image has length
    at least 2^(n-1)/10^d and meets at least 2^(n-1) cells of width
    1/10^d.  The top cell {1} is no exception: it steps to cell 0, whose
    (n-1)-step image [0, 2^(n-1)/10^d) meets exactly 2^(n-1) cells.  So
    the bound never exceeds 10^d / 2 below the settling step.  Comparing
    n with the settling step first keeps 2^n from being built for an
    astronomical n.
    """
    if n < 0:
        raise DomainError("step count must be non-negative")
    if n >= settling_steps(digits):
        return 10**digits + 1
    return 2 ** (n - 1) if n else 1


def reach(m: Readout, n: int) -> SuccessorSet:
    """Readouts that may be observed exactly n steps after m.

    The answer is always one run lo..hi of consecutive readouts.  The
    cells of a run form a connected set and the step is continuous, so
    the image is connected and meets a run of cells again.  The step
    rises left of 1/2 and falls right of it, so the image's extremes are
    taken in the run's two end cells or in cell 10^d/2, which holds 1/2:
    the next run is bounded by the successors of those cells alone.

    From ``settling_steps(d)`` steps on the run is the full run 0..10^d,
    returned at once; only shorter step counts step the run.  A measured
    run holds the readouts of the exact image T^n(cell) (see
    ``min_reach_count``), and T^n(x) = dist(2^n x, 2Z) stretches a cell
    of width 1/10^d over a half-open interval of length 2^n/10^d.  Once
    that is at least 2 it spans a period of dist(., 2Z), so
    T^n(cell) = [0,1] and the run is full.  The top cell {1} steps to
    cell 0 = [0, 1/10^d), which 2^(n-1) stretches to [0, 2^(n-1)/10^d),
    and dist(., 2Z) folds that onto all of [0,1] once 2^(n-1) > 10^d.
    From n = settling_steps(d) on both hold, since there
    2^(n-1) >= 2^bit_length(10^d) > 10^d.
    """
    if n < 0:
        raise DomainError("step count must be non-negative")
    if n >= settling_steps(m.digits):
        return SuccessorSet(m.digits, 0, 10**m.digits)
    half = 10**m.digits // 2
    lo = hi = m.index
    for _ in range(n):
        cells = (lo, hi, half) if lo <= half <= hi else (lo, hi)
        runs = [successors(Readout(m.digits, k)) for k in cells]
        lo, hi = min(r.lo for r in runs), max(r.hi for r in runs)
    return SuccessorSet(m.digits, lo, hi)

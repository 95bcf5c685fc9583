"""Reference computations the benchmark checks exactdyn's outputs against.

Nothing here imports exactdyn.  The fold runs on integer pairs (p, q)
instead of on ``Fraction``; measured successor sets come from the closed
form of a cell's integer image instead of from interval bookkeeping;
cycles are found with Brent's algorithm instead of a visited-state table.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Callable, Hashable, TypeVar

S = TypeVar("S", bound=Hashable)


# --- the fold on integers ---


def fold_index(i: int, q: int) -> int:
    """Grid index of fold(i/q) at resolution q: 2i on the rising branch, 2q - 2i after."""
    doubled = 2 * i
    return doubled if doubled <= q else 2 * q - doubled


def brent(f: Callable[[S], S], x0: S) -> tuple[int, int]:
    """(entry, period) of the eventually periodic sequence x0, f(x0), ... (Brent, 1980)."""
    power = period = 1
    tortoise, hare = x0, f(x0)
    while tortoise != hare:
        if power == period:
            tortoise, power, period = hare, power * 2, 0
        hare = f(hare)
        period += 1
    tortoise = hare = x0
    for _ in range(period):
        hare = f(hare)
    entry = 0
    while tortoise != hare:
        tortoise, hare = f(tortoise), f(hare)
        entry += 1
    return entry, period


def iterate(f: Callable[[S], S], x0: S, n: int, cut_after: int) -> S:
    """f applied n times to x0; runs longer than cut_after go through the cycle instead."""
    if n > cut_after:
        entry, period = brent(f, x0)
        n = entry + (n - entry) % period
    x = x0
    for _ in range(n):
        x = f(x)
    return x


def grid_iterate(i: int, q: int, n: int) -> int:
    return iterate(lambda j: fold_index(j, q), i, n, cut_after=q + 1)


def fold_iterate(x: Fraction, n: int) -> Fraction:
    """fold^n(x) for x in [0,1], as grid index x.numerator on resolution x.denominator."""
    return Fraction(grid_iterate(x.numerator, x.denominator, n), x.denominator)


def fold_orbit(x: Fraction, n: int) -> list[Fraction]:
    q, i = x.denominator, x.numerator
    points = [x]
    for _ in range(n):
        i = fold_index(i, q)
        points.append(Fraction(i, q))
    return points


def grid_cycle(i: int, q: int) -> tuple[list[int], int, int]:
    """(orbit up to the first repeat, cycle entry, cycle length) on resolution q."""
    entry, period = brent(lambda j: fold_index(j, q), i)
    orbit = [i]
    for _ in range(entry + period - 1):
        orbit.append(fold_index(orbit[-1], q))
    return orbit, entry, period


# --- squaring ---


def square_bracket(x: Fraction, n: int, prec: int) -> tuple[Fraction, Fraction]:
    """lo <= x^(2^n) <= hi, rounded outward on the grid 2^-prec after each squaring."""
    unit = 1 << prec
    lo = (x.numerator << prec) // x.denominator
    hi = -((-x.numerator << prec) // x.denominator)
    for _ in range(n):
        lo = (lo * lo) >> prec
        hi = -((-hi * hi) >> prec)
    return Fraction(lo, unit), Fraction(min(hi, unit), unit)


# --- measured successors, from the integer image of a cell ---


def successors(k: int, digits: int) -> tuple[int, ...]:
    """Readout indices that may follow index k at d digits.

    The cell [k, k+1) (in units of 10^-d) doubles to [2k, 2k+2) while it
    stays left of 1/2; beyond the fold it maps onto (a-2, a] with
    a = 2*10^d - 2k, which meets three cells.  The cell 1/2 = [D/2, D/2+1)
    holds the fold point itself, whose image 1 adds the top readout, and
    the top readout {1} maps to 0.
    """
    top = 10**digits
    if k == top:
        return (0,)
    if 2 * k < top:
        return (2 * k, 2 * k + 1)
    if 2 * k == top:
        return (top - 2, top - 1, top)
    a = 2 * top - 2 * k
    return (a - 2, a - 1, a)


def in_cell(x: Fraction, k: int, digits: int) -> bool:
    top = 10**digits
    if k == top:
        return x == 1
    return Fraction(k, top) <= x < Fraction(k + 1, top)


def reach(k: int, digits: int, n: int) -> tuple[int, ...]:
    """Readouts observable exactly n steps after readout k."""
    table: dict[int, tuple[int, ...]] = {}

    def image(members: frozenset[int]) -> frozenset[int]:
        out: set[int] = set()
        for j in members:
            if j not in table:
                table[j] = successors(j, digits)
            out.update(table[j])
        return frozenset(out)

    # the reachable sets settle within a few dozen steps; Brent's search
    # costs about entry + 2 * period images, so it only pays off beyond that
    return tuple(sorted(iterate(image, frozenset({k}), n, cut_after=256)))


# --- pairing and the numberings of the rationals ---


def pair(n: int, p: int) -> int:
    s = n + p
    return s * (s + 1) // 2 + p


def encode(r: Fraction, encoding: str) -> int:
    sign = 1 if r < 0 else 0
    num, den = abs(r.numerator), r.denominator
    if encoding == "canonical":
        return pair(pair(sign, num), den)
    return pair(num, pair(sign, den))


def unpair(c: int) -> tuple[int, int]:
    s = (isqrt(8 * c + 1) - 1) // 2
    p = c - s * (s + 1) // 2
    return s - p, p


def decode(code: int, encoding: str) -> Fraction:
    """The rational whose code this is; ValueError when it is none."""
    if encoding == "canonical":
        inner, den = unpair(code)
        sign, num = unpair(inner)
    else:
        num, inner = unpair(code)
        sign, den = unpair(inner)
    r = Fraction(num, den) * (-1 if sign else 1) if den else None
    if r is None or encode(r, encoding) != code:
        raise ValueError(f"{code} is not a {encoding} code")
    return r


# --- the shipped corpus, in plain arithmetic ---

CORPUS = {
    "addition": lambda x, y: x + y,
    "multiplication": lambda x, y: x * y,
    "predecessor": lambda y: max(y - 1, 0),
    "truncated_subtraction": lambda x, y: max(x - y, 0),
    "sign": lambda y: 1 if y > 0 else 0,
}

#!/usr/bin/env python3
"""Finite dates are computable; the limit is not even continuous.

Squaring on [0,1] sends every start below 1 to 0 and fixes 1, so the
limit map jumps at 1.  Finite-date states come with accuracy rules (the
decay table below is produced by one), but the witness family shows no
accuracy rule can exist for the limit: starts arbitrarily close to 1
keep a limit gap of exactly 1.
"""

from fractions import Fraction

from exactdyn import dissipative
from exactdyn.rational import format_rational, truncate_decimal


def main() -> None:
    start = Fraction(9, 10)
    print(f"== decay of the orbit of {format_rational(start)} ==")
    eps = Fraction(1, 10**12)
    for n in range(9):
        value = dissipative.iterate_approx(start, n, eps)
        size = value.denominator.bit_length()
        print(f"  date {n}: {truncate_decimal(value, 10)}  ({size} bits of denominator)")
    print("  the exact date-n state has about 2^n digits; the accuracy rule")
    print("  sidesteps that by flooring onto a fixed-point grid past the size cap")

    crossing = Fraction(1, 1000)
    n = dissipative.first_date_below(start, crossing, 9)
    print(f"  first below {format_rational(crossing)} at date {n} (exact comparison)")

    print("\n== the limit map and its jump ==")
    for q in (Fraction(0), Fraction(9, 10), Fraction(999, 1000), Fraction(1)):
        print(f"  limit from {format_rational(q):>8} = {format_rational(dissipative.limit_state(q))}")

    print("\n== witnesses that defeat every accuracy rule ==")
    for j in range(1, 7):
        w = dissipative.discontinuity_witness(Fraction(1, 10**j))
        print(f"  eta=10^-{j}: starts {format_rational(w.x)} and 1"
              f" differ by <= eta, limits differ by {format_rational(w.gap)}")
    print("  a limit-state algorithm would force uniform continuity; the gap says no")


if __name__ == "__main__":
    main()

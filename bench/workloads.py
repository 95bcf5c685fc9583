"""Seeded query rounds for the library workloads and the checks of their answers.

A query is ``(kind, args)``; ``kind`` names the exactdyn call it makes
(``worker.py`` holds the calls).  One round is a fixed mix of kinds whose
cost-driving parameters (step counts, digits, depths, fuel) come from
fixed strata, while the seed picks the values inside each stratum, so
every seed gives a round of about the same cost.  Answers are checked
here against ``oracles``, which never import exactdyn.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any, Callable, Optional

import oracles

Query = tuple[str, tuple]

LIBRARY_WORKLOADS = ("exact", "measured", "programs")


def make_round(workload: str, seed: int, scale: int = 1) -> list[Query]:
    """One round of queries; ``scale`` divides every stratum's count (at least one each)."""
    rng = random.Random(f"{workload}:{seed}")
    queries = _GENERATORS[workload](rng, lambda count: max(1, count // scale))
    rng.shuffle(queries)
    return queries


# --- exact ---


def _unit_rational(rng: random.Random, den: int) -> Fraction:
    return Fraction(rng.randrange(0, den + 1), den)


def _digits(rng: random.Random, k: int) -> int:
    return rng.randrange(10 ** (k - 1), 10**k)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _two_is_primitive_root(p: int) -> bool:
    m, f, factors = p - 1, 2, set()
    while f * f <= m:
        while m % f == 0:
            factors.add(f)
            m //= f
        f += 1
    if m > 1:
        factors.add(m)
    return all(pow(2, (p - 1) // f, p) != 1 for f in factors)


def cycle_resolution(rng: random.Random, lo: int, twos: int) -> int:
    """2^twos * p for a prime p in [lo, 2 lo) with 2 a primitive root mod p.

    Every start coprime to the resolution then cycles through (p-1)/2
    states after a tail of ``twos`` steps, so the cost of a cycle search
    depends on the stratum and not on the seed.
    """
    while True:
        p = rng.randrange(lo, 2 * lo)
        if _is_prime(p) and _two_is_primitive_root(p):
            return p << twos


def _exact(rng: random.Random, n: Callable[[int], int]) -> list[Query]:
    qs: list[Query] = []
    # small denominators, step counts far above the denominator
    for steps in (400, 800, 1600, 3200):
        for _ in range(n(8)):
            den = rng.randrange(3, steps // 8)
            qs.append(("baker.iterate", (Fraction(rng.randrange(1, den), den), steps)))
    # denominators up to 10^30, shorter runs
    for digits in (10, 20, 30):
        for steps in (60, 120, 240):
            for _ in range(n(2)):
                qs.append(("baker.iterate", (_unit_rational(rng, _digits(rng, digits)), steps)))
    for den_digits, steps in ((2, 200), (25, 100)):
        for _ in range(n(6)):
            qs.append(("baker.orbit", (_unit_rational(rng, _digits(rng, den_digits)), steps)))
    for res_digits in (3, 6, 12):
        for steps in (1000, 8000):
            for _ in range(n(3)):
                res = _digits(rng, res_digits)
                qs.append(("grid.iterate", (res, rng.randrange(res + 1), steps)))
    for lo in (500, 2000, 6000):
        for twos in (0, 3):
            for _ in range(n(2)):
                res = cycle_resolution(rng, lo, twos)
                start = rng.randrange(1, res)
                while start % 2 == 0 or start % (res >> twos) == 0:
                    start = rng.randrange(1, res)
                qs.append(("grid.orbit_with_cycle", (res, start)))
    for _ in range(n(16)):
        eta = Fraction(1, rng.randrange(2, 10**12))
        a, b = (_unit_rational(rng, rng.randrange(1, 10**6)) for _ in range(2))
        qs.append(("baker.sensitivity_witness", (eta, a, b)))
    for steps in (16, 64, 256, 1024):
        for _ in range(n(4)):
            x = _unit_rational(rng, rng.randrange(2, 1000))
            qs.append(("realfn.evaluate/baker", (steps, x, Fraction(1, 10 ** rng.randrange(1, 12)))))
    for steps in (8, 24):
        for _ in range(n(2)):
            qs.append(("realfn.check_modulus/baker", (steps, 60, rng.randrange(10**6))))
    for dates in (2, 4, 6, 8):
        for _ in range(n(3)):
            x = _unit_rational(rng, rng.randrange(2, 100))
            qs.append(("realfn.evaluate/dissipative", (dates, x, Fraction(1, 10 ** rng.randrange(3, 10)))))
    for dates in (2, 4):
        for _ in range(n(2)):
            qs.append(("realfn.check_modulus/dissipative", (dates, 40, rng.randrange(10**6))))
    for dates in (8, 16, 32, 64):
        for _ in range(n(4)):
            # 1 - 1/m with m near 2^dates keeps x^(2^dates) away from 0 and 1
            m = rng.randrange(2 ** max(dates - 3, 1), 2 ** (dates + 3))
            eps = Fraction(1, 10 ** rng.randrange(3, 31))
            qs.append(("dissipative.iterate_approx", (1 - Fraction(1, m), dates, eps)))
    return qs


def steps_beyond_denominator(query: Query) -> Optional[bool]:
    """Whether an exact query runs more steps than its state has grid points (None: no steps)."""
    kind, args = query
    if kind in ("baker.iterate", "baker.orbit"):
        x, steps = args
        return steps > x.denominator + 1
    if kind == "grid.iterate":
        res, _, steps = args
        return steps > res + 1
    if kind == "realfn.evaluate/baker":
        steps, x, _ = args
        return steps > x.denominator + 1
    return None


# --- measured ---


def _measured(rng: random.Random, n: Callable[[int], int]) -> list[Query]:
    qs: list[Query] = []
    for kind in ("readout.successors", "readout.successor_witnesses"):
        for digits in (3, 4, 5, 6):
            top = 10**digits
            for k in (0, top // 2 - 1, top // 2, top)[: n(4)]:
                qs.append((kind, (digits, k)))
            for _ in range(n(36)):
                qs.append((kind, (digits, rng.randrange(top + 1))))
    # (digits, steps, count): reach sets from 2 members to all 10^d + 1;
    # steps of 10^3 and more are answered through the cycle shortcut
    strata = [(3, 1, 6), (3, 3, 6), (3, 6, 6), (3, 10**3, 3), (3, 10**6, 3), (3, 10**9, 2)]
    strata += [(4, 1, 6), (4, 4, 6), (4, 8, 4), (4, 10**9, 1), (5, 1, 6), (5, 5, 6), (5, 8, 4)]
    for digits, steps, count in strata:
        for _ in range(n(count)):
            qs.append(("readout.reach", (digits, rng.randrange(10**digits + 1), steps)))
    return qs


# --- programs ---

# a minimisation whose body never reaches 0: every run spends its whole budget
NEVER_ZERO = "(mu (comp succ proj 2 2))"

# nested past what the recursive parser handles; the text does not depend on the seed
DEEP_DEPTH = 800
DEEP_TERM = "(comp succ " * DEEP_DEPTH + "proj 1 1" + ")" * DEEP_DEPTH

CORPUS_ARGS = {
    "addition": (2, 300),
    "multiplication": (2, 40),
    "predecessor": (1, 2000),
    "truncated_subtraction": (2, 60),
    "sign": (1, 2000),
}


def random_term(rng: random.Random, depth: int) -> tuple[str, int]:
    """Program text of a well-formed term nested ``depth`` deep, and its node count.

    Built bottom-up from a leaf by wrapping in comp, primrec or mu while
    tracking the arity, so the text is canonical ``format_program`` output.
    """

    def leaf(arity: int) -> str:
        choice = rng.randrange(3) if arity == 1 else rng.randrange(2)
        if choice == 0:
            return f"proj {arity} {rng.randrange(1, arity + 1)}"
        if choice == 1:
            return f"zero {arity}"
        return "succ"

    arity = rng.randrange(1, 4)
    text, nodes = leaf(arity), 1
    for _ in range(depth):
        move = rng.randrange(3)
        if move == 0 or (move == 1 and arity >= 4) or (move == 2 and arity < 2):
            # (comp outer T G2 .. Gq): outer of arity q, the other inners leaves of T's arity
            q = rng.randrange(1, 4)
            extra = [leaf(arity) for _ in range(q - 1)]
            text = " ".join([f"(comp {leaf(q)}", text, *extra]) + ")"
            nodes += 1 + q
        elif move == 1:
            text = f"(primrec {text} {leaf(arity + 2)})"
            nodes, arity = nodes + 2, arity + 1
        else:
            text = f"(mu {text})"
            nodes, arity = nodes + 1, arity - 1
    return text, nodes


def _programs(rng: random.Random, n: Callable[[int], int]) -> list[Query]:
    qs: list[Query] = []
    for name, (arity, cap) in CORPUS_ARGS.items():
        for _ in range(n(6)):
            qs.append(("murec.evaluate", (name, tuple(rng.randrange(cap + 1) for _ in range(arity)), 10**7)))
    for _ in range(n(6)):
        qs.append(("murec.diverge", (NEVER_ZERO, (rng.randrange(1000),), 50_000)))
    for depth in (10, 50, 100, 200, 300):
        for _ in range(n(4)):
            qs.append(("murec.round_trip", random_term(rng, depth)))
    qs.append(("murec.round_trip", (DEEP_TERM, 2 * DEEP_DEPTH + 1)))
    for source, target in (("canonical", "alternative"), ("alternative", "canonical")):
        for _ in range(n(70)):
            den = _digits(rng, rng.randrange(1, 10))
            r = Fraction(rng.randrange(10**9), den) * rng.choice((1, -1))
            qs.append(("encoding.round_trip", (r, source, target)))
    return qs


_GENERATORS = {"exact": _exact, "measured": _measured, "programs": _programs}


# --- answer checks: None when right, otherwise what is wrong ---


def _check_exact(kind: str, args: tuple, out: Any) -> Optional[str]:
    if kind == "baker.iterate":
        x, steps = args
        return None if out == oracles.fold_iterate(x, steps) else "wrong iterate"
    if kind == "baker.orbit":
        return None if out == oracles.fold_orbit(*args) else "wrong orbit"
    if kind == "grid.iterate":
        res, start, steps = args
        return None if out == oracles.grid_iterate(start, res, steps) else "wrong grid iterate"
    if kind == "grid.orbit_with_cycle":
        res, start = args
        return None if out == oracles.grid_cycle(start, res) else "wrong cycle"
    if kind == "baker.sensitivity_witness":
        eta, a, b = args
        start_a, start_b, steps = out
        if abs(start_a - start_b) > eta or not 0 <= min(start_a, start_b) <= max(start_a, start_b) <= 1:
            return "starts not within eta in [0,1]"
        if oracles.fold_iterate(start_a, steps) != a or oracles.fold_iterate(start_b, steps) != b:
            return "starts do not reach the targets"
        return None
    if kind == "realfn.evaluate/baker":
        steps, x, eps = args
        return None if abs(out - oracles.fold_iterate(x, steps)) <= eps else "error above eps"
    if kind.startswith("realfn.check_modulus/"):
        _, trials, _ = args
        return None if out == (trials, 0) else f"modulus report {out}, expected {trials} trials, 0 failures"
    if kind == "realfn.evaluate/dissipative":
        dates, x, eps = args
        return None if abs(out - x ** (2**dates)) <= eps else "error above eps"
    if kind == "dissipative.iterate_approx":
        x, dates, eps = args
        if out < 0:
            return "negative"
        if dates <= 12:
            exact = x ** (2**dates)
            lo = hi = exact
        else:
            lo, hi = oracles.square_bracket(x, dates, dates + 66 + (eps.denominator // eps.numerator).bit_length())
        if out > hi:
            return "above x^(2^n)"
        return None if lo - out <= eps else "more than eps below x^(2^n)"
    return f"unknown kind {kind}"


def _check_measured(kind: str, args: tuple, out: Any) -> Optional[str]:
    if kind == "readout.successors":
        digits, k = args
        return None if out == oracles.successors(k, digits) else "wrong successors"
    if kind == "readout.successor_witnesses":
        digits, k = args
        if tuple(sorted(out)) != oracles.successors(k, digits):
            return "witnesses for the wrong successors"
        for j, x in out.items():
            if not oracles.in_cell(x, k, digits):
                return f"witness {x} outside cell {k}"
            if not oracles.in_cell(oracles.fold_iterate(x, 1), j, digits):
                return f"witness {x} does not step into cell {j}"
        return None
    if kind == "readout.reach":
        digits, k, steps = args
        return None if out == oracles.reach(k, digits, steps) else "wrong reach set"
    return f"unknown kind {kind}"


def _check_programs(kind: str, args: tuple, out: Any) -> Optional[str]:
    if kind == "murec.evaluate":
        name, xs, _ = args
        return None if out == ("value", oracles.CORPUS[name](*xs)) else f"{name}{xs} gave {out}"
    if kind == "murec.diverge":
        _, _, fuel = args
        return None if out == ("diverged", fuel) else f"expected Diverged({fuel}), got {out}"
    if kind == "murec.round_trip":
        text, _ = args
        # the text is canonical, so format(parse(text)) == text is the round trip
        return None if out == text else "format_program(parse_program(text)) != text"
    if kind == "encoding.round_trip":
        r, source, target = args
        code, back, translated = out
        if code != oracles.encode(r, source):
            return "wrong code"
        if back != r:
            return "decode(encode(r)) != r"
        return None if translated == oracles.encode(r, target) else "wrong translation"
    return f"unknown kind {kind}"


CHECKS = {"exact": _check_exact, "measured": _check_measured, "programs": _check_programs}


# --- work per query, for the per-layer rates ---


def work(query: Query, out: Any) -> int:
    kind, args = query
    if kind in ("baker.iterate", "baker.orbit"):
        return args[1]
    if kind == "grid.iterate":
        return args[2]
    if kind == "grid.orbit_with_cycle":
        return len(out[0])
    if kind.startswith("realfn.check_modulus/"):
        return args[1]
    if kind == "dissipative.iterate_approx":
        return args[1]
    if kind == "readout.reach":
        return len(out)
    if kind == "murec.diverge":
        return args[2]
    if kind == "murec.round_trip":
        return args[1]
    return 1

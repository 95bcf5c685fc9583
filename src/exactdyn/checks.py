"""Seeded property suites for every module, each property written once.

Each suite verifies its module's contract: round trips, oracle
agreement, Lipschitz bounds, witness validity.  A check is a claim: a
name, its cases and one predicate.  The cases are a lazy iterable of
small tuples of ints, rationals and names; ``_check`` runs the predicate
on each in turn and stops at the first it rejects, which the check
reports in exact rational text (``fails at 1/3, 2``).  A rejected
accuracy rule adds its first failing trial, an evaluation that runs out
of fuel leaves the check undecided, and any other exception fails it as
``raised <repr>``.

All sampling is driven by one seed, so a run is reproducible bit for
bit.  Every suite runs at two scales.  ``exactdyn check`` runs the small
one, which is the default; the acceptance gate
(``tests/test_acceptance.py``) passes ``gate=True`` for more samples over
wider ranges, at seed 0 and fuel 10^6.  Baker and dissipative have one
scale: their samples already cover the gate.

Each kind of test has one home.  Properties, claims over a range or a
sample, live here and only here.  Worked examples, input validation,
differential tests against reference oracles and samples of other
shapes live in the module tests (``tests/test_<module>.py``).  So no
check here pins a single value or restates the formula of the function
it names.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, TypeVar

from . import baker, dissipative, grid, murec, readout, realfn
from .encoding import Encoding, decode_rational, encode_rational, pair, translate, unpair
from .errors import NotACodeError
from .rational import format_rational


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    out_of_fuel: bool = False  # undecided: the run's fuel budget was too small


class _OutOfFuel(Exception):
    pass


class _Refuted(Exception):
    """A rejection that carries its own account: an accuracy rule's first failing trial."""


_Outcome = TypeVar("_Outcome")


def _within_fuel(outcome: _Outcome | murec.Diverged, fuel: int) -> _Outcome:
    """The outcome of an evaluation under the run's budget, unless it ran dry.

    A total program that diverges under a small budget says nothing about
    the property being checked, so the check is left undecided.
    """
    if isinstance(outcome, murec.Diverged):
        raise _OutOfFuel(f"an evaluation needs more than fuel {fuel}")
    return outcome


def _certified(fn: realfn.RealFn, oracle: Callable[[Fraction], Fraction], trials: int, seed: int) -> bool:
    report = realfn.check_modulus(fn, oracle, trials, seed)
    if not report.ok:
        raise _Refuted(report.failures[0])
    return True


def _fails_at(case: tuple) -> str:
    return "fails at " + ", ".join(v if isinstance(v, str) else format_rational(v) for v in case)


def _check(name: str, cases: Iterable[tuple], holds: Callable[..., bool]) -> CheckResult:
    """Run holds on each case in turn; the first case it rejects fails the check."""
    case: tuple = ()
    try:
        for case in cases:
            if not holds(*case):
                return CheckResult(name, False, _fails_at(case))
    except _OutOfFuel as exc:
        return CheckResult(name, False, str(exc), out_of_fuel=True)
    except _Refuted as exc:
        return CheckResult(name, False, f"{_fails_at(case)}: {exc}")
    except Exception as exc:  # a crashing check is a failing check
        return CheckResult(name, False, f"raised {exc!r}")
    return CheckResult(name, True)


# --- seeded samplers ---


def seeded_rationals(rng: random.Random, count: int) -> list[Fraction]:
    """Canonical rationals of varied magnitude, reduced by construction."""
    out = []
    for _ in range(count):
        digits = rng.randrange(1, 9)
        num = rng.randrange(0, 10**digits)
        den = rng.randrange(1, 10**digits)
        q = Fraction(num, den)
        out.append(-q if rng.randrange(2) else q)
    return out


def seeded_unit_rationals(rng: random.Random, count: int) -> list[Fraction]:
    out = []
    for _ in range(count):
        den = rng.randrange(1, 10**4)
        out.append(Fraction(rng.randrange(0, den + 1), den))
    return out


# --- encoding ---


def encoding_checks(seed: int, fuel: int, gate: bool = False) -> list[CheckResult]:
    rng = random.Random(seed)
    numberings = {e.value: e for e in Encoding}

    def samples() -> Iterator[Fraction]:
        yield from seeded_rationals(rng, 10**4 if gate else 2000)
        for digits in (60, 1000):  # the pairing must stay exact at thousands of digits
            for _ in range(5):
                q = Fraction(rng.randrange(10**digits), rng.randrange(1, 10**digits))
                yield -q if rng.randrange(2) else q

    def code_counts() -> Iterator[tuple[str, int]]:
        distinct = sorted(set(seeded_rationals(rng, 1500)))[:1000]
        for name, numbering in numberings.items():
            yield name, len({encode_rational(q, numbering) for q in distinct})

    def coherent(c: int, source: str, target: str) -> bool:
        s, t = numberings[source], numberings[target]
        try:
            q = decode_rational(c, s)
        except NotACodeError:
            return True
        return decode_rational(translate(c, s, t), t) == q and translate(c, s, s) == c

    return [
        _check("encoding: pairing bijectivity window", zip(range(10**4)),
               lambda c: pair(*unpair(c)) == c and unpair(pair(*divmod(c, 100))) == divmod(c, 100)),
        _check("encoding: rational round trip, both numberings",
               ((q, name) for q in samples() for name in numberings),
               lambda q, name: decode_rational(encode_rational(q, numberings[name]), numberings[name]) == q),
        _check("encoding: injectivity sample", code_counts(), lambda name, codes: codes == 1000),
        _check("encoding: translation coherence",
               ((c, *ends) for c in range(10**4) for ends in (numberings, reversed(numberings))),
               coherent),
    ]


# --- murec ---

_DIVERGENT = murec.Mu(murec.Comp(murec.Succ(), (murec.Proj(2, 2),)))


def murec_checks(seed: int, fuel: int, gate: bool = False) -> list[CheckResult]:
    rng = random.Random(seed)
    oracles: dict[str, Callable[..., int]] = {
        "addition": lambda x, y: x + y,
        "multiplication": lambda x, y: x * y,
        "truncated_subtraction": lambda x, y: max(x - y, 0),
        "predecessor": lambda y: max(y - 1, 0),
        "sign": lambda y: min(y, 1),
    }
    corpus = functools.cache(murec.builtin_program)  # parsed once, by the first check that runs it
    conjugations = {"identity": murec.Proj(1, 1), "successor": murec.Succ(), "zero": murec.Zero(1)}

    def evaluate(term: murec.RecFn, args: tuple[int, ...]) -> murec.Value:
        return _within_fuel(murec.evaluate(term, args, fuel), fuel)

    def arithmetic_cases() -> Iterator[tuple]:
        for name, top in (("addition", 21), ("multiplication", 21), ("truncated_subtraction", 25)):
            top = 51 if gate else top
            yield from ((name, x, y) for x in range(top) for y in range(top))
        yield from ((name, y) for y in range(80) for name in ("predecessor", "sign"))

    def least(x: int) -> bool:
        sub = corpus("truncated_subtraction")  # the least y with x - y = 0 is x itself
        witness = evaluate(murec.Mu(sub), (x,))
        return witness == murec.Value(x) and all(evaluate(sub, (x, z)).value for z in range(x))

    def stable(name: str, x: int, y: int, low: int) -> bool:
        first = murec.evaluate(corpus(name), (x, y), low)
        if not isinstance(first, murec.Value):
            return first == murec.Diverged(low)
        return all(murec.evaluate(corpus(name), (x, y), low + extra) == first for extra in (1, 17, 10**6 - low))

    def conjugated(name: str, q: Fraction, want: Fraction | str) -> bool:
        try:
            return _within_fuel(murec.conjugate_evaluate(conjugations[name], (q,), fuel), fuel) == want
        except NotACodeError:
            return want == "not a code"

    runs = {"plain": murec.evaluate, "conjugated": murec.conjugate_evaluate}
    draws = ((rng.randrange(15), rng.randrange(15), 1 + rng.randrange(200)) for _ in range(80))
    return [
        _check("murec: corpus programs parse with expected arities",
               (("addition", 2), ("multiplication", 2), ("predecessor", 1), ("truncated_subtraction", 2),
                ("sign", 1)),
               lambda name, want: murec.arity(corpus(name)) == want),
        _check("murec: corpus agrees with built-in arithmetic", arithmetic_cases(),
               lambda name, *args: evaluate(corpus(name), args) == murec.Value(oracles[name](*args))),
        _check("murec: minimization returns least witnesses", zip((0, 1, 2, 7, 9, 23, 31)), least),
        # conjugated runs code their argument 0 as 2, on which the search is just as hopeless
        _check("murec: unsatisfiable search diverges at any budget",
               ((route, budget) for budget in (10**3, 10**6 if gate else 10**4) for route in runs),
               lambda route, budget: runs[route](_DIVERGENT, (0,), budget) == murec.Diverged(budget)),
        _check("murec: values are stable under extra fuel",
               ((name, *draw) for draw in draws for name in ("addition", "multiplication")), stable),
        _check("murec: conjugated evaluation decodes correctly",
               (("identity", Fraction(1, 2), Fraction(1, 2)), ("successor", 0, "not a code"),
                ("zero", Fraction(-1, 3), "not a code")),
               conjugated),
    ]


# --- realfn (exercised with the folded doubling map) ---


def realfn_checks(seed: int, fuel: int, gate: bool = False) -> list[CheckResult]:
    rng = random.Random(seed)
    doubling = {n: baker.as_real_fn(n) for n in range(11)}
    twice = realfn.compose(doubling[1], doubling[1])
    rules = {("direct", n): fn for n, fn in doubling.items()} | {("composed", 2): twice}
    outer = realfn.RealFn(lambda e, q: q, lambda e: e / 2, realfn.UNIT)
    scaled = realfn.compose(outer, realfn.RealFn(lambda e, q: q, lambda e: e / 4, realfn.UNIT))
    wrapped = realfn.compose(realfn.identity_on(realfn.UNIT), doubling[2])
    constant = realfn.constant_on(Fraction(0), realfn.UNIT)
    # even a wildly generous accuracy rule cannot hurt a constant
    loose = realfn.RealFn(constant.approx, lambda eps: Fraction(10**6), realfn.UNIT)
    constants = {"own": constant, "loose": loose}

    def caught(n: int, trials: int) -> bool:
        lying = realfn.RealFn(approx=doubling[n].approx, modulus=lambda eps: eps, domain=realfn.UNIT)
        report = realfn.check_modulus(lying, lambda q: baker.iterate(q, n), trials, seed)
        return not report.ok and all(f.error > f.eps for f in report.failures)

    def agrees(x: Fraction, eps: Fraction) -> bool:
        point = realfn.from_rational(x)
        return realfn.evaluate(twice, point, eps) == baker.iterate(x, 2) == realfn.evaluate(wrapped, point, eps)

    def continuous(n: int, x: Fraction, eps: Fraction, t: Fraction) -> bool:
        x_alt = min(x + doubling[n].modulus(eps) * t, Fraction(1))
        return abs(baker.iterate(x, n) - baker.iterate(x_alt, n)) <= 2 * eps

    def accurate(n: int, x: Fraction, eps: Fraction) -> bool:
        return abs(realfn.evaluate(doubling[n], realfn.from_rational(x), eps) - baker.iterate(x, n)) <= eps

    return [
        _check("realfn: folded doubling accuracy rules certified",
               [*(("direct", n, 1000 if gate else 250) for n in (range(1, 11) if gate else (1, 2, 3, 6))),
                ("composed", 2, 400)],
               lambda route, n, trials: _certified(rules[route, n], lambda q: baker.iterate(q, n), trials, seed)),
        _check("realfn: deliberately wrong accuracy rule is caught", [(2, 1000 if gate else 500)], caught),
        _check("realfn: composition composes accuracy rules", zip((*range(1, 12), 1000)),
               lambda k: scaled.modulus(Fraction(1, k)) == Fraction(1, 8 * k)),
        _check("realfn: composed map equals the direct two-step map",
               ((x, eps) for x in seeded_unit_rationals(rng, 50) for eps in (Fraction(1, 10), Fraction(1, 1000))),
               agrees),
        _check("realfn: sampled uniform continuity",
               ((n, x, Fraction(1, 1 + rng.randrange(1000)), Fraction(rng.randrange(101), 100))
                for n in (2, 3, 4) for x in seeded_unit_rationals(rng, 150)),
               continuous),
        _check("realfn: evaluate lands within the requested accuracy",
               ((n, x, Fraction(1, 1 + rng.randrange(10**5)))
                for n in (1, 3, 4, 6) for x in seeded_unit_rationals(rng, 60)),
               accurate),
        _check("realfn: constants satisfy any accuracy rule", zip(constants),
               lambda rule: _certified(constants[rule], lambda q: Fraction(0), 200, seed)),
    ]


# --- baker ---


def baker_checks(seed: int, fuel: int, gate: bool = False) -> list[CheckResult]:
    rng = random.Random(seed)
    special = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
               Fraction(1, 4), Fraction(3, 4)]

    def lipschitz_cases() -> Iterator[tuple[int, Fraction, Fraction, Fraction, Fraction]]:
        # (n, x, y) and the n-step images of x and y: the step's computed once per point
        points = special + seeded_unit_rationals(rng, 200)
        images = [baker.step(x) for x in points]
        for i, x in enumerate(points):
            yield from ((1, x, points[j], images[i], images[j]) for j in range(i + 1, len(points), 5))
        for n in range(13):
            for x, y in (rng.sample(points, 2) for _ in range(100)):
                yield n, x, y, baker.iterate(x, n), baker.iterate(y, n)

    def exact(eta: Fraction, a: Fraction, b: Fraction) -> bool:
        w = baker.sensitivity_witness(eta, a, b)
        return (
            w.start_gap <= w.eta and Fraction(1, 2**w.steps) <= w.eta
            and 0 <= w.start_a <= 1 and 0 <= w.start_b <= 1
            and baker.iterate(w.start_a, w.steps) == a and baker.iterate(w.start_b, w.steps) == b
            and w.end_gap == abs(a - b)
        )

    def spread(j: int) -> bool:
        w = baker.sensitivity_witness(Fraction(1, 10**j), Fraction(0), Fraction(1))
        return w.end_gap == 1 and w.start_gap <= Fraction(1, 10**j)

    return [
        _check("baker: [0,1] maps into [0,1]", zip(special + seeded_unit_rationals(rng, 500)),
               lambda x: 0 <= baker.step(x) <= 1),
        _check("baker: 2-Lipschitz step, 2^n-Lipschitz iterate", lipschitz_cases(),
               lambda n, x, y, image_x, image_y: abs(image_x - image_y) <= 2**n * abs(x - y)),
        _check("baker: 100 sensitivity witnesses are exact",
               ((Fraction(1 + rng.randrange(10**6), 10**6), *seeded_unit_rationals(rng, 2)) for _ in range(100)),
               exact),
        _check("baker: tiny eta still yields full separation", zip(range(1, 10)), spread),
    ]


# --- grid ---


def grid_checks(seed: int, fuel: int, gate: bool = False) -> list[CheckResult]:
    rng = random.Random(seed)
    table = functools.cache(lambda n_res: dict(grid.table(n_res)))  # built once, inside the check

    def tabled(n_res: int, i: int) -> bool:
        lookup, via_table = table(n_res), i
        for n in range(1, 21):
            via_table = lookup[via_table]
            if via_table != grid.iterate(grid.GridState(n_res, i), n).index:
                return False
        return len(lookup) == n_res + 1

    def cycles(n_res: int, i: int) -> bool:
        orbit, entry, length = grid.orbit_with_cycle(grid.GridState(n_res, i))
        return (
            entry + length <= n_res + 2 and len(set(orbit)) == len(orbit)
            and grid.iterate(grid.GridState(n_res, orbit[entry]), length).index == orbit[entry]
            and grid.iterate(grid.GridState(n_res, i), entry + length).index == orbit[entry]
        )

    return [
        # one step from every state: grid states step to grid states, so later steps are exact by induction
        _check("grid: doubling and reflecting preserve every grid",
               ((n_res, i)
                for n_res in [*range(1, 101 if gate else 41), *(rng.randrange(41, 1001) for _ in range(40))]
                for i in range(n_res + 1)),
               lambda n_res, i: grid.step(grid.GridState(n_res, i)).position == baker.step(Fraction(i, n_res))),
        _check("grid: transition-table lookups equal iteration",
               ((n_res, i) for n_res in (1, 2, 7, 9, 31, 33, 40, 100) for i in range(n_res + 1)), tabled),
        _check("grid: every orbit cycles within N+2 steps",
               ((n_res, i) for n_res in range(1, 101) for i in range(n_res + 1)), cycles),
    ]


# --- readout ---


def readout_checks(seed: int, fuel: int, gate: bool = False) -> list[CheckResult]:
    rng = random.Random(seed)
    depths = (1, 2, 3) if gate else (1, 2)
    table = functools.cache(lambda digits: dict(readout.relation_table(digits)))  # built once, inside the check

    def cells() -> Iterator[tuple[int, int]]:
        for digits in depths:
            yield from ((digits, k) for k in range(10**digits + 1))
        for digits in (4, 5, 6) if gate else ():  # where a run's form changes, and evenly spaced cells
            half = 10**digits // 2
            spaced = {half - 1, half, half + 1, 2 * half, *range(0, 2 * half, half // 100)}
            yield from ((digits, k) for k in sorted(spaced))

    def successor_run(digits: int, k: int) -> bool:
        # D = 10^d is even, so 1/2 is a cell end and the step is monotone on every closed cell:
        # cell k < D steps onto the interval from T(k/D), attained, to the cell end T((k+1)/D),
        # not attained, whose cell is dropped when the image rises and kept when it falls
        got = readout.successors(readout.Readout(digits, k))
        if k == 10**digits:
            return (got.lo, got.hi) == (0, 0)
        near, far = (readout.measure(baker.step(Fraction(j, 10**digits)), digits).index for j in (k, k + 1))
        return (got.lo, got.hi) == ((near, far - 1) if near < far else (far, near))

    def witnessed(digits: int, k: int) -> bool:
        m = readout.Readout(digits, k)
        witnesses = readout.successor_witnesses(m)
        return set(witnesses) == set(readout.successors(m).members) and all(
            readout.measure(x, digits).index == k and readout.measure(baker.step(x), digits).index == target
            for target, x in witnesses.items()
        )

    def starts() -> Iterator[tuple[int, int, int]]:
        if gate:  # every start at d <= 2 for 13 steps; the ends and a sample at d = 3 for 6
            runs = ((1, range(11), 13), (2, range(101), 13), (3, [0, 1000, *rng.sample(range(1, 1000), 6)], 6))
        else:
            runs = ((1, range(11), 6), (2, [0, 13, 50, 77, 100], 6))
        for digits, ks, steps in runs:
            yield from ((digits, k, steps) for k in ks)

    def recurs(digits: int, k: int, steps: int) -> bool:
        m = readout.Readout(digits, k)
        reached = [set(readout.reach(m, n).members) for n in range(steps + 1)]
        stepped = (set().union(*(table(digits)[j].members for j in before)) for before in reached)
        return reached[0] == {k} and all(after == want for after, want in zip(reached[1:], stepped))

    return [
        _check("readout: successor runs are the readouts of each cell's exact image", cells(), successor_run),
        _check("readout: every claimed successor has a certifying witness",
               ((digits, k) for digits in depths for k in range(10**digits + 1)), witnessed),
        _check("readout: n-step reach satisfies its recurrence", starts(), recurs),
    ]


# --- dissipative ---


def dissipative_checks(seed: int, fuel: int, gate: bool = False) -> list[CheckResult]:
    rng = random.Random(seed)
    eps = Fraction(1, 10**6)

    def gapped(j: int) -> bool:
        w = dissipative.discontinuity_witness(Fraction(1, 10**j))
        limit_gap = abs(dissipative.limit_state(w.x) - dissipative.limit_state(w.x_alt))
        return w.gap == 1 and limit_gap == 1 and abs(w.x - w.x_alt) <= Fraction(1, 10**j)

    return [
        _check("dissipative: iterates respect the decay bound",
               ((ceiling, x, n) for ceiling in (Fraction(9, 10), Fraction(99, 100))
                for x in [ceiling * Fraction(rng.randrange(10**4 + 1), 10**4) for _ in range(40)]
                for n in (1, 3, 4, 6, 8, 9)),
               lambda ceiling, x, n: dissipative.iterate_approx(x, n, eps) <= ceiling ** (2**n) + eps),
        _check("dissipative: discontinuity witnesses all achieve gap 1", zip(range(1, 10)), gapped),
        _check("dissipative: finite-date accuracy rules certified", zip(range(7)),
               lambda n: _certified(dissipative.as_real_fn(n), lambda q: q ** (2**n), 300, seed)),
    ]


_SUITES = (
    encoding_checks,
    murec_checks,
    realfn_checks,
    baker_checks,
    grid_checks,
    readout_checks,
    dissipative_checks,
)


def run_all(seed: int = 0, fuel: int = 10**6) -> list[CheckResult]:
    results: list[CheckResult] = []
    for suite in _SUITES:
        results.extend(suite(seed, fuel))
    return results

"""Seeded property suites for every module, each property written once.

Each suite verifies its module's contract: round trips, oracle
agreement, Lipschitz bounds, witness validity.  All sampling is driven
by one seed, so a run is reproducible bit for bit.  Every suite runs at
two scales.  ``exactdyn check`` runs the small one, which is the
default; the acceptance gate (``tests/test_acceptance.py``) passes
``gate=True`` for more samples over wider ranges, at seed 0 and fuel
10^6.  Baker and dissipative have one scale: their samples already
cover the gate.

Each kind of test has one home.  Properties, claims over a range or a
sample, live here and only here.  Worked examples, input validation,
differential tests against reference oracles and samples of other
shapes live in the module tests (``tests/test_<module>.py``).  So no
check here pins a single value or restates the formula of the function
it names.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, TypeVar

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


_Outcome = TypeVar("_Outcome")


def _within_fuel(outcome: _Outcome | murec.Diverged, fuel: int) -> _Outcome:
    """The outcome of an evaluation under the run's budget, unless it ran dry.

    A total program that diverges under a small budget says nothing about
    the property being checked, so the check is left undecided.
    """
    if isinstance(outcome, murec.Diverged):
        raise _OutOfFuel(f"an evaluation needs more than fuel {fuel}")
    return outcome


def _check(name: str, body: Callable[[], str | None]) -> CheckResult:
    try:
        detail = body()
    except _OutOfFuel as exc:
        return CheckResult(name, False, str(exc), out_of_fuel=True)
    except Exception as exc:  # a crashing check is a failing check
        return CheckResult(name, False, f"raised {exc!r}")
    return CheckResult(name, detail is None, detail or "")


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

    def pairing_window() -> str | None:
        for c in range(10**4):
            if pair(*unpair(c)) != c:
                return f"pair(unpair({c})) != {c}"
        for n in range(100):
            for p in range(100):
                if unpair(pair(n, p)) != (n, p):
                    return f"unpair(pair({n},{p})) wrong"
        return None

    def round_trip() -> str | None:
        samples = seeded_rationals(rng, 10**4 if gate else 2000)
        for digits in (60, 1000):  # the pairing must stay exact at thousands of digits
            for _ in range(5):
                q = Fraction(rng.randrange(10**digits), rng.randrange(1, 10**digits))
                samples.append(-q if rng.randrange(2) else q)
        for q in samples:
            for enc in Encoding:
                if decode_rational(encode_rational(q, enc), enc) != q:
                    return f"{format_rational(q)} broke the {enc.value} round trip"
        return None

    def injectivity() -> str | None:
        distinct = sorted(set(seeded_rationals(rng, 1500)))[:1000]
        if len(distinct) != 1000:
            return f"only {len(distinct)} distinct rationals sampled"
        for enc in Encoding:
            if len({encode_rational(q, enc) for q in distinct}) != len(distinct):
                return f"two distinct rationals share a {enc.value} code"
        return None

    def translation() -> str | None:
        for c in range(10**4):
            for source, target in (
                (Encoding.CANONICAL, Encoding.ALTERNATIVE),
                (Encoding.ALTERNATIVE, Encoding.CANONICAL),
            ):
                try:
                    q = decode_rational(c, source)
                except NotACodeError:
                    continue
                if decode_rational(translate(c, source, target), target) != q:
                    return f"translation of {c} is incoherent"
                if translate(c, source, source) != c:
                    return f"identity translation moved {c}"
        return None

    return [
        _check("encoding: pairing bijectivity window", pairing_window),
        _check("encoding: rational round trip, both numberings", round_trip),
        _check("encoding: injectivity sample", injectivity),
        _check("encoding: translation coherence", translation),
    ]


# --- murec ---

_DIVERGENT = murec.Mu(murec.Comp(murec.Succ(), (murec.Proj(2, 2),)))


def murec_checks(seed: int, fuel: int, gate: bool = False) -> list[CheckResult]:
    rng = random.Random(seed)
    add = murec.builtin_program("addition")
    mul = murec.builtin_program("multiplication")
    pred = murec.builtin_program("predecessor")
    sub = murec.builtin_program("truncated_subtraction")
    sign = murec.builtin_program("sign")

    def evaluate(term: murec.RecFn, args: tuple[int, ...]) -> murec.Value:
        return _within_fuel(murec.evaluate(term, args, fuel), fuel)

    def corpus_arities() -> str | None:
        expected = {"addition": 2, "multiplication": 2, "predecessor": 1,
                    "truncated_subtraction": 2, "sign": 1}
        for name, want in expected.items():
            got = murec.arity(murec.builtin_program(name))
            if got != want:
                return f"{name} has arity {got}, expected {want}"
        return None

    def oracle_agreement() -> str | None:
        binary = (
            (add, lambda x, y: x + y, "addition", 21),
            (mul, lambda x, y: x * y, "multiplication", 21),
            (sub, lambda x, y: max(x - y, 0), "truncated_subtraction", 25),
        )
        for term, oracle, name, top in binary:
            top = 51 if gate else top
            for x in range(top):
                for y in range(top):
                    got = evaluate(term, (x, y))
                    if got != murec.Value(oracle(x, y)):
                        return f"{name}({x},{y}) = {got}, expected {oracle(x, y)}"
        for y in range(80):
            if evaluate(pred, (y,)) != murec.Value(max(y - 1, 0)):
                return f"predecessor({y}) wrong"
            if evaluate(sign, (y,)) != murec.Value(min(y, 1)):
                return f"sign({y}) wrong"
        return None

    def minimization() -> str | None:
        lookup = murec.Mu(sub)  # least y with x - y = 0 is x itself
        for x in (0, 1, 2, 7, 9, 23, 31):
            got = evaluate(lookup, (x,))
            if got != murec.Value(x):
                return f"mu over truncated subtraction at {x} gave {got}"
            for z in range(x):
                if evaluate(sub, (x, z)).value == 0:
                    return f"witness {x} is not minimal: body vanished at {z}"
        return None

    def divergence() -> str | None:
        for budget in (10**3, 10**6 if gate else 10**4):
            got = murec.evaluate(_DIVERGENT, (0,), budget)
            if got != murec.Diverged(budget):
                return f"successor search terminated: {got}"
        return None

    def fuel_monotonicity() -> str | None:
        for _ in range(80):
            x, y = rng.randrange(15), rng.randrange(15)
            low = 1 + rng.randrange(200)
            for name, term in (("add", add), ("mul", mul)):
                first = murec.evaluate(term, (x, y), low)
                if not isinstance(first, murec.Value):
                    if first != murec.Diverged(low):
                        return f"{name}({x},{y}) stopped short of its budget {low}: {first}"
                    continue
                for extra in (1, 17, 10**6 - low):
                    if murec.evaluate(term, (x, y), low + extra) != first:
                        return f"{name}({x},{y}) changed value with more fuel"
        return None

    def conjugation() -> str | None:
        identity = murec.conjugate_evaluate(murec.Proj(1, 1), (Fraction(1, 2),), fuel)
        if _within_fuel(identity, fuel) != Fraction(1, 2):
            return "identity is not conjugation-invariant"
        for term, args in ((murec.Succ(), (Fraction(0),)), (murec.Zero(1), (Fraction(-1, 3),))):
            try:
                _within_fuel(murec.conjugate_evaluate(term, args, fuel), fuel)
                return f"{term} unexpectedly produced a code"
            except NotACodeError:
                pass
        if murec.conjugate_evaluate(_DIVERGENT, (Fraction(0),), 10**3) != murec.Diverged(10**3):
            return "conjugated evaluation swallowed a divergence"
        return None

    return [
        _check("murec: corpus programs parse with expected arities", corpus_arities),
        _check("murec: corpus agrees with built-in arithmetic", oracle_agreement),
        _check("murec: minimization returns least witnesses", minimization),
        _check("murec: unsatisfiable search diverges at any budget", divergence),
        _check("murec: values are stable under extra fuel", fuel_monotonicity),
        _check("murec: conjugated evaluation decodes correctly", conjugation),
    ]


# --- realfn (exercised with the folded doubling map) ---


def realfn_checks(seed: int, fuel: int, gate: bool = False) -> list[CheckResult]:
    rng = random.Random(seed)

    def certified_moduli() -> str | None:
        for n in range(1, 11) if gate else (1, 2, 3, 6):
            report = realfn.check_modulus(
                baker.as_real_fn(n), lambda q, n=n: baker.iterate(q, n), 1000 if gate else 250, seed
            )
            if not report.ok:
                return f"n={n}: {report.failures[0]}"
        return None

    def wrong_modulus_detected() -> str | None:
        honest = baker.as_real_fn(2)
        lying = realfn.RealFn(approx=honest.approx, modulus=lambda eps: eps, domain=honest.domain)
        report = realfn.check_modulus(lying, lambda q: baker.iterate(q, 2), 1000 if gate else 500, seed)
        if report.ok:
            return "an accuracy rule off by 4x went unnoticed"
        if any(f.error <= f.eps for f in report.failures):
            return "a reported failure was within its accuracy"
        return None

    def composition_modulus() -> str | None:
        outer = realfn.RealFn(lambda e, q: q, lambda e: e / 2, realfn.UNIT)
        inner = realfn.RealFn(lambda e, q: q, lambda e: e / 4, realfn.UNIT)
        composed = realfn.compose(outer, inner)
        for k in (*range(1, 12), 1000):
            eps = Fraction(1, k)
            if composed.modulus(eps) != eps / 8:
                return f"composed accuracy rule at {eps} is {composed.modulus(eps)}"
        return None

    def composition_agrees() -> str | None:
        twice = realfn.compose(baker.as_real_fn(1), baker.as_real_fn(1))
        direct = baker.as_real_fn(2)
        ident = realfn.identity_on(realfn.UNIT)
        wrapped = realfn.compose(ident, direct)
        for x in seeded_unit_rationals(rng, 50):
            point = realfn.from_rational(x)
            for eps in (Fraction(1, 10), Fraction(1, 1000)):
                if realfn.evaluate(twice, point, eps) != baker.iterate(x, 2):
                    return f"twice-composed map drifted at {format_rational(x)}"
                if realfn.evaluate(wrapped, point, eps) != realfn.evaluate(direct, point, eps):
                    return "identity is not neutral for composition"
        report = realfn.check_modulus(twice, lambda q: baker.iterate(q, 2), 400, seed)
        if not report.ok:
            return f"composed map broke its guarantee: {report.failures[0]}"
        return None

    def uniform_continuity() -> str | None:
        for n in (2, 3, 4):
            fn = baker.as_real_fn(n)
            for x in seeded_unit_rationals(rng, 150):
                eps = Fraction(1, 1 + rng.randrange(1000))
                slack = fn.modulus(eps)
                x_alt = min(x + slack * Fraction(rng.randrange(101), 100), Fraction(1))
                if abs(baker.iterate(x, n) - baker.iterate(x_alt, n)) > 2 * eps:
                    return f"nearby points {format_rational(x)}, {format_rational(x_alt)} separate"
        return None

    def evaluate_accuracy() -> str | None:
        for n in (1, 3, 4, 6):
            fn = baker.as_real_fn(n)
            for x in seeded_unit_rationals(rng, 60):
                eps = Fraction(1, 1 + rng.randrange(10**5))
                got = realfn.evaluate(fn, realfn.from_rational(x), eps)
                if abs(got - baker.iterate(x, n)) > eps:
                    return f"evaluate missed by more than eps at {format_rational(x)}"
        return None

    def constant_rule() -> str | None:
        fn = realfn.constant_on(Fraction(0), realfn.UNIT)
        # even a wildly generous accuracy rule cannot hurt a constant
        loose = realfn.RealFn(fn.approx, lambda eps: Fraction(10**6), realfn.UNIT)
        for rule in (fn, loose):
            report = realfn.check_modulus(rule, lambda q: Fraction(0), 200, seed)
            if not report.ok:
                return str(report.failures[0])
        return None

    return [
        _check("realfn: folded doubling accuracy rules certified", certified_moduli),
        _check("realfn: deliberately wrong accuracy rule is caught", wrong_modulus_detected),
        _check("realfn: composition composes accuracy rules", composition_modulus),
        _check("realfn: composed map equals the direct two-step map", composition_agrees),
        _check("realfn: sampled uniform continuity", uniform_continuity),
        _check("realfn: evaluate lands within the requested accuracy", evaluate_accuracy),
        _check("realfn: constants satisfy any accuracy rule", constant_rule),
    ]


# --- baker ---


def baker_checks(seed: int, fuel: int, gate: bool = False) -> list[CheckResult]:
    rng = random.Random(seed)
    special = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
               Fraction(1, 4), Fraction(3, 4)]

    def range_preserved() -> str | None:
        for x in special + seeded_unit_rationals(rng, 500):
            y = baker.step(x)
            if y < 0 or y > 1:
                return f"step({format_rational(x)}) = {format_rational(y)} left [0,1]"
        return None

    def lipschitz() -> str | None:
        points = special + seeded_unit_rationals(rng, 200)
        images = [baker.step(x) for x in points]
        for i, x in enumerate(points):
            for j in range(i + 1, len(points), 5):
                y = points[j]
                if abs(images[i] - images[j]) > 2 * abs(x - y):
                    return f"step stretched {format_rational(x)}, {format_rational(y)} by > 2"
        for n in range(13):
            bound = 2**n
            for _ in range(100):
                x, y = rng.sample(points, 2)
                if abs(baker.iterate(x, n) - baker.iterate(y, n)) > bound * abs(x - y):
                    return f"{n}-step iterate beat Lipschitz bound {bound}"
        return None

    def witnesses() -> str | None:
        for _ in range(100):
            eta = Fraction(1 + rng.randrange(10**6), 10**6)
            a, b = seeded_unit_rationals(rng, 2)
            w = baker.sensitivity_witness(eta, a, b)
            if w.start_gap > w.eta or Fraction(1, 2**w.steps) > w.eta:
                return f"witness for eta={format_rational(eta)} starts too far apart"
            if not (0 <= w.start_a <= 1 and 0 <= w.start_b <= 1):
                return f"witness for eta={format_rational(eta)} starts outside [0,1]"
            if baker.iterate(w.start_a, w.steps) != a or baker.iterate(w.start_b, w.steps) != b:
                return f"witness for eta={format_rational(eta)} missed its targets"
            if w.end_gap != abs(a - b):
                return f"witness for eta={format_rational(eta)} misreports its end gap"
        return None

    def maximal_spread() -> str | None:
        for j in range(1, 10):
            w = baker.sensitivity_witness(Fraction(1, 10**j), Fraction(0), Fraction(1))
            if w.end_gap != 1:
                return f"eta=10^-{j}: end separation {format_rational(w.end_gap)} != 1"
            if w.start_gap > Fraction(1, 10**j):
                return f"eta=10^-{j}: starts are farther apart than eta"
        return None

    return [
        _check("baker: [0,1] maps into [0,1]", range_preserved),
        _check("baker: 2-Lipschitz step, 2^n-Lipschitz iterate", lipschitz),
        _check("baker: 100 sensitivity witnesses are exact", witnesses),
        _check("baker: tiny eta still yields full separation", maximal_spread),
    ]


# --- grid ---


def grid_checks(seed: int, fuel: int, gate: bool = False) -> list[CheckResult]:
    rng = random.Random(seed)

    def exactness() -> str | None:
        # one step from every state: grid states step to grid states, so later steps are exact by induction
        sizes = range(1, 101) if gate else [*range(1, 41), *(rng.randrange(41, 1001) for _ in range(40))]
        for n_res in sizes:
            for i in range(n_res + 1):
                s = grid.GridState(n_res, i)
                if grid.step(s).position != baker.step(s.position):
                    return f"grid step of {i}/{n_res} leaves the exact one"
        return None

    def table_matches_iteration() -> str | None:
        for n_res in (1, 2, 7, 9, 31, 33, 40, 100):
            lookup = dict(grid.table(n_res))
            if len(lookup) != n_res + 1:
                return f"table for N={n_res} has {len(lookup)} rows"
            for i in range(n_res + 1):
                via_table = i
                for n in range(1, 21):
                    via_table = lookup[via_table]
                    if via_table != grid.iterate(grid.GridState(n_res, i), n).index:
                        return f"table iteration diverged at N={n_res}, start {i}"
        return None

    def eventual_periodicity() -> str | None:
        for n_res in range(1, 101):
            for i in range(n_res + 1):
                orbit, entry, length = grid.orbit_with_cycle(grid.GridState(n_res, i))
                if entry + length > n_res + 2:
                    return f"orbit of {i}/{n_res} took too long to cycle"
                if len(set(orbit)) != len(orbit):
                    return f"orbit of {i}/{n_res} repeats a state before its cycle"
                if grid.iterate(grid.GridState(n_res, orbit[entry]), length).index != orbit[entry]:
                    return f"the cycle found from {i}/{n_res} does not close"
                if grid.iterate(grid.GridState(n_res, i), entry + length).index != orbit[entry]:
                    return f"cycle detection inconsistent at {i}/{n_res}"
        return None

    return [
        _check("grid: doubling and reflecting preserve every grid", exactness),
        _check("grid: transition-table lookups equal iteration", table_matches_iteration),
        _check("grid: every orbit cycles within N+2 steps", eventual_periodicity),
    ]


# --- readout ---


def _sampled_successors(digits: int, k: int, points: int) -> set[int]:
    """Readouts of the images of sample points of cell k at d digits.

    The samples are `points` evenly spaced points, stepped in integers
    by ``grid.fold``, and the special points stepped by ``baker.step``:
    the cell's start, a point one millionth of its width below its end,
    and 1/4, 1/2 and 3/4 where they fall inside.
    """
    scale = 10**digits
    observed = set()
    if k < scale:
        denom = scale * points
        for m in range(k * points, (k + 1) * points):  # the point m/denom lies in the cell
            observed.add(grid.fold(m, denom) // points)
    lo = Fraction(k, scale)
    hi = Fraction(k + 1, scale) if k < scale else lo
    specials = [lo, hi - (hi - lo) / 10**6]
    specials += [s for s in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)) if lo <= s < hi]
    observed.update(readout.measure(baker.step(x), digits).index for x in specials)
    return observed


def readout_checks(seed: int, fuel: int, gate: bool = False) -> list[CheckResult]:
    rng = random.Random(seed)
    depths = (1, 2, 3) if gate else (1, 2)

    def soundness() -> str | None:
        for digits in depths:
            for k in range(10**digits + 1):
                claimed = readout.successors(readout.Readout(digits, k))
                if not all(j in claimed for j in _sampled_successors(digits, k, 1000 if gate else 60)):
                    return f"d={digits}: sampled image of cell {k} escaped its successors"
        return None

    def witness_completeness() -> str | None:
        for digits in depths:
            for k in range(10**digits + 1):
                m = readout.Readout(digits, k)
                claimed = readout.successors(m)
                witnesses = readout.successor_witnesses(m)
                if set(witnesses) != set(claimed.members):
                    return f"d={digits}: cell {k} lacks witnesses for some successors"
                cell = m.cell()
                for target, x in witnesses.items():
                    inside = (cell.lo < x or (cell.lo == x and not cell.lo_open)) and (
                        x < cell.hi or (x == cell.hi and not cell.hi_open)
                    )
                    if not inside:
                        return f"d={digits}: witness for {k}->{target} left the cell"
                    if readout.measure(baker.step(x), digits).index != target:
                        return f"d={digits}: witness for {k}->{target} does not certify"
        return None

    def reach_recurrence() -> str | None:
        if gate:  # every start at d <= 2 for 13 steps; the ends and a sample at d = 3 for 6
            runs = ((1, range(11), 13), (2, range(101), 13), (3, [0, 1000, *rng.sample(range(1, 1000), 6)], 6))
        else:
            runs = ((1, range(11), 6), (2, [0, 13, 50, 77, 100], 6))
        for digits, starts, steps in runs:
            table = dict(readout.relation_table(digits))
            for k in starts:
                m = readout.Readout(digits, k)
                rebuilt = {k}
                for n in range(steps + 1):
                    direct = set(readout.reach(m, n).members)
                    if direct != rebuilt:
                        return f"d={digits}: reach recurrence failed at start {k}, n={n}"
                    rebuilt = set().union(*(table[j].members for j in direct))
        return None

    return [
        _check("readout: sampled images land in claimed successors", soundness),
        _check("readout: every claimed successor has a certifying witness", witness_completeness),
        _check("readout: n-step reach satisfies its recurrence", reach_recurrence),
    ]


# --- dissipative ---


def dissipative_checks(seed: int, fuel: int, gate: bool = False) -> list[CheckResult]:
    rng = random.Random(seed)

    def convergence_bound() -> str | None:
        for delta in (Fraction(1, 10), Fraction(1, 100)):
            ceiling = 1 - delta
            for _ in range(40):
                x = ceiling * Fraction(rng.randrange(10**4 + 1), 10**4)
                for n in (1, 3, 4, 6, 8, 9):
                    eps = Fraction(1, 10**6)
                    if dissipative.iterate_approx(x, n, eps) > ceiling ** (2**n) + eps:
                        return f"approximation exceeded the decay bound at {format_rational(x)}"
        return None

    def witness_family() -> str | None:
        for j in range(1, 10):
            eta = Fraction(1, 10**j)
            w = dissipative.discontinuity_witness(eta)
            limit_gap = abs(dissipative.limit_state(w.x) - dissipative.limit_state(w.x_alt))
            if w.gap != 1 or limit_gap != 1:
                gaps = f"{format_rational(w.gap)}, limit gap {format_rational(limit_gap)}"
                return f"eta=10^-{j}: gap {gaps} != 1"
            if abs(w.x - w.x_alt) > eta:
                return f"eta=10^-{j}: witness pair too far apart"
        return None

    def finite_date_rules() -> str | None:
        for n in range(7):
            report = realfn.check_modulus(
                dissipative.as_real_fn(n), lambda q, n=n: q ** (2**n), 300, seed
            )
            if not report.ok:
                return f"date {n}: {report.failures[0]}"
        return None

    return [
        _check("dissipative: iterates respect the decay bound", convergence_bound),
        _check("dissipative: discontinuity witnesses all achieve gap 1", witness_family),
        _check("dissipative: finite-date accuracy rules certified", finite_date_rules),
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

"""Runs one library workload's rounds in a fresh process and reports timings.

Reads a pickled job from stdin and writes a pickled report to stdout;
``run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's
``src``.  The process holds only exactdyn, the round's inputs and one
round of answers, so its peak resident memory is the program's.
"""

from __future__ import annotations

import os
import pickle
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import oracles
from probes import SetupProbes
from tracing import Tracer, untraced

import exactdyn
from exactdyn import baker, dissipative, encoding, grid, murec, readout, realfn

Call = Callable[..., Any]


def _check_modulus_baker(call: Call, steps: int, trials: int, seed: int) -> tuple[int, int]:
    fn = call("baker.as_real_fn", baker.as_real_fn, steps)
    oracle = lambda x: call("bench.oracle", oracles.fold_iterate, x, steps)  # noqa: E731
    report = call("realfn.check_modulus", realfn.check_modulus, fn, oracle, trials, seed)
    return report.trials, len(report.failures)


def _check_modulus_dissipative(call: Call, dates: int, trials: int, seed: int) -> tuple[int, int]:
    fn = call("dissipative.as_real_fn", dissipative.as_real_fn, dates)
    oracle = lambda x: call("bench.oracle", pow, x, 2**dates)  # noqa: E731
    report = call("realfn.check_modulus", realfn.check_modulus, fn, oracle, trials, seed)
    return report.trials, len(report.failures)


def _evaluate(module: Any) -> Callable[..., Fraction]:
    def run(call: Call, steps: int, x: Fraction, eps: Fraction) -> Fraction:
        fn = call(f"{module.__name__.rsplit('.', 1)[1]}.as_real_fn", module.as_real_fn, steps)
        return call("realfn.evaluate", realfn.evaluate, fn, realfn.from_rational(x), eps)

    return run


def _sensitivity(call: Call, eta: Fraction, a: Fraction, b: Fraction) -> tuple:
    w = call("baker.sensitivity_witness", baker.sensitivity_witness, eta, a, b)
    return w.start_a, w.start_b, w.steps


def _evaluate_term(call: Call, name: str, args: tuple, fuel: int) -> tuple[str, int]:
    outcome = call("murec.evaluate", murec.evaluate, TERMS[name], args, fuel)
    if isinstance(outcome, murec.Diverged):
        return "diverged", outcome.fuel_spent
    return "value", outcome.value


def _round_trip_program(call: Call, text: str, nodes: int) -> str:
    term = call("murec.parse_program", murec.parse_program, text)
    return call("murec.format_program", murec.format_program, term)


def _round_trip_rational(call: Call, r: Fraction, source: str, target: str) -> tuple:
    src, dst = encoding.Encoding(source), encoding.Encoding(target)
    code = call("encoding.encode_rational", encoding.encode_rational, r, src)
    back = call("encoding.decode_rational", encoding.decode_rational, code, src)
    return code, back, call("encoding.translate", encoding.translate, code, src, dst)


EXECUTORS: dict[str, Callable[..., Any]] = {
    "baker.iterate": lambda call, x, n: call("baker.iterate", baker.iterate, x, n),
    "baker.orbit": lambda call, x, n: call("baker.orbit", baker.orbit, x, n),
    "grid.iterate": lambda call, res, i, n: call("grid.iterate", grid.iterate, grid.GridState(res, i), n).index,
    "grid.orbit_with_cycle": lambda call, res, i: call(
        "grid.orbit_with_cycle", grid.orbit_with_cycle, grid.GridState(res, i)
    ),
    "baker.sensitivity_witness": _sensitivity,
    "realfn.evaluate/baker": _evaluate(baker),
    "realfn.check_modulus/baker": _check_modulus_baker,
    "realfn.evaluate/dissipative": _evaluate(dissipative),
    "realfn.check_modulus/dissipative": _check_modulus_dissipative,
    "dissipative.iterate_approx": lambda call, x, n, eps: call(
        "dissipative.iterate_approx", dissipative.iterate_approx, x, n, eps
    ),
    "readout.successors": lambda call, d, k: call(
        "readout.successors", readout.successors, readout.Readout(d, k)
    ).members,
    "readout.successor_witnesses": lambda call, d, k: call(
        "readout.successor_witnesses", readout.successor_witnesses, readout.Readout(d, k)
    ),
    "readout.reach": lambda call, d, k, n: call("readout.reach", readout.reach, readout.Readout(d, k), n).members,
    "murec.evaluate": _evaluate_term,
    "murec.diverge": _evaluate_term,
    "murec.round_trip": _round_trip_program,
    "encoding.round_trip": _round_trip_rational,
}

# corpus programs by name and the diverging terms by their text, parsed before timing
TERMS: dict[str, Any] = {}


def run_round(queries: list, call: Call) -> tuple[list, list, dict]:
    """Run every query once; returns (answers, latencies, {index: failure})."""
    answers: list = []
    latencies: list = []
    failures: dict[int, str] = {}
    for index, (kind, args) in enumerate(queries):
        if isinstance(call, Tracer):
            call.query = index
        start = perf_counter()
        try:
            answer = EXECUTORS[kind](call, *args)
        except Exception as exc:  # a failing query is counted, not fatal
            latencies.append(perf_counter() - start)
            answers.append(None)
            failures[index] = repr(exc)[:200]
            continue
        latencies.append(perf_counter() - start)
        answers.append(answer)
    return answers, latencies, failures


def run_job(job: dict) -> dict:
    queries = job["queries"]
    TERMS.update((name, murec.builtin_program(name)) for name in murec.BUILTIN_PROGRAMS)
    TERMS.update((text, murec.parse_program(text)) for kind, (text, *_) in queries if kind == "murec.diverge")
    reference, _, failures = run_round(queries, untraced)
    report: dict = {"reference": reference, "failures": failures, "mismatches": 0}

    probes = SetupProbes(job["workload"], dict(os.environ), os.getcwd())
    tracer = Tracer()
    calls = {"untraced": untraced, "traced": tracer} if job["trace"] else {"untraced": untraced}
    latencies: dict[str, list] = {name: [] for name in calls}
    # A traced run alternates untraced and traced rounds, so that drift in
    # the machine's speed falls on both alike; each kind gets half the time.
    limit = job["seconds"] / len(calls)
    rounds = busy = 0
    while rounds == 0 or busy < limit:
        for name, call in calls.items():
            answers, lat, _ = run_round(queries, call)
            report["mismatches"] += sum(a != r for a, r in zip(answers, reference))
            latencies[name].extend(lat)
        busy += sum(latencies["untraced"][-len(queries):])
        rounds += 1
        probes.due(busy / limit if limit > 0 else 1.0)
    report["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probes.due(1.0)
    report.update(latencies=latencies["untraced"], rounds=rounds, setup_walls=probes.walls)
    if job["trace"]:
        report.update(traced_latencies=latencies["traced"], traced_rounds=rounds)
        # spans of failing queries are kept apart from their kind's
        report["self_times"] = tracer.self_times(lambda index: "failed" if index in failures else queries[index][0])
        report["spans"] = tracer.spans
    return report


def main() -> int:
    src = Path(__file__).resolve().parents[1] / "src"
    if Path(exactdyn.__file__).resolve().parent.parent != src:
        print(f"exactdyn imported from {exactdyn.__file__}, not from {src}", file=sys.stderr)
        return 2
    job = pickle.load(sys.stdin.buffer)
    pickle.dump(run_job(job), sys.stdout.buffer)
    return 0


if __name__ == "__main__":
    sys.exit(main())

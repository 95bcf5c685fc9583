"""Benchmark for exactdyn: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload exact --seed 1 --seconds 20 --trace 0

One caller sends the next query when the last returns.  The library
workloads (exact, measured, programs) run in a fresh worker process
(``worker.py``); the ``cli`` workload runs each call as its own
``python -m exactdyn.cli`` process.  Answers are checked against
``oracles`` outside the timed phase.  The last line of standard output
is one JSON object: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics from a traced run.  A copy, with the
spans of a traced run, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Optional

import cliload
import workloads
from probes import SetupProbes
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
WORKLOADS = (*workloads.LIBRARY_WORKLOADS, "cli")

# The percentile reported as query_ms_tail, chosen so a run of the
# configured length leaves well over ten samples beyond it.
TAIL_PERCENTILE = {"exact": 99, "measured": 99, "programs": 99, "cli": 90}
# Layer metrics of a workload that does not exercise the layer come from
# one traced round of this workload at this reduced scale.
COVERAGE_SCALE = 100


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(samples: int, preferred: int) -> int:
    """The preferred percentile, or the highest lower one with ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if p <= preferred and samples * (100 - p) / 100 >= 10:
            return p
    return 50


# --- library workloads ---


def run_worker(workload: str, queries: list, seconds: float, trace: bool) -> dict:
    job = pickle.dumps({"workload": workload, "queries": queries, "seconds": seconds, "trace": trace})
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py")], input=job, capture_output=True, env=child_env(), cwd=ROOT
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker failed: {done.stderr.decode(errors='replace').strip()}")
    return pickle.loads(done.stdout)


def library_run(workload: str, seed: int, seconds: float, trace: bool, scale: int = 1) -> dict:
    queries = workloads.make_round(workload, seed, scale)
    report = run_worker(workload, queries, seconds, trace)
    reference, failures = report["reference"], report["failures"]
    errors = []
    for index, (query, answer) in enumerate(zip(queries, reference)):
        if index not in failures:
            problem = workloads.CHECKS[workload](*query, answer)
            if problem:
                errors.append(f"{query[0]}{query[1]!r:.120}: {problem}")
    if report["mismatches"]:
        errors.append(f"{report['mismatches']} answers differed from the first round's")
    ok = [i not in failures for i in range(len(queries))]
    run = {
        "queries": len(queries),
        "rounds": report["rounds"],
        "latencies": [t for i, t in enumerate(report["latencies"]) if ok[i % len(queries)]],
        "busy": sum(report["latencies"]),
        "peak_rss_mb": report["peak_rss_kib"] / 1024,
        "failures": {f"{queries[i][0]}#{i}": why for i, why in failures.items()},
        "errors": errors,
        "inputs": describe_inputs(workload, queries, reference),
        "setup_walls": report["setup_walls"],
    }
    if trace:
        run["traced_busy"] = sum(report["traced_latencies"])
        run["traced_rounds"] = report["traced_rounds"]
        run["spans"] = report["spans"]
        work, calls = {}, {}
        for index, (query, answer) in enumerate(zip(queries, reference)):
            if ok[index]:
                work[query[0]] = work.get(query[0], 0) + workloads.work(query, answer) * run["traced_rounds"]
                calls[query[0]] = calls.get(query[0], 0) + run["traced_rounds"]
        run["layers"] = library_layers(report["self_times"], work, calls, run["traced_rounds"])
    return run


def describe_inputs(workload: str, queries: list, reference: list) -> dict:
    kinds: dict[str, int] = {}
    for kind, _ in queries:
        kinds[kind] = kinds.get(kind, 0) + 1
    info: dict = {"per_round": kinds}
    if workload == "exact":
        marks = [m for m in map(workloads.steps_beyond_denominator, queries) if m is not None]
        info["share_steps_above_denominator_plus_1"] = sum(marks) / len(marks)
    if workload == "measured":
        sizes = [len(a) for (kind, _), a in zip(queries, reference) if kind == "readout.reach"]
        info["share_reach_above_3_members"] = sum(s > 3 for s in sizes) / len(sizes)
    return info


def library_layers(self_times: dict, work: dict, calls: dict, rounds: int) -> dict:
    """Per-layer metrics from self times by (query kind, span name) and work by query kind."""

    def busy(span_prefix: str, kinds: Optional[tuple] = None) -> float:
        return sum(
            s for (kind, name), s in self_times.items()
            if name.startswith(span_prefix) and (kinds is None or kind in kinds)
        )

    def rate(amount: float, seconds: float) -> Optional[float]:
        return amount / seconds if seconds > 0 and amount > 0 else None

    def per_round(seconds: float) -> Optional[float]:
        return seconds / rounds if seconds > 0 else None

    modulus = ("realfn.check_modulus/baker", "realfn.check_modulus/dissipative")
    layers = {
        "baker.busy_s": per_round(busy("baker.")),
        "baker.steps_per_s": rate(
            work.get("baker.iterate", 0) + work.get("baker.orbit", 0),
            busy("baker.iterate", ("baker.iterate",)) + busy("baker.orbit", ("baker.orbit",)),
        ),
        "grid.busy_s": per_round(busy("grid.")),
        "grid.steps_per_s": rate(work.get("grid.iterate", 0), busy("grid.iterate", ("grid.iterate",))),
        "grid.cycle_states_per_s": rate(
            work.get("grid.orbit_with_cycle", 0), busy("grid.orbit_with_cycle", ("grid.orbit_with_cycle",))
        ),
        "realfn.busy_s": per_round(busy("realfn.")),
        "realfn.modulus_trials_per_s": rate(
            sum(work.get(k, 0) for k in modulus), busy("realfn.check_modulus", modulus)
        ),
        "dissipative.busy_s": per_round(busy("dissipative.")),
        "dissipative.dates_per_s": rate(
            work.get("dissipative.iterate_approx", 0),
            busy("dissipative.iterate_approx", ("dissipative.iterate_approx",)),
        ),
        "readout.successors_busy_s": per_round(busy("readout.successors", ("readout.successors",))),
        "readout.successor_sets_per_s": rate(
            calls.get("readout.successors", 0), busy("readout.successors", ("readout.successors",))
        ),
        "readout.witnesses_busy_s": per_round(busy("readout.successor_witnesses")),
        "readout.reach_busy_s": per_round(busy("readout.reach")),
        "readout.reach_members_per_s": rate(work.get("readout.reach", 0), busy("readout.reach")),
        "murec.eval_busy_s": per_round(busy("murec.evaluate")),
        "murec.fuel_per_s": rate(work.get("murec.diverge", 0), busy("murec.evaluate", ("murec.diverge",))),
        "murec.parse_nodes_per_s": rate(
            work.get("murec.round_trip", 0), busy("murec.parse_program", ("murec.round_trip",))
        ),
        "murec.parse_busy_s": per_round(busy("murec.parse_program", ("murec.round_trip",))),
        "encoding.busy_s": per_round(busy("encoding.")),
        "encoding.round_trips_per_s": rate(calls.get("encoding.round_trip", 0), busy("encoding.")),
    }
    return {k: v for k, v in layers.items() if v is not None}


# --- cli workload ---

CHECK_SUITES = ("encoding", "murec", "realfn", "baker", "grid", "readout", "dissipative")


def cli_call(argv: list[str]) -> tuple[float, tuple[int, str, str]]:
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "exactdyn.cli", *argv], capture_output=True, text=True, env=child_env(), cwd=ROOT
    )
    return perf_counter() - start, (done.returncode, done.stdout, done.stderr)


def cli_run(seed: int, seconds: float, trace: bool, scale: int = 1) -> dict:
    argvs = cliload.make_round(seed, scale)
    reference: list = []
    mismatches = 0
    probes = SetupProbes("cli", child_env(), str(ROOT))
    tracer = Tracer()
    if trace:
        sys.path.insert(0, str(SRC))
        from exactdyn import checks, cli

    def one_round(traced: bool) -> list:
        """Each call as a process; a traced round also runs it in process through cli.run and rendering."""
        nonlocal mismatches
        latencies, outputs = [], []
        for index, argv in enumerate(argvs):
            if traced:
                tracer.query = index
                latency, output = tracer("cli.process", cli_call, argv)
                result = tracer("cli.run", cli.run, argv)
                render = cli.render_structured if result.fmt == "structured" else cli.render_plain
                tracer("cli.render", render, result)
            else:
                latency, output = cli_call(argv)
                probes.due((busy + sum(latencies) + latency) / limit if limit else 1.0)
            latencies.append(latency)
            outputs.append(output)
        if not reference:
            reference.extend(outputs)
        mismatches += sum(o != r for o, r in zip(outputs, reference))
        return latencies

    # as in the worker, a traced run alternates untraced and traced rounds
    limit = seconds / 2 if trace else seconds
    latencies, traced_latencies = [], []
    rounds = busy = 0
    while rounds == 0 or busy < limit:
        latencies += one_round(False)
        busy = sum(latencies)
        if trace:
            traced_latencies += one_round(True)
        rounds += 1
    probes.due(1.0)
    failing = [i for i, (code, _, _) in enumerate(reference) if code != 0]
    ok = [i not in failing for i in range(len(argvs))]
    run = {
        "queries": len(argvs),
        "rounds": rounds,
        "latencies": [t for i, t in enumerate(latencies) if ok[i % len(argvs)]],
        "busy": sum(latencies),
        # the largest child process; setup probes only import, so a call is the largest
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "failures": {" ".join(argvs[i]): reference[i][2].strip()[:200] for i in failing},
        "errors": [],
        "inputs": {"per_round": len(argvs), "check_calls_per_round": sum(a[-1] == "check" for a in argvs)},
        "setup_walls": probes.walls,
    }
    for argv, output, good in zip(argvs, reference, ok):
        problem = cliload.check(argv, *output) if good else None
        if problem:
            run["errors"].append(f"exactdyn {' '.join(argv)}: {problem}")
    if mismatches:
        run["errors"].append(f"{mismatches} outputs differed from the first round's")
    if trace:
        tracer.query = -1
        for _ in range(rounds):
            for name in CHECK_SUITES:
                tracer(f"checks.{name}", getattr(checks, f"{name}_checks"), seed, 10**6)
            tracer("checks.run_all", checks.run_all, seed)
        run.update(traced_busy=sum(traced_latencies), traced_rounds=rounds, spans=tracer.spans)
        run["layers"] = cli_layers(tracer.spans, probes.imports)
    return run


def cli_layers(spans: list, import_s: list[float]) -> dict:
    durations: dict[str, list[float]] = {}
    for name, start, end, _, _ in spans:
        durations.setdefault(name, []).append(end - start)
    layers = {f"checks.{name}_s": statistics.mean(durations[f"checks.{name}"]) for name in ("run_all", *CHECK_SUITES)}
    layers["cli.run_ms"] = statistics.median(durations["cli.run"]) * 1000
    layers["cli.render_ms"] = statistics.median(durations["cli.render"]) * 1000
    # each call left a process, a run and a render span, in that order
    overheads = [p - r - d for p, r, d in zip(durations["cli.process"], durations["cli.run"], durations["cli.render"])]
    layers["cli.process_overhead_ms"] = statistics.median(overheads) * 1000
    layers["cli.import_ms"] = statistics.median(import_s) * 1000
    return layers


# --- per-layer metrics, end-to-end metrics, output ---

PER_LAYER = {
    "baker.busy_s": ("s", "exact"),
    "baker.steps_per_s": ("steps/s", "exact"),
    "grid.busy_s": ("s", "exact"),
    "grid.steps_per_s": ("steps/s", "exact"),
    "grid.cycle_states_per_s": ("states/s", "exact"),
    "realfn.busy_s": ("s", "exact"),
    "realfn.modulus_trials_per_s": ("trials/s", "exact"),
    "dissipative.busy_s": ("s", "exact"),
    "dissipative.dates_per_s": ("dates/s", "exact"),
    "readout.successors_busy_s": ("s", "measured"),
    "readout.successor_sets_per_s": ("1/s", "measured"),
    "readout.witnesses_busy_s": ("s", "measured"),
    "readout.reach_busy_s": ("s", "measured"),
    "readout.reach_members_per_s": ("members/s", "measured"),
    "murec.eval_busy_s": ("s", "programs"),
    "murec.fuel_per_s": ("fuel/s", "programs"),
    "murec.parse_busy_s": ("s", "programs"),
    "murec.parse_nodes_per_s": ("nodes/s", "programs"),
    "encoding.busy_s": ("s", "programs"),
    "encoding.round_trips_per_s": ("1/s", "programs"),
    "checks.run_all_s": ("s", "cli"),
    **{f"checks.{name}_s": ("s", "cli") for name in CHECK_SUITES},
    "cli.import_ms": ("ms", "cli"),
    "cli.run_ms": ("ms", "cli"),
    "cli.render_ms": ("ms", "cli"),
    "cli.process_overhead_ms": ("ms", "cli"),
    "trace.overhead_pct": ("%", None),
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: int = 1) -> dict:
    """One benchmark run; returns the result object and the run's details."""
    if workload == "cli":
        run = cli_run(seed, seconds, trace, scale)
    else:
        run = library_run(workload, seed, seconds, trace, scale)
    rounds = run["rounds"] + run.get("traced_rounds", 0)
    result = {
        "correct": not run["errors"],
        "attempted": run["queries"] * rounds,
        "failed": len(run["failures"]) * rounds,
    }
    if not trace:
        lat = run["latencies"]
        tail = tail_percentile(len(lat), TAIL_PERCENTILE[workload])
        run["tail_percentile"], run["samples"] = tail, len(lat)
        metrics = {
            "setup_s": (statistics.median(run["setup_walls"]), "s"),
            "queries_per_s": (len(lat) / run["busy"], "1/s"),
            "query_ms_p50": (statistics.median(lat) * 1000, "ms"),
            "query_ms_tail": (percentile(lat, tail) * 1000, "ms"),
            "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
        }
    else:
        layers = dict(run["layers"])
        layers["trace.overhead_pct"] = (
            (run["traced_busy"] / run["traced_rounds"]) / (run["busy"] / run["rounds"]) - 1
        ) * 100
        run["coverage"] = {}
        for home in WORKLOADS:
            missing = [m for m, (_, h) in PER_LAYER.items() if h == home and m not in layers]
            if missing:
                cover = run_coverage(home, seed)
                for m in missing:
                    if m in cover:
                        layers[m] = cover[m]
                        run["coverage"][m] = home
        metrics = {m: (layers[m], unit) for m, (unit, _) in PER_LAYER.items() if m in layers}
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return {"result": result, "run": run}


def run_coverage(home: str, seed: int) -> dict:
    """Layer metrics from one traced round of ``home`` at reduced scale."""
    if home == "cli":
        return cli_run(seed, 0.0, True, COVERAGE_SCALE)["layers"]
    return library_run(home, seed, 0.0, True, COVERAGE_SCALE)["layers"]


def summary(workload: str, outcome: dict) -> str:
    run, result = outcome["run"], outcome["result"]
    lines = [
        f"{workload}: {run['queries']} queries per round, {run['rounds']} timed rounds"
        + (f", {run['traced_rounds']} traced" if "traced_rounds" in run else ""),
        f"inputs: {json.dumps(run['inputs'])}",
    ]
    if "tail_percentile" in run:
        lines.append(f"query_ms_tail is p{run['tail_percentile']} of {run['samples']} latencies")
    if run.get("coverage"):
        lines.append(f"layer metrics taken from a reduced round of another workload: {run['coverage']}")
    lines += [f"failed: {name}: {why}" for name, why in list(run["failures"].items())[:5]]
    lines += [f"WRONG: {e}" for e in run["errors"][:20]]
    lines += [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "exactdyn" / "__init__.py").is_file():
        print(f"no exactdyn sources under {SRC}", file=sys.stderr)
        return 2
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(summary(args.workload, outcome), file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    (OUT / f"{name}.json").write_text(json.dumps(outcome, default=str) + "\n")
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

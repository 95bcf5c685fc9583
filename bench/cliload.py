"""The ``cli`` workload: seeded argv lists for every subcommand and the checks of their output.

Each argv runs as its own ``python -m exactdyn.cli`` process, once in
each output format.  Outputs are read back into (exit code, payload,
rows) and checked against ``oracles``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Optional

import oracles

FORMATS = ("plain", "structured")
ENCODINGS = ("canonical", "alternative")

# murec-eval inputs small enough that a process call stays near interpreter start-up
SMALL_CORPUS_ARGS = {
    "addition": (2, 50),
    "multiplication": (2, 12),
    "predecessor": (1, 100),
    "truncated_subtraction": (2, 20),
    "sign": (1, 100),
}


def text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def decimal(q: Fraction, digits: int) -> str:
    units = abs(q.numerator) * 10**digits // q.denominator
    sign = "-" if q < 0 else ""
    return f"{sign}{units // 10**digits}.{units % 10**digits:0{digits}d}"


def readout_text(k: int, digits: int) -> str:
    return f"{k // 10**digits}.{k % 10**digits:0{digits}d}"


def _unit(rng: random.Random) -> Fraction:
    den = rng.randrange(1, 1000)
    return Fraction(rng.randrange(den + 1), den)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6))


def _subcommand_args(rng: random.Random) -> list[list[str]]:
    """One argv tail per non-check subcommand."""
    r, enc = _rational(rng), rng.choice(ENCODINGS)
    code = oracles.encode(r, enc)
    name = rng.choice(sorted(SMALL_CORPUS_ARGS))
    arity, cap = SMALL_CORPUS_ARGS[name]
    source = rng.choice((["--builtin", name], ["--program", f"src/exactdyn/programs/{name}.rec"]))
    d_succ, d_reach = rng.randrange(1, 5), rng.randrange(1, 4)
    return [
        ["encode", f"--rational={text(r)}", "--encoding", enc],
        ["decode", "--code", str(code), "--encoding", enc],
        ["translate", "--code", str(code), "--from", enc, "--to", rng.choice(ENCODINGS)],
        ["murec-eval", *source, *(str(rng.randrange(cap + 1)) for _ in range(arity))],
        ["baker-step", "--x", text(_unit(rng))],
        ["baker-orbit", "--x", text(_unit(rng)), "--steps", str(rng.randrange(1, 40))],
        ["baker-approx", "--x", text(_unit(rng)), "--steps", str(rng.randrange(1, 40)),
         "--epsilon", f"1/{10 ** rng.randrange(1, 9)}"],
        ["sensitivity", "--eta", f"1/{rng.randrange(2, 10**6)}", "--a", text(_unit(rng)), "--ap", text(_unit(rng))],
        ["grid-sim", "--resolution", str(res := rng.randrange(1, 200)), "--index", str(rng.randrange(res + 1))],
        ["grid-table", "--resolution", str(rng.randrange(1, 200))],
        ["measured-succ", "--d", str(d_succ), "--readout", readout_text(rng.randrange(10**d_succ + 1), d_succ)],
        ["measured-reach", "--d", str(d_reach), "--readout", readout_text(rng.randrange(10**d_reach + 1), d_reach),
         "--steps", str(rng.choice((1, 2, 5, 10, 10**3, 10**6)))],
        ["--decimals", str(rng.randrange(4, 13)), "limit-demo"],
    ]


def make_round(seed: int, scale: int = 1) -> list[list[str]]:
    """argv lists (after ``exactdyn``) for one round: every subcommand in both formats.

    At scale 1 each non-check subcommand runs on three inputs per format
    and ``check`` once per format, so ``check`` is 2 of 80 calls; reduced
    rounds run ``check`` in the plain format only.
    """
    rng = random.Random(f"cli:{seed}")
    tails = [tail for _ in range(max(1, 3 // scale)) for tail in _subcommand_args(rng)]
    argvs = [["--format", fmt, *tail] for tail in tails for fmt in FORMATS]
    check = ["--seed", str(rng.randrange(1000)), "check"]
    argvs += [["--format", fmt, *check] for fmt in (FORMATS if scale == 1 else FORMATS[:1])]
    rng.shuffle(argvs)
    return argvs


# --- reading and checking outputs ---


def parse_output(argv: list[str], code: int, stdout: str, stderr: str) -> tuple[dict, list[list[str]]]:
    """(payload, rows) of a successful call, in either format; ValueError otherwise."""
    if code != 0:
        raise ValueError(f"exit code {code}: {stderr.strip() or stdout.strip()}")
    if argv[1] == "structured":
        doc = json.loads(stdout)
        if doc.get("status") != "ok":
            raise ValueError(f"status {doc.get('status')}")
        return {k: str(v) for k, v in doc["payload"].items()}, doc.get("rows", [])
    if stderr:
        raise ValueError(f"stderr: {stderr.strip()}")
    payload: dict = {}
    rows: list[list[str]] = []
    for line in stdout.splitlines():
        if "\t" in line:
            rows.append(line.split("\t"))
        else:
            key, _, value = line.partition("=")
            payload[key] = value
    return payload, rows


def _option(argv: list[str], name: str) -> str:
    for i, token in enumerate(argv):
        if token == name:
            return argv[i + 1]
        if token.startswith(name + "="):
            return token[len(name) + 1:]
    raise KeyError(name)


def check(argv: list[str], code: int, stdout: str, stderr: str) -> Optional[str]:
    """None when the call's output is right, otherwise what is wrong."""
    try:
        payload, rows = parse_output(argv, code, stdout, stderr)
        return _check_payload(argv, payload, rows)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"


def _check_payload(argv: list[str], payload: dict, rows: list[list[str]]) -> Optional[str]:
    command = next(t for t in argv[2:] if not t.startswith("-") and not t.isdigit())
    if command == "encode":
        r = Fraction(_option(argv, "--rational"))
        return None if int(payload["code"]) == oracles.encode(r, _option(argv, "--encoding")) else "wrong code"
    if command == "decode":
        r = Fraction(payload["rational"])
        return None if oracles.encode(r, _option(argv, "--encoding")) == int(_option(argv, "--code")) else "wrong rational"
    if command == "translate":
        source, target = _option(argv, "--from"), _option(argv, "--to")
        code = int(_option(argv, "--code"))
        r = oracles.decode(code, source)
        return None if int(payload["code"]) == oracles.encode(r, target) else "wrong translation"
    if command == "murec-eval":
        name = payload["program"].rsplit("/", 1)[-1].removesuffix(".rec")
        args = [int(a) for a in payload["args"].split(",")]
        return None if int(payload["value"]) == oracles.CORPUS[name](*args) else "wrong value"
    if command == "baker-step":
        return None if Fraction(payload["value"]) == oracles.fold_iterate(Fraction(_option(argv, "--x")), 1) else "wrong step"
    if command == "baker-orbit":
        x, steps = Fraction(_option(argv, "--x")), int(_option(argv, "--steps"))
        expected = [[str(k), text(p), decimal(p, 6)] for k, p in enumerate(oracles.fold_orbit(x, steps))]
        return None if rows == expected else "wrong orbit rows"
    if command == "baker-approx":
        x, steps, eps = Fraction(_option(argv, "--x")), int(_option(argv, "--steps")), Fraction(_option(argv, "--epsilon"))
        if Fraction(payload["input_accuracy"]) != eps / 2**steps:
            return "wrong input accuracy"
        return None if abs(Fraction(payload["value"]) - oracles.fold_iterate(x, steps)) <= eps else "error above eps"
    if command == "sensitivity":
        eta, a, b = (Fraction(_option(argv, o)) for o in ("--eta", "--a", "--ap"))
        x0, x0p, n = Fraction(payload["x0"]), Fraction(payload["x0p"]), int(payload["n"])
        if abs(x0 - x0p) > eta:
            return "starts farther apart than eta"
        ok = oracles.fold_iterate(x0, n) == a and oracles.fold_iterate(x0p, n) == b
        return None if ok else "starts miss the targets"
    if command == "grid-sim":
        res, start = int(_option(argv, "--resolution")), int(_option(argv, "--index"))
        orbit, entry, length = oracles.grid_cycle(start, res)
        expected = [[str(k), str(i), text(Fraction(i, res))] for k, i in enumerate(orbit)]
        ok = (int(payload["cycle_entry"]), int(payload["cycle_length"])) == (entry, length) and rows == expected
        return None if ok else "wrong cycle"
    if command == "grid-table":
        res = int(_option(argv, "--resolution"))
        expected = [[str(i), str(oracles.fold_index(i, res))] for i in range(res + 1)]
        return None if rows == expected else "wrong table"
    if command in ("measured-succ", "measured-reach"):
        d, readout = int(_option(argv, "--d")), _option(argv, "--readout")
        k = int(readout.replace(".", ""))
        if command == "measured-succ":
            members, got = oracles.successors(k, d), payload["successors"]
        else:
            members, got = oracles.reach(k, d, int(_option(argv, "--steps"))), payload["reachable"]
        return None if got == ",".join(readout_text(j, d) for j in members) else "wrong readouts"
    if command == "limit-demo":
        return _check_limit_demo(int(_option(argv, "--decimals")), payload, rows)
    if command == "check":
        return None if payload["failed"] == "0" and int(payload["passed"]) > 0 else "a property suite failed"
    return f"unknown command {command}"


def _check_limit_demo(digits: int, payload: dict, rows: list[list[str]]) -> Optional[str]:
    start, threshold = Fraction(payload["start"]), Fraction(payload["threshold"])
    first = next(n for n in range(9) if start ** (2**n) < threshold)
    if int(payload["first_below_threshold"]) != first:
        return "wrong first date below threshold"
    states = [r for r in rows if r[0] == "state"]
    witnesses = [r for r in rows if r[0] == "witness"]
    if [int(r[1]) for r in states] != list(range(9)) or len(witnesses) != 6:
        return "wrong row layout"
    for _, n, value, shown in states:
        exact, got = start ** (2 ** int(n)), Fraction(value)
        if not exact - Fraction(1, 10**9) <= got <= exact or shown != decimal(got, digits):
            return f"state at date {n} wrong"
    for row in witnesses:
        eta, x, x_alt, gap = Fraction(row[1]), Fraction(row[3]), Fraction(row[5]), Fraction(row[7])
        if abs(x - x_alt) > eta or gap != 1 or x_alt != 1 or x >= 1:
            return "bad discontinuity witness"
    return None

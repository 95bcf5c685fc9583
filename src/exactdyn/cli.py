"""The ``exactdyn`` command-line tool.

Every subcommand is a thin adapter over one library call; payload values
are the library outputs rendered exactly.  Output is a line-oriented
``key=value`` document by default, with row records (orbits, tables)
emitted one per line, tab-separated; ``--format structured`` switches to
a single JSON document.  All numbers are exact rational text, printed in
full at any length: ``main`` lifts Python's int-text limit while it
renders, and argv and program files are parsed under that limit.  Pass
``--decimals K`` for an extra truncated-decimal rendering of each
rational.  Runs are deterministic for a fixed argv and ``--seed``.

Exit codes: 0 ok, 1 usage error, 2 domain error (also a failing
``check``), 3 fuel exhausted (also a ``check`` that ran out of fuel
before it could decide), 4 invalid code.  An output that would pass
``OUTPUT_BOUND`` rows or readouts is a usage error, refused before any
row is built: ``measured-reach`` checks its run's length, ``grid-sim``
and ``grid-table`` resolution + 1, ``baker-orbit`` steps + 1, and
``baker-approx``, whose exact accuracy grows by a bit a step, its steps.
``--decimals`` past ``DECIMALS_BOUND`` digits is a usage error too, also
refused before any work, and so is a ``--d`` past ``DIGITS_BOUND``,
refused before the readout is parsed.  So an argv asks for at most
``OUTPUT_BOUND`` rows, with at most ``DECIMALS_BOUND`` digits after the
point in each decimal cell.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from . import BUILTIN_PROGRAMS
from .encoding import Encoding, decode_rational, encode_rational, translate
from .errors import (
    ArityMismatchError,
    DomainError,
    IllFormedError,
    InvalidStateError,
    NotACodeError,
    ProgramParseError,
)
from .rational import format_rational, parse_rational, truncate_decimal

STATUS_OK = "ok"
STATUS_USAGE = "usage_error"
STATUS_DOMAIN = "domain_error"
STATUS_DIVERGED = "diverged"
STATUS_NOT_A_CODE = "not_a_code"

OUTPUT_BOUND = 10**6 + 1  # every reach run at d <= 6 still prints
DECIMALS_BOUND = 4300  # Python's default int-text limit, which argv numbers obey
DIGITS_BOUND = DECIMALS_BOUND - 1  # the largest d whose d + 1 readout digits parse

EXIT_CODES = {
    STATUS_OK: 0,
    STATUS_USAGE: 1,
    STATUS_DOMAIN: 2,
    STATUS_DIVERGED: 3,
    STATUS_NOT_A_CODE: 4,
}


class CommandResult:
    """What a subcommand produced: a status, payload pairs, row records and a message."""

    def __init__(
        self,
        status: str,
        payload: Optional[dict] = None,
        rows: Optional[list[tuple]] = None,
        message: str = "",
        fmt: str = "plain",
        decimals: Optional[int] = None,
    ) -> None:
        self.status = status
        self.payload = {} if payload is None else payload
        self.rows = [] if rows is None else rows
        self.message = message
        self.fmt = fmt
        self.decimals = decimals

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would sys.exit(2)
        raise _UsageError(message)


def _fraction_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _encoding_arg(text: str) -> Encoding:
    try:
        return Encoding(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown encoding {text!r} (canonical or alternative)"
        ) from None


def _require_output_bound(count: int, what: str) -> None:
    if count > OUTPUT_BOUND:
        raise _UsageError(f"{count} {what} exceed the output bound of {OUTPUT_BOUND}")


def _int_arg(text: str) -> int:
    """An argv integer: an optional ``-`` and ASCII digits, read under the int-text limit."""
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # past the int-text limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _nonneg_int(text: str) -> int:
    value = _int_arg(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def build_parser() -> _Parser:
    parser = _Parser(
        prog="exactdyn",
        description=(
            "Exact-arithmetic dynamics workbench: encodings of rationals, "
            "recursive-function programs, and the folded doubling map that "
            "relates an initial state to a final state in exact, finite-grid, "
            "and measured form."
        ),
    )
    parser.add_argument("--seed", type=_int_arg, default=0, help="seed for all sampling (default 0)")
    parser.add_argument(
        "--fuel", type=_nonneg_int, default=10**6,
        help=(
            "evaluation step budget (default 10^6; a minimization search spends roughly "
            "10^7 a second, so 10^6 stops within about 0.1 s and 10^12 would run for about "
            "a day; recursion over a loop-free step spends its fuel at once, without taking time)"
        ),
    )
    parser.add_argument(
        "--format", choices=("plain", "structured"), default="plain", dest="fmt",
        help="plain key=value lines or one JSON document",
    )
    parser.add_argument(
        "--decimals", type=_nonneg_int, default=None, metavar="K",
        help="add truncated K-digit decimal renderings of rationals",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("encode", help="number a rational")
    p.set_defaults(handler=_cmd_encode)
    p.add_argument("--rational", required=True, type=_fraction_arg)
    p.add_argument("--encoding", type=_encoding_arg, default=Encoding.CANONICAL)

    p = sub.add_parser("decode", help="recover the rational behind a code")
    p.set_defaults(handler=_cmd_decode)
    p.add_argument("--code", required=True, type=_int_arg)
    p.add_argument("--encoding", type=_encoding_arg, default=Encoding.CANONICAL)

    p = sub.add_parser("translate", help="convert a code between numberings")
    p.set_defaults(handler=_cmd_translate)
    p.add_argument("--code", required=True, type=_int_arg)
    p.add_argument("--from", required=True, type=_encoding_arg, dest="source")
    p.add_argument("--to", required=True, type=_encoding_arg, dest="target")

    p = sub.add_parser("murec-eval", help="run a recursive-function program")
    p.set_defaults(handler=_cmd_murec_eval)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--program", help="path to a program file")
    src.add_argument("--builtin", choices=BUILTIN_PROGRAMS)
    p.add_argument("args", nargs="*", type=_int_arg, help="natural-number arguments")

    p = sub.add_parser("baker-step", help="one exact step of the folded doubling map")
    p.set_defaults(handler=_cmd_baker_step)
    p.add_argument("--x", required=True, type=_fraction_arg)

    p = sub.add_parser("baker-orbit", help="exact orbit rows (k, position)")
    p.set_defaults(handler=_cmd_baker_orbit)
    p.add_argument("--x", required=True, type=_fraction_arg)
    p.add_argument("--steps", required=True, type=_int_arg)

    p = sub.add_parser("baker-approx", help="n-step value via the accuracy rule")
    p.set_defaults(handler=_cmd_baker_approx)
    p.add_argument("--x", required=True, type=_fraction_arg)
    p.add_argument("--steps", required=True, type=_int_arg)
    p.add_argument("--epsilon", required=True, type=_fraction_arg)

    p = sub.add_parser("sensitivity", help="build a sensitivity witness")
    p.set_defaults(handler=_cmd_sensitivity)
    p.add_argument("--eta", required=True, type=_fraction_arg)
    p.add_argument("--a", required=True, type=_fraction_arg)
    p.add_argument("--ap", required=True, type=_fraction_arg)

    p = sub.add_parser("grid-sim", help="finite-grid orbit with cycle detection")
    p.set_defaults(handler=_cmd_grid_sim)
    p.add_argument("--resolution", required=True, type=_int_arg)
    p.add_argument("--index", required=True, type=_int_arg)

    p = sub.add_parser("grid-table", help="complete finite-grid transition table")
    p.set_defaults(handler=_cmd_grid_table)
    p.add_argument("--resolution", required=True, type=_int_arg)

    p = sub.add_parser("measured-succ", help="readouts that may follow a readout")
    p.set_defaults(handler=_cmd_measured_succ)
    p.add_argument("--d", required=True, type=_int_arg, help="device digits")
    p.add_argument("--readout", required=True)

    p = sub.add_parser("measured-reach", help="readouts reachable in n steps")
    p.set_defaults(handler=_cmd_measured_reach)
    p.add_argument("--d", required=True, type=_int_arg)
    p.add_argument("--readout", required=True)
    p.add_argument("--steps", required=True, type=_int_arg)

    p = sub.add_parser("limit-demo", help="discontinuity witnesses and decay table")
    p.set_defaults(handler=_cmd_limit_demo)

    p = sub.add_parser("check", help="run every module's property suite")
    p.set_defaults(handler=_cmd_check)

    return parser


def _cmd_encode(ns: argparse.Namespace, res: CommandResult) -> None:
    res.payload["code"] = encode_rational(ns.rational, ns.encoding)


def _cmd_decode(ns: argparse.Namespace, res: CommandResult) -> None:
    res.payload["rational"] = decode_rational(ns.code, ns.encoding)


def _cmd_translate(ns: argparse.Namespace, res: CommandResult) -> None:
    res.payload["code"] = translate(ns.code, ns.source, ns.target)


def _cmd_murec_eval(ns: argparse.Namespace, res: CommandResult) -> None:
    from . import murec

    if ns.program is not None:
        term = murec.load_program(ns.program)
        res.payload["program"] = ns.program
    else:
        term = murec.builtin_program(ns.builtin)
        res.payload["program"] = ns.builtin
    res.payload["args"] = ",".join(str(a) for a in ns.args)
    outcome = murec.evaluate(term, tuple(ns.args), ns.fuel)
    if isinstance(outcome, murec.Diverged):
        res.status = STATUS_DIVERGED
        res.payload["outcome"] = "diverged"
        res.payload["fuel_spent"] = outcome.fuel_spent
    else:
        res.payload["value"] = outcome.value


def _cmd_baker_step(ns: argparse.Namespace, res: CommandResult) -> None:
    from . import baker

    res.payload["value"] = baker.step(ns.x)


def _cmd_baker_orbit(ns: argparse.Namespace, res: CommandResult) -> None:
    from . import baker

    if res.decimals is None:
        res.decimals = 6  # orbit rows always carry a decimal column
    _require_output_bound(ns.steps + 1, "orbit rows")
    res.payload["x0"] = ns.x
    res.payload["steps"] = ns.steps
    res.rows = list(enumerate(baker.orbit(ns.x, ns.steps)))


def _cmd_baker_approx(ns: argparse.Namespace, res: CommandResult) -> None:
    from . import baker, realfn

    _require_output_bound(ns.steps, "steps")
    fn = baker.as_real_fn(ns.steps)
    res.payload["steps"] = ns.steps
    res.payload["epsilon"] = ns.epsilon
    res.payload["input_accuracy"] = fn.modulus(ns.epsilon)
    res.payload["value"] = realfn.evaluate(fn, realfn.from_rational(ns.x), ns.epsilon)


def _cmd_sensitivity(ns: argparse.Namespace, res: CommandResult) -> None:
    from . import baker

    w = baker.sensitivity_witness(ns.eta, ns.a, ns.ap)
    res.payload["x0"] = w.start_a
    res.payload["x0p"] = w.start_b
    res.payload["n"] = w.steps


def _cmd_grid_sim(ns: argparse.Namespace, res: CommandResult) -> None:
    from . import grid

    _require_output_bound(ns.resolution + 1, "grid states")
    state = grid.GridState(ns.resolution, ns.index)
    orbit, entry, length = grid.orbit_with_cycle(state)
    res.payload["resolution"] = ns.resolution
    res.payload["cycle_entry"] = entry
    res.payload["cycle_length"] = length
    res.rows = [
        (k, i, Fraction(i, ns.resolution)) for k, i in enumerate(orbit)
    ]


def _cmd_grid_table(ns: argparse.Namespace, res: CommandResult) -> None:
    from . import grid

    _require_output_bound(ns.resolution + 1, "table rows")
    res.payload["resolution"] = ns.resolution
    res.rows = grid.table(ns.resolution)


def _device_digits(ns: argparse.Namespace) -> int:
    """``--d``, refused past ``DIGITS_BOUND`` before the readout is parsed."""
    if ns.d > DIGITS_BOUND:
        raise _UsageError(f"--d {ns.d} exceeds the bound of {DIGITS_BOUND} digits")
    return ns.d


def _cmd_measured_succ(ns: argparse.Namespace, res: CommandResult) -> None:
    from . import readout

    m = readout.parse_readout(ns.readout, _device_digits(ns))
    res.payload["readout"] = m.text
    res.payload["successors"] = ",".join(readout.successors(m).texts())


def _cmd_measured_reach(ns: argparse.Namespace, res: CommandResult) -> None:
    from . import readout

    m = readout.parse_readout(ns.readout, _device_digits(ns))
    res.payload["readout"] = m.text
    res.payload["steps"] = ns.steps
    run = readout.reach(m, ns.steps)
    _require_output_bound(run.count, "readouts")
    res.payload["reachable"] = ",".join(run.texts())


def _cmd_limit_demo(ns: argparse.Namespace, res: CommandResult) -> None:
    from . import dissipative

    if res.decimals is None:
        res.decimals = 9  # exact states grow fast; keep the table readable
    start = Fraction(9, 10)
    threshold = Fraction(1, 1000)
    res.payload["map"] = "squaring on [0,1]"
    res.payload["start"] = start
    res.payload["threshold"] = threshold
    res.payload["first_below_threshold"] = dissipative.first_date_below(start, threshold, 8)
    for n in range(9):
        res.rows.append(("state", n, dissipative.iterate_approx(start, n, Fraction(1, 10**9))))
    for j in range(1, 7):
        w = dissipative.discontinuity_witness(Fraction(1, 10**j))
        res.rows.append(("witness", w.eta, w.x, w.x_alt, w.gap))


def _cmd_check(ns: argparse.Namespace, res: CommandResult) -> None:
    # every handler imports the library modules it uses, so a call loads
    # only its own subcommand's: here, all of them through the suites
    from . import checks

    results = checks.run_all(seed=ns.seed, fuel=ns.fuel)
    failed = sum(not r.passed and not r.out_of_fuel for r in results)
    dry = sum(r.out_of_fuel for r in results)
    for r in results:
        if r.passed:
            res.rows.append(("PASS", r.name))
        else:
            res.rows.append(("OUT_OF_FUEL" if r.out_of_fuel else "FAIL", r.name, r.detail))
    res.payload["passed"] = sum(r.passed for r in results)
    res.payload["failed"] = failed
    if dry:
        res.payload["out_of_fuel"] = dry
    if failed:
        res.status = STATUS_DOMAIN
    elif dry:
        res.status = STATUS_DIVERGED


def run(argv: Sequence[str]) -> CommandResult:
    """Dispatch argv to a subcommand and return its result (never raises)."""
    parser = build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except _UsageError as exc:
        # parse-time failures render plain: the chosen format never took effect
        return CommandResult(status=STATUS_USAGE, message=str(exc))
    result = CommandResult(status=STATUS_OK, fmt=ns.fmt, decimals=ns.decimals)

    def failed(status: str, message: str) -> CommandResult:
        return CommandResult(status=status, message=message, fmt=ns.fmt, decimals=ns.decimals)

    if ns.command is None:
        return failed(STATUS_USAGE, "a subcommand is required (see --help)")
    if ns.decimals is not None and ns.decimals > DECIMALS_BOUND:
        message = f"--decimals {ns.decimals} exceeds the bound of {DECIMALS_BOUND} digits"
        return failed(STATUS_USAGE, message)
    try:
        ns.handler(ns, result)
        return result
    except (
        _UsageError, ProgramParseError, IllFormedError, ArityMismatchError, OSError, ValueError
    ) as exc:
        return failed(STATUS_USAGE, str(exc))
    except RecursionError:
        return failed(STATUS_USAGE, "program term is nested too deeply")
    except (DomainError, InvalidStateError) as exc:
        return failed(STATUS_DOMAIN, str(exc))
    except NotACodeError as exc:
        return failed(STATUS_NOT_A_CODE, str(exc))


def _render_cell(value: object, decimals: Optional[int]) -> list[str]:
    if isinstance(value, Fraction):
        cells = [format_rational(value)]
        if decimals is not None:
            cells.append(truncate_decimal(value, decimals))
        return cells
    return [str(value)]


def _payload_items(result: CommandResult) -> Iterator[tuple[str, object]]:
    """Payload pairs, each Fraction as its text and then, with decimals on, ``key_dec``."""
    for key, value in result.payload.items():
        if isinstance(value, Fraction):
            yield from zip((key, f"{key}_dec"), _render_cell(value, result.decimals))
        else:
            yield key, value


def _row_cells(result: CommandResult) -> Iterator[list[str]]:
    for row in result.rows:
        cells: list[str] = []
        for value in row:
            cells.extend(_render_cell(value, result.decimals))
        yield cells


def render_plain(result: CommandResult) -> str:
    lines = [f"{key}={value}" for key, value in _payload_items(result)]
    lines += ["\t".join(cells) for cells in _row_cells(result)]
    return "\n".join(lines) + ("\n" if lines else "")


def render_structured(result: CommandResult) -> str:
    import json

    doc: dict = {"status": result.status}
    if result.message:
        doc["message"] = result.message
    doc["payload"] = dict(_payload_items(result))
    if result.rows:
        doc["rows"] = list(_row_cells(result))
    return json.dumps(doc, indent=2) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact answers print in full; argv parsing kept the limit
    try:
        if result.fmt == "structured":
            sys.stdout.write(render_structured(result))
        else:
            if result.message:
                sys.stderr.write(f"error: {result.message}\n")
            sys.stdout.write(render_plain(result))
    finally:
        sys.set_int_max_str_digits(limit)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())

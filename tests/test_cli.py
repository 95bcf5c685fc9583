import ast
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from exactdyn import baker, checks, cli, dissipative, grid, readout
from exactdyn.encoding import Encoding, encode_rational
from exactdyn.rational import truncate_decimal

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("plain", "structured")
_EXIT_CODES = {"ok": 0, "usage_error": 1, "domain_error": 2, "diverged": 3, "not_a_code": 4}


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_output(fmt: str, status: str, payload: dict | None = None, rows: tuple[tuple[str, ...], ...] = (),
               message: str = "") -> tuple[int, str, str]:
    """The exact (exit code, stdout, stderr) that ``cli.main`` produces in format fmt.

    Payload values are given as they print; an int prints as a JSON number in structured format.
    """
    payload = payload or {}
    if fmt == "plain":
        lines = [f"{key}={value}\n" for key, value in payload.items()] + ["\t".join(cells) + "\n" for cells in rows]
        return _EXIT_CODES[status], "".join(lines), f"error: {message}\n" if message else ""
    doc = {"status": status, **({"message": message} if message else {}), "payload": payload}
    if rows:
        doc["rows"] = rows
    return _EXIT_CODES[status], json.dumps(doc, indent=2) + "\n", ""


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("--seed", "0", "limit-demo"), "limit_demo.txt"),
        (("--seed", "0", "check"), "check_seed0.txt"),
    ],
)
def test_golden_outputs(argv, golden):
    code, out, err = run_cli(*argv)
    assert code == 0 and err == ""
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_exit_codes():
    assert run_cli("no-such-command")[0] == 1
    assert run_cli("baker-step", "--x", "3/2")[0] == 2
    assert run_cli("--fuel", "-3", "check")[0] == 1  # a usage error, not three failing checks
    assert run_cli() == cli_output("plain", "usage_error", message="a subcommand is required (see --help)")
    message = "argument --encoding: unknown encoding 'bogus' (canonical or alternative)"
    assert run_cli("encode", "--rational", "1/2", "--encoding", "bogus") == cli_output("plain", "usage_error",
                                                                                      message=message)


def test_encode_decode_translate_are_thin_adapters():
    q = Fraction(-22, 7)
    want = encode_rational(q, Encoding.ALTERNATIVE)
    code, out, _ = run_cli("encode", "--rational=-22/7", "--encoding", "alternative")
    assert code == 0 and out == f"code={want}\n"
    code, out, _ = run_cli("decode", "--code", str(want), "--encoding", "alternative")
    assert out == "rational=-22/7\n"
    code, out, _ = run_cli("translate", "--code", str(want), "--from", "alternative", "--to", "canonical")
    assert out == f"code={encode_rational(q, Encoding.CANONICAL)}\n"


def test_murec_eval_value_and_divergence():
    got = run_cli("murec-eval", "--builtin", "multiplication", "6", "7")
    assert got == cli_output("plain", "ok", {"program": "multiplication", "args": "6,7", "value": 42})
    got = run_cli("--fuel", "1000", "murec-eval", "--builtin", "addition", "0", "999")
    payload = {"program": "addition", "args": "0,999", "outcome": "diverged", "fuel_spent": 1000}
    assert got == cli_output("plain", "diverged", payload)


def test_murec_eval_program_file(tmp_path):
    path = tmp_path / "id.rec"
    path.write_text("proj 1 1\n")
    code, out, _ = run_cli("murec-eval", "--program", str(path), "9")
    assert code == 0 and out.endswith("value=9\n")
    bad = tmp_path / "bad.rec"
    bad.write_text("(comp succ)\n")
    assert run_cli("murec-eval", "--program", str(bad), "9")[0] == 1
    assert run_cli("murec-eval", "--program", str(tmp_path / "nope.rec"), "9")[0] == 1


def test_baker_commands_match_library():
    code, out, _ = run_cli("baker-step", "--x", "3/4")
    assert out == "value=1/2\n"
    code, out, _ = run_cli("baker-orbit", "--x", "1/48", "--steps", "4")
    rows = [line.split("\t") for line in out.splitlines() if "\t" in line]
    assert [r[1] for r in rows] == ["1/48", "1/24", "1/12", "1/6", "1/3"]
    assert all(len(r) == 3 for r in rows)  # decimal column is on by default
    code, out, _ = run_cli("baker-approx", "--x", "1/4", "--steps", "2", "--epsilon", "1/100")
    assert "input_accuracy=1/400" in out and "value=1\n" in out


def test_grid_commands_match_library():
    code, out, _ = run_cli("grid-table", "--resolution", "2")
    assert out.splitlines()[1:] == ["0\t0", "1\t2", "2\t0"]
    orbit, entry, length = grid.orbit_with_cycle(grid.GridState(10, 3))
    code, out, _ = run_cli("grid-sim", "--resolution", "10", "--index", "3")
    assert f"cycle_entry={entry}" in out and f"cycle_length={length}" in out
    rows = [line.split("\t") for line in out.splitlines() if "\t" in line]
    assert [int(r[1]) for r in rows] == orbit


def test_measured_commands_match_library():
    m = readout.Readout(3, 999)
    code, out, _ = run_cli("measured-succ", "--d", "3", "--readout", "0.999")
    assert out == "readout=0.999\nsuccessors=" + ",".join(readout.successors(m).texts()) + "\n"
    want = readout.reach(readout.Readout(3, 0), 2).texts()
    code, out, _ = run_cli("measured-reach", "--d", "3", "--readout", "0.000", "--steps", "2")
    assert out.endswith("reachable=" + ",".join(want) + "\n")


def test_structured_format_is_json():
    got = run_cli("--format", "structured", "encode", "--rational", "1/2")
    assert got == cli_output("structured", "ok", {"code": 12})
    got = run_cli("--format", "structured", "grid-table", "--resolution", "1")
    assert got == cli_output("structured", "ok", {"resolution": 1}, (("0", "0"), ("1", "0")))


def test_sensitivity_payload_equals_witness():
    w = baker.sensitivity_witness(Fraction(1, 1000), Fraction(1, 3), Fraction(2, 3))
    code, out, _ = run_cli("sensitivity", "--eta", "1/1000", "--a", "1/3", "--ap", "2/3")
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines == {
        "x0": str(w.start_a),
        "x0p": str(w.start_b),
        "n": str(w.steps),
    }


def test_decimals_column():
    # a truncated decimal follows each rational scalar, as key_dec
    got = run_cli("--decimals", "3", "baker-step", "--x", "1/3")
    assert got == cli_output("plain", "ok", {"value": "2/3", "value_dec": "0.666"})


def test_structured_decimals_on_scalars():
    got = run_cli("--format", "structured", "--decimals", "2", "baker-step", "--x", "1/3")
    assert got == cli_output("structured", "ok", {"value": "2/3", "value_dec": "0.66"})


def test_errors_go_to_stderr():
    got = run_cli("decode", "--code", "3")
    assert got == cli_output("plain", "not_a_code", message="3: zero denominator")


def test_structured_errors_go_in_the_document():
    got = run_cli("--format", "structured", "decode", "--code", "3")
    assert got == cli_output("structured", "not_a_code", message="3: zero denominator")


def test_deeply_nested_program_is_a_usage_error(tmp_path):
    # every level holds a minimization, and each costs Python frames
    depth = 5000
    path = tmp_path / "deep.rec"
    path.write_text("(mu (comp " * depth + "proj 1 1" + " proj 2 2))" * depth)
    got = run_cli("murec-eval", "--program", str(path), "0")
    assert got == cli_output("plain", "usage_error", message="program term is nested too deeply")


@pytest.mark.parametrize("fmt", FORMATS)
def test_deep_loop_free_program_evaluates(tmp_path, fmt):
    depth = 5000
    path = tmp_path / "deep.rec"
    path.write_text("(comp succ " * depth + "proj 1 1" + ")" * depth)
    got = run_cli("--format", fmt, "murec-eval", "--program", str(path), "0")
    assert got == cli_output(fmt, "ok", {"program": str(path), "args": "0", "value": depth})


def test_invalid_grid_and_readout_are_domain_errors():
    assert run_cli("grid-sim", "--resolution", "10", "--index", "11")[0] == 2
    assert run_cli("grid-sim", "--resolution", "0", "--index", "0")[0] == 2
    assert run_cli("grid-table", "--resolution", "-3")[0] == 2


def test_readout_text_must_have_exactly_d_digits():
    for text in ("x", "nonsense", "1/2", "5e-1", "0.5", "0.5000", "0.0005"):
        code, out, err = run_cli("measured-succ", "--d", "3", "--readout", text)
        assert code == 2 and out == "" and "readout" in err


def test_negative_decimals_is_a_usage_error():
    assert run_cli("--decimals", "-1", "baker-step", "--x", "1/3")[0] == 1
    with pytest.raises(ValueError, match="digits must be >= 0"):  # and the library refuses them too
        truncate_decimal(Fraction(1, 3), -1)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(("encode", "--rational", "٣/٤"), "argument --rational: not a rational: '٣/٤'",
                     id="arabic-indic-rational"),
        pytest.param(("decode", "--code", "1_2"), "argument --code: invalid int value: '1_2'",
                     id="separated-code"),
        pytest.param(("baker-orbit", "--x", "1/3", "--steps", "٢"), "argument --steps: invalid int value: '٢'",
                     id="arabic-indic-steps"),
        pytest.param(("decode", "--code", "abc"), "argument --code: invalid int value: 'abc'", id="letters-code"),
        pytest.param(("encode", "--rational", " 1/3 "), "argument --rational: not a rational: ' 1/3 '",
                     id="padded-rational"),
        pytest.param(("encode", "--rational", "1/0"), "argument --rational: zero denominator: '1/0'",
                     id="zero-denominator"),
    ],
)
def test_argv_numbers_are_ascii_decimal(argv, message, fmt):
    # Arabic-Indic digits, which a regex \d accepts, "_" separators, which int() accepts,
    # surrounding whitespace, which int() strips, and a zero denominator, which Fraction() raises
    # ZeroDivisionError on; argv errors render plain in either format
    assert run_cli("--format", fmt, *argv) == cli_output("plain", "usage_error", message=message)


@pytest.mark.parametrize("fmt", FORMATS)
def test_program_numerals_are_ascii_decimal(tmp_path, fmt):
    # an Arabic-Indic one, which str.isdigit() accepts; a parse error is a usage error carrying its message
    path = tmp_path / "id.rec"
    path.write_text("proj \u0661 \u0661\n", encoding="utf-8")
    message = "expected a natural number, got '\u0661'"
    got = run_cli("--format", fmt, "murec-eval", "--program", str(path), "9")
    assert got == cli_output(fmt, "usage_error", message=message)


def test_measured_reach_astronomical_steps():
    # the full 2-digit run, instantly
    reachable = ",".join(f"{k // 100}.{k % 100:02d}" for k in range(101))
    got = run_cli("measured-reach", "--d", "2", "--readout", "0.25", "--steps", str(10**9))
    assert got == cli_output("plain", "ok", {"readout": "0.25", "steps": 10**9, "reachable": reachable})


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "digits, steps, count",
    [
        (1000, 3321, f"at least {2**3320}"),
        (7, 22, "at least 2097152"),
        (7, 25, "10000001"),  # settled: the full run's exact length
        (1000, 10**9, str(10**1000 + 1)),
    ],
    ids=["d1000-unsettled", "d7-unsettled", "d7-settled", "d1000-settled"],
)
def test_runs_past_the_lower_bound_are_refused_before_reach(monkeypatch, fmt, digits, steps, count):
    def unreachable(m, n):
        raise AssertionError("reach ran")

    monkeypatch.setattr(readout, "reach", unreachable)
    argv = ("measured-reach", "--d", str(digits), "--readout", "0." + "0" * digits, "--steps", str(steps))
    message = f"{count} readouts exceed the output bound of {cli.OUTPUT_BOUND}"
    assert run_cli("--format", fmt, *argv) == cli_output(fmt, "usage_error", message=message)


@pytest.mark.parametrize("fmt", FORMATS)
def test_runs_inside_the_lower_bound_are_computed_first(fmt):
    # the lower bound 2^19 passes at d = 7, n = 20; the run itself holds 2^20 readouts
    argv = ("measured-reach", "--d", "7", "--readout", "0.0000000", "--steps", "20")
    message = f"1048576 readouts exceed the output bound of {cli.OUTPUT_BOUND}"
    assert run_cli("--format", fmt, *argv) == cli_output(fmt, "usage_error", message=message)
    # the full run at d = 6 has exactly OUTPUT_BOUND readouts, printed byte for byte
    reachable = ",".join(f"{k // 10**6}.{k % 10**6:06d}" for k in range(10**6 + 1))
    argv = ("measured-reach", "--d", "6", "--readout", "0.000000", "--steps", str(10**9))
    want = cli_output(fmt, "ok", {"readout": "0.000000", "steps": 10**9, "reachable": reachable})
    assert run_cli("--format", fmt, *argv) == want


def test_measured_reach_rejects_negative_steps():
    got = run_cli("measured-reach", "--d", "3", "--readout", "0.000", "--steps", "-1")
    assert got == cli_output("plain", "domain_error", message="step count must be non-negative")


@pytest.mark.parametrize(
    "argv",
    [
        ("measured-reach", "--d", "20", "--readout", "0." + "0" * 20, "--steps", "1000"),
        ("measured-reach", "--d", "1000", "--readout", "0." + "0" * 1000, "--steps", str(10**9)),
        ("grid-sim", "--resolution", str(cli.OUTPUT_BOUND), "--index", "1"),
        ("grid-table", "--resolution", str(10**12)),
        ("baker-orbit", "--x", "1/3", "--steps", str(cli.OUTPUT_BOUND)),
        ("baker-approx", "--x", "1/3", "--steps", str(cli.OUTPUT_BOUND + 1), "--epsilon", "1/10"),
    ],
)
def test_outputs_past_the_bound_are_usage_errors(argv):
    message = cli.run(argv).message
    assert message.endswith(f" exceed the output bound of {cli.OUTPUT_BOUND}")
    for fmt in FORMATS:
        assert run_cli("--format", fmt, *argv) == cli_output(fmt, "usage_error", message=message)


def test_output_bound_admits_exactly_its_count(monkeypatch):
    # the full 1-digit run has 11 readouts; the 20-digit run after 3 steps has 8
    monkeypatch.setattr(cli, "OUTPUT_BOUND", 11)
    assert run_cli("measured-reach", "--d", "1", "--readout", "0.0", "--steps", "100")[0] == 0
    assert run_cli("grid-table", "--resolution", "10")[0] == 0
    assert run_cli("baker-orbit", "--x", "1/3", "--steps", "10")[0] == 0
    assert run_cli("baker-approx", "--x", "1/3", "--steps", "11", "--epsilon", "1/10")[0] == 0
    assert run_cli("measured-reach", "--d", "20", "--readout", "0." + "0" * 20, "--steps", "3")[0] == 0
    monkeypatch.setattr(cli, "OUTPUT_BOUND", 10)
    assert run_cli("measured-reach", "--d", "1", "--readout", "0.0", "--steps", "100")[0] == 1
    assert run_cli("grid-sim", "--resolution", "10", "--index", "3")[0] == 1


def test_baker_approx_prints_accuracies_past_the_int_text_limit():
    # 1/(10 * 2^15000) has 4517 digits, past Python's default 4300 for str(int)
    want = Fraction(1, 10 * 2**15000)
    argv = ("baker-approx", "--x", "1/3", "--steps", "15000", "--epsilon", "1/10")
    code, out, err = run_cli(*argv)
    assert code == 0 and err == ""
    plain = dict(line.split("=", 1) for line in out.splitlines())
    code, out, _ = run_cli("--format", "structured", *argv)
    assert code == 0
    for text in (plain["input_accuracy"], json.loads(out)["payload"]["input_accuracy"]):
        num, den = text.split("/")
        assert Fraction(int(Decimal(num)), int(Decimal(den))) == want
    # argv parsing keeps the limit
    assert run_cli("baker-approx", "--x", "1/3", "--steps", "1", "--epsilon", "1/1" + "0" * 5000)[0] == 1


def test_long_integers_print_in_full():
    # a 4400-digit code, past Python's default 4300 for str(int)
    want = encode_rational(Fraction(10**1100))
    argv = ("encode", "--rational", "1" + "0" * 1100)
    code, out, err = run_cli(*argv)
    assert code == 0 and err == "" and out.startswith("code=") and out.endswith("\n")
    assert int(Decimal(out[len("code="):-1])) == want
    code, out, _ = run_cli("--format", "structured", *argv)
    assert code == 0 and json.loads(out, parse_int=lambda text: int(Decimal(text)))["payload"]["code"] == want


def test_decimals_up_to_the_bound_print_in_full():
    bound = cli.DECIMALS_BOUND
    for fmt in FORMATS:
        got = run_cli("--format", fmt, "--decimals", str(bound), "baker-step", "--x", "1/3")
        assert got == cli_output(fmt, "ok", {"value": "2/3", "value_dec": "0." + "6" * bound})


def test_decimals_past_the_bound_are_usage_errors():
    bound = cli.DECIMALS_BOUND
    message = f"--decimals {bound + 1} exceeds the bound of {bound} digits"
    for fmt in FORMATS:
        got = run_cli("--format", fmt, "--decimals", str(bound + 1), "baker-step", "--x", "1/3")
        assert got == cli_output(fmt, "usage_error", message=message)


def test_digits_up_to_the_bound_parse_and_past_it_are_usage_errors():
    bound = cli.DIGITS_BOUND
    zero, one = "0." + "0" * bound, "0." + "0" * (bound - 1) + "1"
    message = f"--d {bound + 1} exceeds the bound of {bound} digits"
    for fmt in FORMATS:
        got = run_cli("--format", fmt, "measured-succ", "--d", str(bound), "--readout", zero)
        assert got == cli_output(fmt, "ok", {"readout": zero, "successors": f"{zero},{one}"})
        for command in (("measured-succ",), ("measured-reach", "--steps", "3")):
            argv = (command[0], "--d", str(bound + 1), "--readout", "0." + "0" * (bound + 1), *command[1:])
            assert run_cli("--format", fmt, *argv) == cli_output(fmt, "usage_error", message=message)


def test_main_restores_the_int_text_limit(monkeypatch):
    limit = sys.get_int_max_str_digits()
    assert run_cli("encode", "--rational", "1" + "0" * 1100)[0] == 0
    assert sys.get_int_max_str_digits() == limit
    assert run_cli("encode")[0] == 1
    assert sys.get_int_max_str_digits() == limit

    def broken(result):
        raise RuntimeError("render failed")

    monkeypatch.setattr(cli, "render_plain", broken)
    with pytest.raises(RuntimeError):
        run_cli("baker-step", "--x", "1/3")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("seed", [1, 7])
def test_check_suites_pass_at_other_seeds(seed):
    failures = [f"{r.name}: {r.detail}" for r in checks.run_all(seed) if not r.passed]
    assert not failures, "\n".join(failures)


def test_check_with_too_little_fuel_reports_no_failure():
    # a total program cut short by the budget decides nothing about its property
    code, out, _ = run_cli("--fuel", "10", "check")
    lines = out.splitlines()
    assert code == 3
    assert "failed=0" in lines and "out_of_fuel=2" in lines
    undecided = [line.split("\t")[:2] for line in lines if "\t" in line and not line.startswith("PASS")]
    assert undecided == [
        ["OUT_OF_FUEL", "murec: corpus agrees with built-in arithmetic"],
        ["OUT_OF_FUEL", "murec: minimization returns least witnesses"],
    ]


def _unpair_raises(c):
    raise ArithmeticError("no inverse")


_WINDOW = "encoding: pairing bijectivity window"


@pytest.mark.parametrize(
    "module, name, broken, failing, detail",
    [
        (checks, "pair", lambda n, p: 0, _WINDOW, "fails at 1"),
        (checks, "unpair", _unpair_raises, _WINDOW, "raised ArithmeticError('no inverse')"),
        (dissipative, "as_real_fn", baker.as_real_fn, "dissipative: finite-date accuracy rules certified",
         "fails at 1: eps=1/100 x=1 q=1: |1 - 0| = 1 > eps"),
    ],
    ids=["rejected-case", "raised", "rejected-accuracy-rule"],
)
def test_a_failing_check_names_its_first_failing_case(monkeypatch, module, name, broken, failing, detail):
    # each break reaches one check: only the pairing window calls the suite's own pair and unpair, and 1 is
    # the first code whose round trip breaks; the doubling map's rule is no rule for squaring from date 1
    monkeypatch.setattr(module, name, broken)
    lines = (GOLDEN / "check_seed0.txt").read_text().splitlines()[2:]
    rows = [("FAIL", failing, detail) if line == f"PASS\t{failing}" else tuple(line.split("\t")) for line in lines]
    assert run_cli("check") == cli_output("plain", "domain_error", {"passed": 29, "failed": 1}, tuple(rows))


_LOADED_PROBE = """\
import io, sys
sys.stdout = io.StringIO()
{}
names = (m for m in sys.modules if m.partition(".")[0] in ("exactdyn", "dataclasses", "json"))
print(sorted(names), file=sys.__stdout__)
"""
_CALL = "from exactdyn import cli\nif cli.main({!r}):\n    raise SystemExit('call failed')"
_SUBCOMMAND_MODULES = [  # (argv, the library modules past encoding and rational that it loads)
    (["encode", "--rational", "1/3"], set()),
    (["decode", "--code", "12"], set()),
    (["translate", "--code", "12", "--from", "canonical", "--to", "alternative"], set()),
    (["baker-step", "--x", "1/3"], {"baker", "grid", "realfn"}),
    (["grid-table", "--resolution", "3"], {"grid"}),
    (["measured-succ", "--d", "1", "--readout", "0.0"], {"readout"}),
    (["murec-eval", "--builtin", "addition", "1", "2"], {"murec"}),
    (["limit-demo"], {"dissipative", "realfn"}),
]


@pytest.mark.parametrize(
    "statement, extra",
    [
        pytest.param("import exactdyn", None, id="import-exactdyn"),
        pytest.param("import exactdyn.cli", set(), id="import-exactdyn.cli"),
        *(
            pytest.param(_CALL.format(["--format", fmt, *argv]), extra, id=f"{fmt}-{argv[0]}")
            for argv, extra in _SUBCOMMAND_MODULES
            for fmt in FORMATS
        ),
    ],
)
def test_a_call_loads_only_its_subcommands_modules(statement, extra):
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", _LOADED_PROBE.format(statement)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    loaded = set(ast.literal_eval(done.stdout))
    if extra is None:  # the package alone
        want = {"exactdyn", "exactdyn.errors"}
    else:
        core = {"cli", "encoding", "errors", "rational"}
        want = {"exactdyn", *(f"exactdyn.{name}" for name in core | extra)}
    assert {m for m in loaded if m.startswith("exactdyn")} == want
    assert ("json" in loaded) == ("structured" in statement)
    # every library module past the core has a dataclass, except murec
    assert ("dataclasses" in loaded) == bool(extra and extra != {"murec"})

"""Acceptance gate: one test per shipped acceptance criterion.

Criteria 1-7 run the seeded check suites of ``exactdyn.checks`` at gate
scale, seed 0 and fuel 10^6; criterion 8 reproduces the published CLI
examples.  Every criterion prints a single pass/fail line (run with
``pytest -s`` or read captured output), naming its first failure.  All
equalities are exact rational comparisons; there are no float
tolerances anywhere.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from exactdyn import checks, cli, grid

GOLDEN = Path(__file__).parent / "golden"
FUEL = 10**6


def _report(num: int, label: str, failures: list[str]) -> None:
    line = f"acceptance {num} {'FAIL' if failures else 'PASS'}: {label}"
    if failures:
        line += f" ({failures[0]})"
    print(line)
    assert not failures, line


def _gate(suite) -> list[str]:
    """The failing checks of a suite at gate scale, each as ``name: detail``."""
    return [f"{r.name}: {r.detail}" for r in suite(0, FUEL, gate=True) if not r.passed]


def test_criterion_1_encoding_round_trip():
    _report(1, "encode/decode round trip and pairing bijectivity, exact", _gate(checks.encoding_checks))


def test_criterion_2_murec_oracle_equivalence():
    _report(2, "terms match built-in arithmetic to 50; hopeless search diverges", _gate(checks.murec_checks))


def test_criterion_3_modulus_certification():
    _report(3, "accuracy rules certified for 1..10 steps; wrong rule caught", _gate(checks.realfn_checks))


def test_criterion_4_sensitivity_witnesses():
    _report(4, "100 seeded witnesses exact; unit separation from eta 10^-6", _gate(checks.baker_checks))


def test_criterion_5_grid_equivalence():
    # distinct points of the N-grid lie at least 1/N apart: within eta means equal iff 0 <= eta < 1/N
    failures = _gate(checks.grid_checks) + [
        f"collapse failed at N={n}" for n in range(1, 101) if not 0 <= grid.min_separation(n) < Fraction(1, n)
    ]
    _report(5, "grid dynamics exactly rational; closeness below 1/(2N) is equality", failures)


def test_criterion_6_measured_relation():
    _report(6, "successor sets match the brute-force oracle; reach recurrence holds", _gate(checks.readout_checks))


def test_criterion_7_limit_module():
    _report(7, "decay bound holds; witnesses gap 1; finite-date rules certified", _gate(checks.dissipative_checks))


def test_criterion_8_cli_golden_files():
    cases = [
        (("--seed", "0", "encode", "--rational", "1/2"), "encode_half.txt"),
        (("--seed", "0", "sensitivity", "--eta", "1/10", "--a", "1/3", "--ap", "1"),
         "sensitivity_tenth.txt"),
        (("--seed", "0", "measured-succ", "--d", "3", "--readout", "0.000"),
         "measured_succ_first_cell.txt"),
    ]
    failures = []
    for argv, golden in cases:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        if code != 0 or err.getvalue() or out.getvalue().encode() != (GOLDEN / golden).read_bytes():
            failures.append(f"{' '.join(argv)} drifted from {golden}")
    _report(8, "the three published CLI examples reproduce byte-identically", failures)

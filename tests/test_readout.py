import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactdyn.errors import DomainError
from exactdyn.readout import (
    Readout,
    Span,
    SuccessorSet,
    measure,
    min_reach_count,
    parse_readout,
    reach,
    relation_table,
    settling_steps,
    successors,
)


def test_readout_validation_and_text():
    assert Readout(3, 0).text == "0.000"
    assert Readout(3, 1000).text == "1.000"
    assert Readout(3, 500).text == "0.500"
    assert Readout(1, 7).text == "0.7"
    with pytest.raises(DomainError):
        Readout(0, 0)
    with pytest.raises(DomainError):
        Readout(3, 1001)


def test_parse_readout():
    assert parse_readout("0.000", 3) == Readout(3, 0)
    assert parse_readout("1.000", 3) == Readout(3, 1000)
    assert parse_readout("0.5", 1) == Readout(1, 5)
    with pytest.raises(DomainError):
        parse_readout("1", 2)
    with pytest.raises(DomainError):
        parse_readout("0.0005", 3)
    with pytest.raises(DomainError):
        parse_readout("x", 3)
    with pytest.raises(DomainError):
        parse_readout("1.5", 3)


@st.composite
def _readouts(draw):
    digits = draw(st.integers(1, 30))
    return Readout(digits, draw(st.integers(0, 10**digits)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_readouts())
def test_readout_text_round_trips(m):
    assert parse_readout(m.text, m.digits) == m


def test_measure_examples():
    assert measure(Fraction(49, 100000), 3) == Readout(3, 0)
    assert measure(Fraction(1), 3) == Readout(3, 1000)
    assert measure(Fraction(1, 2), 3) == Readout(3, 500)
    with pytest.raises(DomainError):
        measure(Fraction(3, 2), 3)


def test_cells_partition_the_interval():
    for digits in (1, 2):
        scale = 10**digits
        for k in range(scale + 1):
            cell = Readout(digits, k).cell()
            assert cell.intersect(Span(Fraction(0), Fraction(1))) is not None
        # every point belongs to exactly one cell: measure is a function
        rng = random.Random(digits)
        for _ in range(200):
            x = Fraction(rng.randrange(10**6 + 1), 10**6)
            k = measure(x, digits).index
            cell = Readout(digits, k).cell()
            assert cell.lo <= x and (x < cell.hi or (x == cell.hi and not cell.hi_open))


def test_successor_examples():
    assert successors(Readout(3, 999)).members == (0, 1, 2)
    assert successors(Readout(3, 500)).members == (998, 999, 1000)
    assert successors(Readout(1, 0)).members == (0, 1)
    assert successors(Readout(1, 10)).members == (0,)


def test_reach_examples():
    assert reach(Readout(3, 0), 0).members == (0,)
    assert reach(Readout(3, 0), 2).members == (0, 1, 2, 3)
    assert reach(Readout(3, 1000), 1).members == (0,)


def test_successor_set_is_one_run():
    run = SuccessorSet(3, 998, 1000)
    assert run.members == (998, 999, 1000) and run.count == 3
    assert SuccessorSet(20, 0, 10**20).count == 10**20 + 1
    assert run.texts() == ["0.998", "0.999", "1.000"]
    for lo, hi in ((2, 1), (0, 1001), (-1, 3)):
        with pytest.raises(DomainError):
            SuccessorSet(3, lo, hi)
    with pytest.raises(DomainError, match="digits 0 must be >= 1"):
        SuccessorSet(0, 0, 0)


def test_reach_rejects_negative_step_counts():
    with pytest.raises(DomainError):
        reach(Readout(3, 0), -1)


def _stepped_runs(m: Readout) -> list[SuccessorSet]:
    """Reference: the run from m after 0, 1, 2, ... steps, with no settled shortcut.

    Stepping stops at the first run that is its own image; every later step repeats it.
    """
    half = 10**m.digits // 2
    runs = [(m.index, m.index)]
    while True:
        lo, hi = runs[-1]
        cells = (lo, hi, half) if lo <= half <= hi else (lo, hi)
        succ = [successors(Readout(m.digits, k)) for k in cells]
        image = min(r.lo for r in succ), max(r.hi for r in succ)
        if image == (lo, hi):
            return [SuccessorSet(m.digits, lo, hi) for lo, hi in runs]
        runs.append(image)


def _reach_starts() -> list[tuple[int, list[int]]]:
    """Every start at d <= 2; at d = 3 both ends, the cell of 1/2 and a seeded sample."""
    sample = random.Random(9).sample(range(1, 1000), 60)
    return [(1, list(range(11))), (2, list(range(101))), (3, [0, 500, 1000, *sample])]


def test_reach_settles_on_the_full_run():
    # the same run as plain stepping up to two steps past the settling step and
    # at astronomical n, and never shorter than min_reach_count, which the
    # shortest run meets below the settling step; the top cell {1} steps to
    # cell 0 first, so it needs every step
    for digits, starts in _reach_starts():
        top, settle = 10**digits, settling_steps(digits)
        least = [top + 1] * settle
        for k in starts:
            m = Readout(digits, k)
            stepped = _stepped_runs(m)
            for n in (*range(settle + 3), 10**9, 10**100):
                run = reach(m, n)
                assert run == stepped[min(n, len(stepped) - 1)] and run.count >= min_reach_count(digits, n), (digits, k, n)
                if n < settle:
                    least[n] = min(least[n], run.count)
            assert reach(m, settle) == SuccessorSet(digits, 0, top)
        assert least == [min_reach_count(digits, n) for n in range(settle)], digits
        assert reach(Readout(digits, top), settle - 1) != SuccessorSet(digits, 0, top)


def test_min_reach_count_bounds_every_run():
    for digits in (1, 2, 3, 7, 20, 1000):
        full, settle = 10**digits + 1, settling_steps(digits)
        assert all(min_reach_count(digits, n) <= full for n in range(settle + 3))
        assert min_reach_count(digits, settle) == full
    # compared with the settling step first: 2^(n-1) is never built here
    assert min_reach_count(7, 10**18) == 10**7 + 1
    for refused, message in (
        (lambda: min_reach_count(0, 1), "digits 0 must be >= 1"),
        (lambda: min_reach_count(3, -1), "step count must be non-negative"),
        (lambda: settling_steps(0), "digits 0 must be >= 1"),
        (lambda: settling_steps(-1), "digits -1 must be >= 1"),
        (lambda: relation_table(-1), "digits -1 must be >= 1"),
    ):
        with pytest.raises(DomainError, match=message):
            refused()


def _readout_texts(run: SuccessorSet) -> list[str]:
    return [Readout(run.digits, k).text for k in run.members]


def test_relation_table_shape():
    # one row per readout, in index order; run sizes are in the successor-run check
    for digits in (1, 2, 3):
        assert [k for k, _ in relation_table(digits)] == list(range(10**digits + 1))


def test_run_texts_name_every_member():
    # every successor run, and the full run that every reach settles on
    for digits in (1, 2, 3):
        for run in (SuccessorSet(digits, 0, 10**digits), *(row for _, row in relation_table(digits))):
            assert run.texts() == _readout_texts(run)


def test_span_intersection_bookkeeping():
    half_open = Span(Fraction(0), Fraction(1, 10), hi_open=True)
    assert half_open.intersect(Span(Fraction(1, 10), Fraction(2, 10), hi_open=True)) is None
    point = Span(Fraction(1, 2), Fraction(1, 2))
    assert point.intersect(Span(Fraction(0), Fraction(1))) == point
    open_both = Span(Fraction(0), Fraction(1), lo_open=True, hi_open=True)
    got = open_both.intersect(Span(Fraction(0), Fraction(1)))
    assert got == open_both
    assert Span(Fraction(1, 2), Fraction(1, 2), lo_open=True).is_empty()

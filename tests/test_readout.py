import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactdyn.errors import DomainError, InvalidStateError
from exactdyn.readout import (
    Readout,
    Span,
    SuccessorSet,
    measure,
    parse_readout,
    reach,
    relation_table,
    successors,
)


def test_readout_validation_and_text():
    assert Readout(3, 0).text == "0.000"
    assert Readout(3, 1000).text == "1.000"
    assert Readout(3, 500).text == "0.500"
    assert Readout(1, 7).text == "0.7"
    assert Readout(3, 7).value == Fraction(7, 1000)
    with pytest.raises(InvalidStateError):
        Readout(0, 0)
    with pytest.raises(InvalidStateError):
        Readout(3, 1001)


def test_parse_readout():
    assert parse_readout("0.000", 3) == Readout(3, 0)
    assert parse_readout("1.000", 3) == Readout(3, 1000)
    assert parse_readout("0.5", 1) == Readout(1, 5)
    with pytest.raises(InvalidStateError):
        parse_readout("1", 2)
    with pytest.raises(InvalidStateError):
        parse_readout("0.0005", 3)
    with pytest.raises(InvalidStateError):
        parse_readout("x", 3)
    with pytest.raises(InvalidStateError):
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
    assert successors(Readout(3, 0)).members == (0, 1)
    assert successors(Readout(3, 999)).members == (0, 1, 2)
    assert successors(Readout(3, 500)).members == (998, 999, 1000)
    assert successors(Readout(1, 0)).members == (0, 1)
    assert successors(Readout(1, 10)).members == (0,)


def _successors_by_table(digits: int, k: int) -> tuple[int, int]:
    # the closed form of a successor run, cell k of D = 10^d: the cell
    # [k/D, (k+1)/D) doubles left of 1/2 and folds back right of it
    top = 10**digits
    if k == top:
        return 0, 0
    if 2 * k + 2 <= top:
        return 2 * k, 2 * k + 1
    if 2 * k == top:
        return top - 2, top
    return 2 * top - 2 * k - 2, 2 * top - 2 * k


def test_successors_match_the_closed_form():
    rng = random.Random(4)
    for digits in (1, 2, 3, 4, 5, 6):
        top = 10**digits
        if digits <= 3:
            cells = range(top + 1)
        else:  # the cells where a row of the table starts or ends, and a sample
            cells = [top // 2 - 1, top // 2, top // 2 + 1, top, *rng.sample(range(top), 200)]
        for k in cells:
            run = successors(Readout(digits, k))
            assert (run.lo, run.hi) == _successors_by_table(digits, k), (digits, k)


def test_relation_table_shape():
    for digits in (1, 2, 3):
        rows = relation_table(digits)
        assert [k for k, _ in rows] == list(range(10**digits + 1))
        assert all(len(succ) in (1, 2, 3) for _, succ in rows)


def test_reach_examples():
    assert reach(Readout(3, 0), 0).members == (0,)
    assert reach(Readout(3, 0), 2).members == (0, 1, 2, 3)
    assert reach(Readout(3, 1000), 1).members == (0,)


def test_successor_set_is_one_run():
    run = SuccessorSet(3, 998, 1000)
    assert run.members == (998, 999, 1000) and len(run) == run.count == 3
    assert SuccessorSet(20, 0, 10**20).count == 10**20 + 1
    with pytest.raises(OverflowError):
        len(SuccessorSet(20, 0, 10**20))
    assert 999 in run and 997 not in run and 1001 not in run
    assert run.texts() == ["0.998", "0.999", "1.000"]
    for lo, hi in ((2, 1), (0, 1001), (-1, 3)):
        with pytest.raises(InvalidStateError):
            SuccessorSet(3, lo, hi)


def test_reach_rejects_negative_step_counts():
    with pytest.raises(InvalidStateError):
        reach(Readout(3, 0), -1)


def test_reach_settles_on_the_full_run():
    # every start at d <= 2, the top cell and a seeded sample at d = 3; the
    # top cell {1} steps to cell 0 first, so it needs every one of the steps
    rng = random.Random(9)
    for digits, starts in ((1, range(11)), (2, range(101)), (3, [1000, *rng.sample(range(1000), 60)])):
        top = 10**digits
        settle = top.bit_length() + 1
        for k in starts:
            assert reach(Readout(digits, k), settle) == SuccessorSet(digits, 0, top)
        assert reach(Readout(digits, top), settle - 1) != SuccessorSet(digits, 0, top)


def _readout_texts(run: SuccessorSet) -> list[str]:
    return [Readout(run.digits, k).text for k in run.members]


def test_run_texts_name_every_member():
    # every successor run, and the full run that every reach settles on
    for digits in (1, 2, 3):
        for run in (SuccessorSet(digits, 0, 10**digits), *(row for _, row in relation_table(digits))):
            assert run.texts() == _readout_texts(run)


def test_reach_handles_astronomical_step_counts():
    # independent oracle: find the cycle of reachable sets by plain stepping,
    # then ask for a huge step count congruent to a small one mod the period
    m = Readout(2, 7)
    seen: dict[frozenset, int] = {}
    trail: list[frozenset] = []
    current = frozenset({m.index})
    while current not in seen:
        seen[current] = len(trail)
        trail.append(current)
        nxt: set[int] = set()
        for j in current:
            nxt.update(successors(Readout(2, j)).members)
        current = frozenset(nxt)
    entry, period = seen[current], len(trail) - seen[current]
    huge = entry + period * 10**8
    assert set(reach(m, huge).members) == set(trail[entry])
    assert reach(m, huge).members == reach(m, entry).members


def test_span_intersection_bookkeeping():
    half_open = Span(Fraction(0), Fraction(1, 10), hi_open=True)
    assert half_open.intersect(Span(Fraction(1, 10), Fraction(2, 10), hi_open=True)) is None
    point = Span(Fraction(1, 2), Fraction(1, 2))
    assert point.intersect(Span(Fraction(0), Fraction(1))) == point
    open_both = Span(Fraction(0), Fraction(1), lo_open=True, hi_open=True)
    got = open_both.intersect(Span(Fraction(0), Fraction(1)))
    assert got == open_both
    assert Span(Fraction(1, 2), Fraction(1, 2), lo_open=True).is_empty()

import random
from fractions import Fraction

import pytest

from exactdyn import baker, readout
from exactdyn.errors import DomainError, InvalidStateError
from exactdyn.readout import Readout, Span, measure, parse_readout, reach, relation_table, successors


def test_readout_validation_and_text():
    assert Readout(3, 0).text == "0.000"
    assert Readout(3, 1000).text == "1.000"
    assert Readout(3, 500).text == "0.500"
    assert Readout(1, 7).text == "0.7"
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


def test_relation_table_shape():
    for digits in (1, 2, 3):
        rows = relation_table(digits)
        assert len(rows) == 10**digits + 1
        assert [k for k, _ in rows] == list(range(10**digits + 1))
        for _, succ in rows:
            assert succ.members == tuple(sorted(set(succ.members)))
            assert len(succ.members) >= 1


def test_nondeterminism_is_real():
    # at least one 3-digit readout has several possible followers
    assert len(successors(Readout(3, 0)).members) >= 2


def test_sampled_soundness():
    # 10^3 seeded rationals per cell for every cell at d <= 3.  The bulk runs
    # on integer numerators over one fine denominator (fast); a smaller
    # varied-denominator sample guards against grid artifacts.
    rng = random.Random(20260808)
    fine = 10**6
    for digits in (1, 2, 3):
        scale = 10**digits
        denom = scale * fine
        for k in range(scale + 1):
            m = Readout(digits, k)
            claimed = set(successors(m).members)
            if k == scale:
                assert measure(baker.step(Fraction(1)), digits).index in claimed
                continue
            base = k * fine
            for _ in range(990):
                num = base + rng.randrange(fine)  # the point num/denom is in the cell
                image = 2 * num if 2 * num <= denom else 2 * denom - 2 * num
                assert image // fine in claimed
            cell = m.cell()
            width = cell.hi - cell.lo
            for _ in range(10):
                den = rng.choice((97, 729, 1024, 9973, 10**6 + 3))
                x = cell.lo + width * Fraction(rng.randrange(den), den)
                assert measure(baker.step(x), digits).index in claimed


def test_witness_completeness():
    for digits in (1, 2):
        for k in range(10**digits + 1):
            m = Readout(digits, k)
            claimed = set(successors(m).members)
            witnesses = readout.successor_witnesses(m)
            assert set(witnesses) == claimed
            cell = m.cell()
            for target, x in witnesses.items():
                assert cell.lo <= x
                assert x < cell.hi or (x == cell.hi and not cell.hi_open)
                assert measure(baker.step(x), digits).index == target


def test_reach_examples():
    assert reach(Readout(3, 0), 0).members == (0,)
    assert reach(Readout(3, 0), 2).members == (0, 1, 2, 3)
    assert reach(Readout(3, 1000), 1).members == (0,)


def test_reach_recurrence():
    for digits in (1, 2):
        table = dict(relation_table(digits))
        for k in range(10**digits + 1):
            m = Readout(digits, k)
            expected = {k}
            for n in range(13):
                assert set(reach(m, n).members) == expected
                expected = set().union(*(table[j].members for j in expected))


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


def test_separation_collapse():
    for digits in (1, 2, 3):
        eta = readout.separation_eta(digits)
        scale = 10**digits
        values = [Fraction(k, scale) for k in range(scale + 1)]
        # adjacent readouts differ by twice eta; only equality is closer
        for k in range(scale):
            assert values[k + 1] - values[k] == 2 * eta
        assert all(abs(values[i] - values[i]) <= eta for i in range(scale + 1))


def test_span_intersection_bookkeeping():
    half_open = Span(Fraction(0), Fraction(1, 10), hi_open=True)
    assert half_open.intersect(Span(Fraction(1, 10), Fraction(2, 10), hi_open=True)) is None
    point = Span(Fraction(1, 2), Fraction(1, 2))
    assert point.intersect(Span(Fraction(0), Fraction(1))) == point
    open_both = Span(Fraction(0), Fraction(1), lo_open=True, hi_open=True)
    got = open_both.intersect(Span(Fraction(0), Fraction(1)))
    assert got == open_both
    assert Span(Fraction(1, 2), Fraction(1, 2), lo_open=True).is_empty()

"""The benchmark's oracles on hand-worked cases, and against exactdyn where both are cheap."""

from fractions import Fraction

import oracles
import pytest

from exactdyn import baker, grid, readout
from exactdyn.encoding import Encoding, encode_rational


def test_pairing_by_hand():
    assert oracles.pair(2, 3) == 18
    assert oracles.pair(0, 0) == 0
    assert oracles.unpair(18) == (2, 3)


def test_orbit_of_one_48th():
    expected = [Fraction(1, 48), Fraction(1, 24), Fraction(1, 12), Fraction(1, 6), Fraction(1, 3), Fraction(2, 3)]
    assert oracles.fold_orbit(Fraction(1, 48), 5) == expected
    assert oracles.fold_iterate(Fraction(1, 48), 5) == Fraction(2, 3)


def test_successors_of_the_fold_cell():
    assert oracles.successors(500, 3) == (998, 999, 1000)
    assert oracles.successors(0, 3) == (0, 1)
    assert oracles.successors(1000, 3) == (0,)


def test_reach_and_cycle_by_hand():
    assert oracles.reach(0, 3, 2) == (0, 1, 2, 3)
    assert oracles.grid_cycle(3, 10) == ([3, 6, 8, 4], 2, 2)


def test_brent_finds_entry_and_period():
    # 0 -> 1 -> 2 -> 3 -> 4 -> 2: entry 2, period 3
    assert oracles.brent(lambda x: x + 1 if x < 4 else 2, 0) == (2, 3)
    assert oracles.brent(lambda x: x, 7) == (0, 1)


def test_cycle_shortcut_matches_plain_iteration():
    for q in (7, 12, 45, 96):
        for i in range(q + 1):
            plain = i
            for _ in range(3 * q + 5):
                plain = oracles.fold_index(plain, q)
            assert oracles.grid_iterate(i, q, 3 * q + 5) == plain


def test_square_bracket_holds_the_exact_value():
    x = Fraction(9, 10)
    for n in range(8):
        lo, hi = oracles.square_bracket(x, n, 200)
        assert lo <= x ** (2**n) <= hi and hi - lo < Fraction(1, 2**180)


@pytest.mark.parametrize("encoding", ["canonical", "alternative"])
def test_numbering_round_trip(encoding):
    for r in (Fraction(0), Fraction(1, 2), Fraction(-7, 3), Fraction(10**12, 7)):
        assert oracles.decode(oracles.encode(r, encoding), encoding) == r
        assert oracles.encode(r, encoding) == encode_rational(r, Encoding(encoding))
    with pytest.raises(ValueError):
        oracles.decode(oracles.pair(oracles.pair(2, 1), 1), "canonical")


def test_oracles_agree_with_exactdyn_on_small_cases():
    for d in (1, 2):
        for k in range(10**d + 1):
            m = readout.Readout(d, k)
            assert oracles.successors(k, d) == readout.successors(m).members
            for n in (0, 1, 3, 40):
                assert oracles.reach(k, d, n) == readout.reach(m, n).members
    for q in range(1, 30):
        for i in range(q + 1):
            assert oracles.grid_cycle(i, q) == grid.orbit_with_cycle(grid.GridState(q, i))
            x = Fraction(i, q)
            assert oracles.fold_iterate(x, 50) == baker.iterate(x, 50)

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactdyn import grid
from exactdyn.errors import InvalidStateError
from exactdyn.grid import GridState


def test_state_validation():
    with pytest.raises(InvalidStateError):
        GridState(0, 0)
    with pytest.raises(InvalidStateError):
        GridState(10, 11)
    with pytest.raises(InvalidStateError):
        GridState(10, -1)
    assert GridState(10, 10).position == 1


@pytest.mark.parametrize(
    "resolution, index, image",
    [(10, 3, 6), (10, 7, 6), (10, 0, 0), (10, 5, 10), (10, 10, 0), (1, 1, 0)],
)
def test_step_examples(resolution, index, image):
    assert grid.step(GridState(resolution, index)).index == image


def test_iterate_examples():
    assert grid.iterate(GridState(10, 3), 2).index == 8
    assert grid.iterate(GridState(10, 3), 0).index == 3
    assert grid.iterate(GridState(1000, 250), 2).index == 1000


def test_table_examples():
    assert grid.table(1) == [(0, 0), (1, 0)]
    assert grid.table(2) == [(0, 0), (1, 2), (2, 0)]
    for n_res in (3, 17, 100):
        assert len(grid.table(n_res)) == n_res + 1


def test_min_separation():
    assert grid.min_separation(1000) == Fraction(1, 2000)
    assert grid.min_separation(1) == Fraction(1, 2)
    assert grid.min_separation(2) == Fraction(1, 4)


def test_fold_power_matches_stepwise_iteration():
    # reference: the fold applied one step at a time
    for n_res in range(1, 41):
        for i in range(n_res + 1):
            j = i
            for n in range(3 * n_res + 4):
                assert grid.fold_power(i, n_res, n) == j
                j = grid.fold(j, n_res)
    with pytest.raises(InvalidStateError):
        grid.fold_power(1, 3, -1)
    with pytest.raises(InvalidStateError):
        grid.iterate(GridState(3, 1), -1)


@st.composite
def _grid_points(draw):
    n_res = draw(st.integers(1, 10**40))
    return draw(st.integers(0, n_res)), n_res


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_grid_points(), st.integers(0, 10**100), st.integers(0, 10**100))
def test_fold_power_composes(point, a, b):
    i, n_res = point
    after_a = grid.fold_power(i, n_res, a)
    assert grid.fold_power(after_a, n_res, b) == grid.fold_power(i, n_res, a + b)
    assert grid.fold_power(i, n_res, a + 1) == grid.fold(after_a, n_res)


def _orbit_with_cycle_by_table(s: GridState) -> tuple[list[int], int, int]:
    # reference: step until a state repeats, remembering where each was first seen
    first_seen: dict[int, int] = {}
    orbit: list[int] = []
    i = s.index
    while i not in first_seen:
        first_seen[i] = len(orbit)
        orbit.append(i)
        i = grid.fold(i, s.resolution)
    entry = first_seen[i]
    return orbit, entry, len(orbit) - entry


def test_orbit_with_cycle_matches_table_search():
    for n_res in range(1, 201):
        for i in range(n_res + 1):
            state = GridState(n_res, i)
            assert grid.orbit_with_cycle(state) == _orbit_with_cycle_by_table(state)


def test_orbit_with_cycle_fixed_point():
    orbit, entry, length = grid.orbit_with_cycle(GridState(7, 0))
    assert orbit == [0] and entry == 0 and length == 1

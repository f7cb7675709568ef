"""Oracles for the stratified grid's row table and for tile assignment's
per-exponent tables.

The row table gives the window of key row ``line`` at columns first to
last its run [a, b) of sorted positions with two table reads;
``object_oracles.grid_runs_oracle`` finds it with two binary searches.  The
two must agree on every window of grids built from shuffled nets, from
lattice points with several points in one cell, holes inside rows and
empty rows, and from one point; and ``_query`` must return the same arrays
through either lookup, with and without the self-join's sorted positions,
for query rows outside the grid's bounding box on every side, at radius 0
and at exact distance ties.  ``_per_exponent`` must equal the
``np.unique`` form bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import spaces
from coarselab.constructions import _descend_matrix, _per_exponent
from coarselab.spaces import generate_net
from object_oracles import grid_runs_oracle, per_exponent_oracle

NETS = {
    "h2": ("h2", {"kind": "ball", "radius": 4.0}, 0.8),
    "hd": ("hd", {"kind": "birad", "radius": 3.0, "d": 3}, 0.5),
}
_cache: dict = {}


def net(model):
    if model not in _cache:
        m, window, sep = NETS[model]
        _cache[model] = generate_net(m, window, sep=sep)
    return _cache[model]


def lattice_grid(model, cells, sep=0.8):
    """A grid of points at exact lattice positions: layer k at height
    exp(k * h), column j at x = j * w * exp(k * h).  A repeated cell puts
    several points in one cell."""
    h, w = spaces._grid_steps(sep)
    k = np.array([c[0] for c in cells])
    ys = np.exp(k * h)
    xs = np.array([c[1:] for c in cells], dtype=float) * (w * ys)[:, None]
    return spaces._StratifiedGrid(xs, ys, sep, model == "hd")


def shuffled_grid(model, seed):
    xs, ys = net(model)._coords()
    perm = np.random.default_rng(seed).permutation(len(ys))
    return spaces._StratifiedGrid(xs[perm], ys[perm], net(model).sep,
                                  model == "hd")


@st.composite
def lattice_cells(draw, model):
    """Cells (k, j...) in a small box, each repeated one to three times;
    the box's layers and x_1 columns left out are empty rows."""
    ncols = 1 if model == "h2" else 2
    cell = st.tuples(st.integers(-4, 4), *[st.integers(-6, 6)] * ncols)
    cells = draw(st.lists(cell, min_size=1, max_size=30))
    copies = draw(st.lists(st.integers(1, 3), min_size=len(cells),
                           max_size=len(cells)))
    return [c for c, m in zip(cells, copies) for _ in range(m)]


def nrows_width(grid):
    span = grid.hi - grid.lo + 1
    return int(np.prod(span[:-1])), int(span[-1])


def assert_runs_match(grid, line, first, last):
    got = grid._runs(line, first, last)
    want = grid_runs_oracle(grid, line, first, last)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def all_windows(grid):
    """Every window the engine can ask for: each key row, first in
    [0, width] and last in [-1, width - 1] (``_columns`` clips to these)."""
    nrows, width = nrows_width(grid)
    line, first, last = np.meshgrid(np.arange(nrows), np.arange(width + 1),
                                    np.arange(-1, width), indexing="ij")
    return line.ravel(), first.ravel(), last.ravel()


def random_windows(grid, rng, m=4000):
    nrows, width = nrows_width(grid)
    return (rng.integers(0, nrows, m), rng.integers(0, width + 1, m),
            rng.integers(-1, width, m))


def oracle_query(grid, qx, qy, rad, pos):
    """``_query`` with the runs found by binary search."""
    grid._runs = lambda line, first, last: grid_runs_oracle(grid, line, first, last)
    try:
        return grid._query(qx, qy, rad, pos)
    finally:
        del grid._runs


def checked_query(grid, qx, qy, rad, pos):
    """``_query`` through the row table, every window it reads also
    checked against the binary search."""
    table_runs = grid._runs

    def runs(line, first, last):
        a, b = table_runs(line, first, last)
        want = grid_runs_oracle(grid, line, first, last)
        assert np.array_equal(a, want[0]) and np.array_equal(b, want[1])
        return a, b
    grid._runs = runs
    try:
        return grid._query(qx, qy, rad, pos)
    finally:
        del grid._runs


def outside_rows(grid):
    """Query rows beyond the grid's bounding box on every side: above and
    below its layers, left and right of its x-range in each coordinate."""
    xs, ys = grid.xs, grid.ys
    mid = xs.mean(axis=0)
    reach = np.ptp(xs, axis=0) + 3.0 * ys.max()
    rows = [(mid, ys.max() * math.e ** 3), (mid, ys.min() * math.e ** -3)]
    for c in range(xs.shape[1]):
        for sign in (-1, 1):
            x = mid.copy()
            x[c] = mid[c] + sign * reach[c]
            rows.append((x, float(np.median(ys))))
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


def assert_query_through_either_lookup(grid, radius_choice):
    """``_query`` returns the same arrays through the row table and the
    binary search: for the grid's own points and rows outside its box,
    and for the self-join form with the points' sorted positions."""
    ox, oy = outside_rows(grid)
    qx, qy = np.vstack([grid.xs, ox]), np.r_[grid.ys, oy]
    if radius_choice == "tie":
        # exactly the distance of a query row to a grid point
        i = len(grid.ys) // 2
        radius = float(grid.distances(qx, qy, np.array([0]), np.array([i]))[0])
    else:
        radius = radius_choice
    rad = spaces._radii(radius, len(qy))
    got = checked_query(grid, qx, qy, rad, None)
    want = oracle_query(grid, qx, qy, rad, None)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    rank = np.empty_like(grid.order)
    rank[grid.order] = np.arange(len(rank))
    rad = spaces._radii(radius, len(grid.ys))
    got = checked_query(grid, grid.xs, grid.ys, rad, rank)
    want = oracle_query(grid, grid.xs, grid.ys, rad, rank)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


radius_choices = st.one_of(st.just(0.0), st.just("tie"), st.floats(0.0, 3.0))


class TestRowTable:
    @pytest.mark.parametrize("model", ["h2", "hd"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_runs_equal_the_binary_search_on_every_window(self, model, data):
        grid = lattice_grid(model, data.draw(lattice_cells(model)))
        assert_runs_match(grid, *all_windows(grid))

    @pytest.mark.parametrize("model", ["h2", "hd"])
    @given(data=st.data(), radius=radius_choices)
    @settings(max_examples=25, deadline=None)
    def test_lattice_query_through_either_lookup(self, model, data, radius):
        grid = lattice_grid(model, data.draw(lattice_cells(model)))
        assert_query_through_either_lookup(grid, radius)

    @pytest.mark.parametrize("model", ["h2", "hd"])
    @given(seed=st.integers(0, 2**32 - 1), radius=radius_choices)
    @settings(max_examples=10, deadline=None)
    def test_shuffled_nets(self, model, seed, radius):
        grid = shuffled_grid(model, seed)
        assert (grid.order != np.arange(len(grid.ys))).any()
        assert_runs_match(grid, *random_windows(grid, np.random.default_rng(seed)))
        assert_query_through_either_lookup(grid, radius)

    @pytest.mark.parametrize("model", ["h2", "hd"])
    @pytest.mark.parametrize("radius", [0.0, "tie", 1.5])
    def test_one_point_grid(self, model, radius):
        grid = lattice_grid(model, [(1, 2) if model == "h2" else (1, 2, -3)])
        assert len(grid.table) == 3
        assert_runs_match(grid, *all_windows(grid))
        assert_query_through_either_lookup(grid, radius)

    def test_several_points_in_one_cell(self):
        # three copies of one cell, a hole and an empty layer: each copy
        # is found, and the windows past either end of the row are empty
        grid = lattice_grid("h2", [(0, 1)] * 3 + [(0, 3), (2, 0)])
        assert_runs_match(grid, *all_windows(grid))
        row, cand = grid._query(grid.xs[:1], grid.ys[:1], np.zeros(1), None)
        assert cand.tolist() == [0, 1, 2]


@pytest.mark.parametrize("model, window, sep, thr", [
    ("h2", {"kind": "ball", "radius": 11.0}, 0.8, 1.6),
    ("hd", {"kind": "birad", "radius": 7.0, "d": 3}, 0.35, 0.7),
])
def test_table_size_on_the_benchmark_grids(model, window, sep, thr):
    # every occupied row's cells are contiguous: one slot per point, one
    # end slot per occupied row, and the last slot
    grid = generate_net(model, window, sep=sep, edge_threshold=thr)._grid
    width = grid.hi[-1] - grid.lo[-1] + 1
    rows = len(np.unique(grid.keys // width))
    assert len(grid.table) == len(grid.ys) + rows + 1


EXPONENTS = {
    "empty": np.zeros(0, dtype=np.int64),
    "constant": np.full(50, 7, dtype=np.int64),
    "negative": np.array([-3, -9, -4, -9, -1], dtype=np.int64),
    "wide": np.array([-2500, 2500, 0, -2500, 17], dtype=np.int64),
    "mixed": np.random.default_rng(3).integers(-140, 130, 5000),
}
TABLES = {
    "scalar": lambda k: 1.0760218298378277 ** k,
    "matrix": lambda k: [v for row in _descend_matrix(1.0760218298378277, k)
                         for v in row],
}


@pytest.mark.parametrize("table", TABLES)
@pytest.mark.parametrize("exponents", EXPONENTS)
def test_per_exponent_equals_the_unique_form(table, exponents):
    n = EXPONENTS[exponents]
    got = _per_exponent(TABLES[table], n)
    want = per_exponent_oracle(TABLES[table], n)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()

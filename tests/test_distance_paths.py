"""One distance path per model.

``SpaceGraph.model_distance`` is the t3 packed-word closure or a one-pair
call of the model's distance kernel; it is compared, bit for bit, with the
object oracle ``point_distance`` (a deque BFS on metric graphs) on every
model, and must refuse indices outside ``range(n)``.  ``index_of`` keys its
dictionary by the points themselves.  ``nearest_points`` decides tied rows
with the exact distances of its candidates, and is compared with a
row-by-row argmin on queries built to tie, on rows it decides from its
first query and on rows it queries again.  The last tests scan the
library so that no second distance path grows back, and no graph search
reads the adjacency tuples.
"""

from __future__ import annotations

import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import spaces
from coarselab.constructions import tree_walk
from coarselab.spaces import (CombNode, HalfPlane, HalfSpace, TreeAddress,
                              TuplePoint, ZPoint, build_product, generate_net,
                              metric_graph)
from object_oracles import distance_oracle, point_distance, query_point


def _image_product():
    fx = generate_net("z", {"lo": -4, "hi": 4})
    fy = generate_net("h2", {"kind": "ball", "radius": 2.5}, sep=0.8)
    full = build_product([fx, fy])
    keep = np.arange(0, full.n, 3)
    return spaces._product_space([fx, fy], full._codes[keep],
                                 full.window | {"image": True})


NETS = {
    "h2": lambda: generate_net("h2", {"kind": "ball", "radius": 3.5}, sep=0.8,
                               edge_threshold=1.6),
    "hd-ball": lambda: generate_net("hd", {"kind": "ball", "radius": 2.5, "d": 3},
                                    sep=0.6),
    "hd-birad": lambda: generate_net("hd", {"kind": "birad", "radius": 3.0,
                                            "d": 3}, sep=0.5, edge_threshold=1.0),
    "z": lambda: generate_net("z", {"lo": -20, "hi": 17}, sep=2.0),
    "t3": lambda: generate_net("t3", {"radius": 5}),
    "walk-target": lambda: tree_walk(5).target,
    "comb": lambda: generate_net("comb", {"d": 3, "extent": 4}),
    "metric-graph": lambda: metric_graph(
        12, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (2, 7), (8, 9)]),
    "product": lambda: build_product([generate_net("z", {"lo": -3, "hi": 3}),
                                      generate_net("t3", {"radius": 2})]),
    "nested-product": lambda: build_product(
        [build_product([generate_net("z", {"lo": -2, "hi": 2}),
                        generate_net("comb", {"d": 2, "extent": 2})]),
         generate_net("hd", {"kind": "birad", "radius": 1.5, "d": 3}, sep=0.7)]),
    "image-product": _image_product,
}
_cache: dict = {}


def net(name):
    """The named net and its points as a list, built once."""
    if name not in _cache:
        sp = NETS[name]()
        _cache[name] = (sp, list(sp.points))
    return _cache[name]


@st.composite
def index_pairs(draw):
    name = draw(st.sampled_from(sorted(NETS)))
    n = net(name)[0].n
    idx = st.integers(0, n - 1)
    return name, draw(st.lists(st.tuples(idx, idx), min_size=1, max_size=30))


@settings(max_examples=150, deadline=None)
@given(index_pairs())
def test_model_distance_is_the_object_oracle(case):
    name, pairs = case
    sp, pts = net(name)
    for i, j in pairs:
        want = distance_oracle(sp, i, j, pts)
        got = sp.model_distance(i, j)
        assert type(got) is float and got == want
        assert sp.distances([i], [j]).tolist() == [want]


@pytest.mark.parametrize("name", sorted(NETS))
def test_model_distance_refuses_indices_outside_the_net(name):
    sp, _ = net(name)
    for i, j in ((-1, 0), (0, -1), (sp.n, 0), (0, sp.n), (-sp.n, 0)):
        with pytest.raises(IndexError):
            sp.model_distance(i, j)


OTHER_POINTS = [HalfPlane(0.25, 1.5), HalfSpace((0.25, -0.5), 1.5),
                TreeAddress(()), TreeAddress((2, 0, 2, 0, 2, 0, 2)), ZPoint(0),
                ZPoint(-19), ZPoint(10 ** 6), CombNode(0, (9, 9)),
                TuplePoint((ZPoint(0), TreeAddress(()), ZPoint(0)))]


@pytest.mark.parametrize("name", sorted(NETS))
def test_index_of_round_trips_and_misses_with_key_error(name):
    sp, pts = net(name)
    assert [sp.index_of(p) for p in pts] == list(range(sp.n))
    for p in OTHER_POINTS:
        if p in pts:
            continue
        with pytest.raises(KeyError):
            sp.index_of(p)
    if name == "z":
        # integer windows search their integers: no point dictionary
        assert "_index" not in vars(sp)


# -- tied nearest points -----------------------------------------------------


GRID_NETS = ["h2", "hd-ball", "hd-birad"]


def tie_queries(sp):
    """Queries equidistant, in exact arithmetic, from two net points: the
    midpoints of same-layer neighbours along the first x-coordinate, and
    the heights halfway (in log) between consecutive layers above x = 0."""
    xs, ys = sp._coords()
    keys = [xs[:, 0]] + [xs[:, c] for c in range(1, xs.shape[1])] + [ys]
    order = np.lexsort(keys)
    a, b = order[:-1], order[1:]
    same = (ys[a] == ys[b]) & (xs[a, 1:] == xs[b, 1:]).all(axis=1)
    mx = xs[a][same].copy()
    mx[:, 0] = (xs[a, 0][same] + xs[b, 0][same]) / 2.0
    my = ys[a][same]
    axis = np.unique(ys[(xs == 0.0).all(axis=1)])
    vx = np.zeros((len(axis) - 1, xs.shape[1]))
    vy = np.sqrt(axis[:-1] * axis[1:])
    return np.concatenate([mx, vx]), np.concatenate([my, vy])


def nearest_oracle(sp, pts, x, y):
    """(index, number of tied points) of the least ``(round(d, 12),
    index)``, d the distance from the query to each net point, query first."""
    q = query_point(sp.model, x, y)
    d = [point_distance(q, p) for p in pts]
    best = min(range(len(d)), key=lambda c: (round(d[c], 12), c))
    return best, sum(v <= d[best] + 1e-11 for v in d)


@pytest.mark.parametrize("name", GRID_NETS)
def test_tied_rows_match_the_row_by_row_oracle(name):
    sp, pts = net(name)
    qx, qy = tie_queries(sp)
    got = sp.nearest_points(qx, qy).tolist()
    want = [nearest_oracle(sp, pts, x, y) for x, y in zip(qx.tolist(), qy.tolist())]
    assert got == [w for w, _ in want]
    # many rows are ties, decided by the exact key
    assert sum(t > 1 for _, t in want) * 4 > len(want)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(GRID_NETS), data=st.data())
def test_tied_rows_in_any_batch(name, data):
    # a random batch of tie queries, net points and their perturbations,
    # each row decided as if alone
    sp, pts = net(name)
    tx, ty = tie_queries(sp)
    xs, ys = sp._coords()
    rows = data.draw(st.lists(st.tuples(
        st.sampled_from(["tie", "point", "off"]), st.integers(0, 10 ** 6)),
        min_size=1, max_size=12))
    qx, qy = [], []
    for kind, k in rows:
        if kind == "tie":
            qx.append(tx[k % len(ty)])
            qy.append(ty[k % len(ty)])
        else:
            c = k % sp.n
            qx.append(xs[c] + (0.0 if kind == "point" else 1e-13 * (k % 7 - 3)))
            qy.append(ys[c])
    qx, qy = np.array(qx), np.array(qy)
    got = sp.nearest_points(qx, qy).tolist()
    assert got == [nearest_oracle(sp, pts, x, y)[0]
                   for x, y in zip(qx.tolist(), qy.tolist())]
    assert got == [int(sp.nearest_points(qx[k:k + 1], qy[k:k + 1])[0])
                   for k in range(len(qy))]


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(GRID_NETS), data=st.data())
def test_rows_decided_in_the_first_ball_or_queried_again(name, data):
    # ties, and points lifted by exactly sep (their best lies within 1e-9
    # of the first radius, so they are queried again) or by less (decided
    # from the first query's candidates), in one batch: each row as if
    # alone, and as the oracle decides
    sp, pts = net(name)
    tx, ty = tie_queries(sp)
    xs, ys = sp._coords()
    lift = {"sep": math.exp(sp.sep), "half": math.exp(sp.sep / 2),
            "none": 1.0}
    rows = data.draw(st.lists(st.tuples(
        st.sampled_from(["tie", "sep", "half", "none"]), st.integers(0, 10 ** 6)),
        min_size=1, max_size=12))
    qx, qy = [], []
    for kind, k in rows:
        if kind == "tie":
            qx.append(tx[k % len(ty)])
            qy.append(ty[k % len(ty)])
        else:
            qx.append(xs[k % sp.n])
            qy.append(ys[k % sp.n] * lift[kind])
    qx, qy = np.array(qx), np.array(qy)
    got = sp.nearest_points(qx, qy).tolist()
    assert got == [int(sp.nearest_points(qx[k:k + 1], qy[k:k + 1])[0])
                   for k in range(len(qy))]
    assert got == [nearest_oracle(sp, pts, x, y)[0]
                   for x, y in zip(qx.tolist(), qy.tolist())]


@pytest.mark.parametrize("name", GRID_NETS)
def test_rows_near_a_point_take_one_engine_query(name, monkeypatch):
    # a best well inside the first ball needs no second query; on the
    # half-space nets, a point lifted by exactly sep has its best at the
    # first radius, so its row is queried again at best + 1e-9
    sp, _ = net(name)
    xs, ys = sp._coords()
    grid = sp._grid
    radii = []
    query = grid.query
    monkeypatch.setattr(grid, "query",
                        lambda qx, qy, r: radii.append(np.ndim(r)) or query(qx, qy, r))
    assert sp.nearest_points(xs, ys).tolist() == list(range(sp.n))
    assert radii == [0]
    sp.nearest_points(xs, ys * math.exp(sp.sep))
    assert (1 in radii) == (sp.model == "hd")


# -- the guard ---------------------------------------------------------------


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "coarselab"
# the object distance path and the per-point coordinate distance, which the
# distance kernels and the test oracles replace
FORBIDDEN = {"point_distance", "point_key", "_point_distance", "_coord_dist",
             "_acosh1p"}


def _names(tree):
    """(name, line) of every defined, imported or read identifier."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for name in (node.name.rpartition(".")[2], node.asname):
                if name:
                    yield name, getattr(node, "lineno", 0)


def test_library_keeps_one_distance_path():
    modules = sorted(SRC.glob("*.py"))
    assert "spaces.py" in {m.name for m in modules}
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, line in _names(tree):
            if name in FORBIDDEN:
                found.append(f"{path.name}:{line} {name}")
        if path.name != "spaces.py":
            # point objects are built and read by spaces.py alone
            found += [f"{path.name}:{node.lineno} .points"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr == "points"]
    assert not found, found


def test_library_searches_the_csr_alone():
    # graph searches run on the CSR arrays through ``_path_lengths``: no
    # module reads the adjacency tuples (``spaces.py`` defines them, for
    # the tests and the benchmark), and the multi-source method is gone
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}" for name, line in _names(tree)
                  if name == "multi_source_distances"]
        found += [f"{path.name}:{node.lineno} .adj" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "adj"]
    assert not found, found

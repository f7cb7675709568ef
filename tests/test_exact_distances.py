"""Oracles for the quantities built on ``SpaceGraph.distances``: window
margins, set distances/diameters and the neighbourhoods of non-grid nets.

``distances`` is bit-identical to the object oracle ``point_distance`` (a
deque BFS on metric graphs); the margins of every window kind must equal
the scalar formula, and set distances the brute-force extremes of the
oracle, with exact equality.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import spaces
from coarselab.constructions import tree_walk
from coarselab.spaces import build_product, generate_net, metric_graph
from object_oracles import _acosh1p, distance_oracle, point_distance


def scalar_margin(space, i: int) -> float:
    """Distance from point i to the window boundary, point by point with
    Python floats and ``point_distance``."""
    w, p = space.window, space.points[i]
    kind = w.get("kind")
    if kind == "ball":
        return w["radius"] - point_distance(p, space.points[w["basepoint"]])
    if kind == "birad":
        total = 0.0
        for x in (p.x,) if space.model == "h2" else p.xs:
            total += _acosh1p((x * x + (p.y - 1.0) ** 2) / (2.0 * p.y))
        return (w["radius"] - total) / 2.0
    if kind == "range":
        return float(min(p.n - w["lo"], w["hi"] - p.n))
    if kind == "tree_ball":
        return float(w["radius"] - len(p.word))
    if kind == "comb_extent":
        return float(w["extent"] - max([abs(p.base), *p.offsets]))
    if space.model == "product":
        fs = w["factors"]
        parts = [scalar_margin(f, f.index_of(q)) for f, q in zip(fs, p.parts)]
        if kind == "l1_ball":
            parts.insert(0, w["radius"] - sum(
                point_distance(q, f.points[c])
                for f, q, c in zip(fs, p.parts, w["centers"])))
        return min(parts)
    return math.inf


def _h2(radius=4.5, sep=0.8):
    return generate_net("h2", {"kind": "ball", "radius": radius}, sep=sep,
                        edge_threshold=2 * sep)


_NETS: dict = {}


def net(name: str):
    """Named test nets, built once: one per window kind."""
    if name not in _NETS:
        make = {
            "h2-ball": lambda: _h2(),
            "hd-ball": lambda: generate_net(
                "hd", {"kind": "ball", "radius": 3.0, "d": 3}, sep=0.6),
            "hd-birad": lambda: generate_net(
                "hd", {"kind": "birad", "radius": 4.0, "d": 3}, sep=0.5,
                edge_threshold=1.0),
            # at this spacing (y - 1)**2 (libm pow) differs from
            # (y - 1)*(y - 1) on some layer, and so do the margins
            "hd2-birad": lambda: generate_net(
                "hd", {"kind": "birad", "radius": 3.0, "d": 2}, sep=0.789,
                edge_threshold=1.6),
            "z-range": lambda: generate_net("z", {"lo": -7, "hi": 12}),
            "t3-ball": lambda: generate_net("t3", {"radius": 5}),
            "comb": lambda: generate_net("comb", {"d": 3, "extent": 3}),
            "product-l1": lambda: build_product(
                [_h2(3.0, 1.0), _h2(3.0, 1.0)],
                {"kind": "l1_ball", "radius": 4.5, "centers": [0, 5]}),
            "product-l1-3": lambda: build_product(
                [generate_net("z", {"lo": -3, "hi": 3}), _h2(2.5, 1.0),
                 generate_net("t3", {"radius": 2})],
                {"kind": "l1_ball", "radius": 4.0, "centers": [3, 0, 0]}),
            "product-full": lambda: build_product(
                [generate_net("z", {"lo": -2, "hi": 3}),
                 generate_net("t3", {"radius": 2}), _h2(2.0, 1.0)]),
            "walk-target": lambda: tree_walk(3).target,
            "metric-graph": lambda: metric_graph(6, [(0, 1), (1, 2), (3, 4)]),
        }[name]
        _NETS[name] = make()
    return _NETS[name]


NAMES = ["h2-ball", "hd-ball", "hd-birad", "hd2-birad", "z-range", "t3-ball",
         "comb", "product-l1", "product-l1-3", "product-full", "walk-target",
         "metric-graph"]


class TestMargins:
    @pytest.mark.parametrize("name", NAMES)
    def test_equal_to_the_scalar_formula(self, name):
        space = net(name)
        expect = [scalar_margin(space, i) for i in range(space.n)]
        assert space.margins().tolist() == expect

    def test_window_kinds_covered(self):
        kinds = {(net(n).model, net(n).window.get("kind")) for n in NAMES}
        assert {k for _, k in kinds} >= {"ball", "birad", "range", "tree_ball",
                                         "comb_extent", "l1_ball", "full",
                                         "walk_subtree", "explicit"}

    def test_numpy_arccosh_would_differ(self):
        # the equality above is not vacuous: numpy's arccosh misses the
        # scalar ball margin in the last bit on some point of this net
        space = net("h2-ball")
        xs, ys = space._coords()
        b = space.window["basepoint"]
        t = spaces._t_values(xs, ys, np.broadcast_to(xs[b], xs.shape),
                             np.full(space.n, ys[b]))
        numpy_margins = space.window["radius"] - np.arccosh(1.0 + t)
        assert (numpy_margins != space.margins()).any()

    def test_unbounded_windows_are_infinite(self):
        for name in ("walk-target", "metric-graph"):
            assert np.isinf(net(name).margins()).all()


SET_NAMES = ["h2-ball", "hd-birad", "z-range", "t3-ball", "comb",
             "product-l1", "product-full", "metric-graph"]


@st.composite
def two_sets(draw):
    space = net(draw(st.sampled_from(SET_NAMES)))
    index = st.integers(0, space.n - 1)
    a = draw(st.lists(index, min_size=1, max_size=25, unique=True))
    b = draw(st.lists(index, min_size=1, max_size=25, unique=True))
    return space, a, b


class TestSetDistances:
    def test_equal_to_brute_force(self, monkeypatch):
        # blocks of 7 pairs, so that every set spans several blocks
        monkeypatch.setattr(spaces, "_DISTANCE_BLOCK", 7)

        @given(sets=two_sets())
        @settings(max_examples=150, deadline=None)
        def check(sets):
            space, a, b = sets
            lowest = min(distance_oracle(space, i, j) for i in a for j in b)
            assert space.set_distance(a, b) == lowest
            widest = max(distance_oracle(space, i, j) for i in a for j in a)
            assert space.set_diameter(a) == widest
            assert space.set_diameter(frozenset(b)) == \
                max(distance_oracle(space, i, j) for i in b for j in b)

        check()

    @pytest.mark.parametrize("name", ["h2-ball", "hd-ball", "hd-birad"])
    def test_every_pair_from_the_basepoint(self, name):
        # numpy's arccosh misses math.acosh in the last bit on some of these
        space = net(name)
        b = space.window["basepoint"]
        expect = [distance_oracle(space, b, j) for j in range(space.n)]
        assert [space.set_distance([b], [j]) for j in range(space.n)] == expect
        assert [space.set_diameter([b, j]) for j in range(space.n)] == expect

    def test_empty_sets(self):
        space = net("h2-ball")
        assert space.set_distance([], [0]) == math.inf
        assert space.set_diameter([]) == space.set_diameter([3]) == 0.0


class TestNonGridNeighbourhoods:
    @pytest.mark.parametrize("name", ["z-range", "t3-ball", "comb",
                                      "product-full", "metric-graph"])
    @pytest.mark.parametrize("radius", [0.0, 1.0, 2.5])
    def test_blocks_match_brute_force(self, monkeypatch, name, radius):
        # blocks of three rows, so that every net spans several
        space = net(name)
        monkeypatch.setattr(spaces, "_CANDIDATE_BUDGET", 3 * space.n)
        blocks = list(space.neighbor_blocks(range(space.n), radius))
        assert len(blocks) > 1
        assert np.concatenate([b[0] for b in blocks]).tolist() == \
            list(range(space.n))
        got = [indices[a:b].tolist() for _, indptr, indices in blocks
               for a, b in zip(indptr[:-1], indptr[1:])]
        pts = list(space.points)
        assert got == [[j for j in range(space.n)
                        if distance_oracle(space, i, j, pts) <= radius]
                       for i in range(space.n)]

"""Oracles for the batched tile assignment of the half-plane tiling.

``tiling_to_decomposition`` assigns every net point in one array descent.
It is compared with the scalar ``assign_tile`` point by point, and its
pieces, colours and labels with the per-point grouping loop it replaced.
Adversarial points (on the bounding semicircles, on the slope rays, on the
axis, mirrored, or pushed through several half-disk maps) exercise the
near-tie band, where the batch defers to ``assign_tile``.  The tile list,
enumerated a parent's children at a time, is compared with the scalar
child-by-child enumeration.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import constructions
from coarselab.constructions import (_assign_tiles, _complex_quotient,
                                     _descend_matrix, _tile_id, assign_tile,
                                     build_h2_tiling, tiling_to_decomposition)
from coarselab.errors import AssignmentError
from coarselab.spaces import generate_net
from object_oracles import tiles_oracle


def batch_ids(tiling, xs, ys):
    """Tile ids of the batched descent, decoded point by point."""
    kind, side, length, prefix = _assign_tiles(tiling, np.asarray(xs, float),
                                               np.asarray(ys, float))
    return [_tile_id(int(kind[i]), int(side[i]),
                     [int(col[i]) for col in prefix[:length[i]]])
            for i in range(len(kind))]


def _sort_key(tid):
    if tid[0] == "B1m":
        return (0, "", 0, ())
    kind, side, prefix = tid
    return (1, kind, len(prefix), (side,) + prefix)


def reference_decomposition(tiling, net):
    """(pieces, colours, labels) of the per-point loop over assign_tile."""
    groups: dict[tuple, set[int]] = {}
    for i, p in enumerate(net.points):
        groups.setdefault(assign_tile(tiling, p.x, p.y), set()).add(i)
    order = sorted(groups, key=_sort_key)
    colors = [tiling.coloring["B1" if t[0] == "B1m" else t[0]] for t in order]
    return [frozenset(groups[t]) for t in order], colors, [repr(t) for t in order]


def _net(radius, sep=0.8):
    return generate_net("h2", {"kind": "ball", "radius": radius}, sep=sep,
                        edge_threshold=2.0 * sep)


# the sep-0.8 nets hold near-band points only on the axis x = 0; the finer
# net puts them on both sides, where they still form one merged tile
@pytest.mark.parametrize("radius,sep", [(6.0, 0.8), (8.0, 0.8), (10.0, 0.8),
                                        (4.0, 0.3)])
def test_batch_matches_scalar_assignment(radius, sep, net10, tiling10,
                                         decomp10):
    if radius == 10.0:
        net, tiling, decomp = net10, tiling10, decomp10
    else:
        net, tiling = _net(radius, sep), build_h2_tiling(1.0, {"radius": radius})
        decomp = tiling_to_decomposition(tiling, net)
    xs, ys = net._coords()
    assert batch_ids(tiling, xs[:, 0], ys) == [
        assign_tile(tiling, p.x, p.y) for p in net.points]
    pieces, colors, labels = reference_decomposition(tiling, net)
    assert decomp.pieces == pieces
    assert decomp.colors == colors
    assert decomp.provenance["labels"] == labels


def test_net_points_need_no_scalar_descent(monkeypatch):
    calls = []
    scalar = constructions.assign_tile
    monkeypatch.setattr(constructions, "assign_tile",
                        lambda *a: calls.append(a) or scalar(*a))
    tiling_to_decomposition(build_h2_tiling(1.0, {"radius": 8.0}), _net(8.0))
    assert calls == []


def test_tiles_enumerated_only_when_read():
    tiling = build_h2_tiling(1.0, {"radius": 6.0})
    tiling_to_decomposition(tiling, _net(6.0))
    assert "tiles" not in vars(tiling)
    tiles = tiling.tiles
    assert len(tiles) > 5 and tiling.tiles is tiles


@pytest.mark.parametrize("r, window", [
    (1.0, {"radius": 6.0}), (1.0, {"radius": 10.0}), (0.6, {"radius": 7.0}),
    (1.5, {"radius": 8.0}), (1.0, {"radius": 7.0, "resolution": 0.002}),
    # windows too small for any descended copy: only the base tiles
    (1.0, {"radius": 2.0}), (1.0, {"radius": 0.5})])
def test_tiles_match_the_scalar_enumeration(r, window):
    tiling = build_h2_tiling(r, window)
    tiles = tiling.tiles
    assert tiles == tiles_oracle(tiling)
    assert all(type(v) is float for t in tiles for row in t.matrix for v in row)


def test_assignment_error_is_preserved(monkeypatch):
    # with a single descent step every point inside a half-disk is stuck
    monkeypatch.setattr(constructions, "_MAX_DESCENT", 1)
    net, tiling = _net(6.0), build_h2_tiling(1.0, {"radius": 6.0})
    expected = None
    for p in net.points:
        try:
            assign_tile(tiling, p.x, p.y)
        except AssignmentError as e:
            expected = e
            break
    assert expected is not None
    with pytest.raises(AssignmentError) as got:
        tiling_to_decomposition(tiling, net)
    assert str(got.value) == str(expected)
    assert got.value.point == expected.point


_TILINGS: dict = {}


def _tiling(r):
    if r not in _TILINGS:
        _TILINGS[r] = build_h2_tiling(r, {"radius": 6.0})
    return _TILINGS[r]


@st.composite
def adversarial_points(draw):
    """A tiling and points on or near the boundaries its descent tests."""
    tiling = _tiling(draw(st.sampled_from([0.5, 1.0, 1.5])))
    x = tiling.dilation
    c0, rho0 = tiling.circle0
    lam1, lam3 = tiling.lambdas[1], tiling.lambdas[3]
    heights = st.floats(1e-4, 1e4)
    pts = []
    for _ in range(draw(st.integers(1, 12))):
        shape = draw(st.sampled_from(["circle", "ray", "axis", "free",
                                      "descended"]))
        if shape == "circle":
            # on |z - x^n c0| = x^n rho0
            s = x ** draw(st.integers(-25, 25))
            theta = draw(st.floats(1e-6, math.pi - 1e-6))
            px, py = s * c0 + s * rho0 * math.cos(theta), s * rho0 * math.sin(theta)
        elif shape == "ray":
            py = draw(heights)
            px = draw(st.sampled_from([lam1, lam3])) * py
            for _ in range(draw(st.integers(0, 2))):
                px = math.nextafter(px, draw(st.sampled_from([0.0, math.inf])))
        elif shape == "axis":
            px, py = draw(st.sampled_from([0.0, -0.0])), draw(heights)
        else:
            px, py = draw(st.floats(0.0, 1e4)), draw(heights)
            if shape == "descended":
                z = complex(px, py)
                for n in draw(st.lists(st.integers(-12, 12), min_size=1,
                                       max_size=4)):
                    (a, b), (c, d) = _descend_matrix(x, n)
                    z = (a * z + b) / (c * z + d)
                px, py = z.real, z.imag
        if draw(st.booleans()):
            px = -px
        if py > 0:
            pts.append((px, py))
    return tiling, pts


@settings(max_examples=200, deadline=None)
@given(adversarial_points())
def test_batch_matches_scalar_on_adversarial_points(case):
    tiling, pts = case
    if not pts:
        return
    xs, ys = zip(*pts)
    assert batch_ids(tiling, xs, ys) == [assign_tile(tiling, px, py)
                                         for px, py in pts]


def test_points_on_semicircles_are_decided_by_the_scalar_descent(monkeypatch):
    tiling = _tiling(1.0)
    x = tiling.dilation
    c0, rho0 = tiling.circle0
    pts = [(x ** n * c0 + x ** n * rho0 * math.cos(t),
            x ** n * rho0 * math.sin(t))
           for n in range(-6, 7) for t in (0.3, 1.0, 2.0)]
    calls = []
    scalar = constructions.assign_tile
    monkeypatch.setattr(constructions, "assign_tile",
                        lambda *a: calls.append(a) or scalar(*a))
    xs, ys = zip(*pts)
    assert batch_ids(tiling, xs, ys) == [scalar(tiling, *p) for p in pts]
    assert calls


finite = st.floats(-1e6, 1e6, allow_nan=False).filter(lambda v: abs(v) > 1e-6)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(finite, finite, finite, finite), min_size=1,
                max_size=20))
def test_complex_quotient_matches_python_division(rows):
    ar, ai, br, bi = (np.array(c) for c in zip(*rows))
    qr, qi = _complex_quotient(ar, ai, br, bi)
    for k, (a1, a2, b1, b2) in enumerate(rows):
        q = complex(a1, a2) / complex(b1, b2)
        assert (qr[k], qi[k]) == (q.real, q.imag)

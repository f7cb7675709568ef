"""Oracles for the elementwise kernels that must match the scalar code bit
for bit: ``_acosh1p_array`` against ``_acosh1p``, the half-space ``_t_exact``
against the arithmetic of ``point_distance``, and birad window margins at
d = 3 against the one-point formula.

Each is checked on the values where a vectorised rewrite is most likely to
go wrong: t <= 0, -0.0, subnormals, values within a few ulp of 0, NaN and
infinities.
"""

from __future__ import annotations

import copy
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import spaces
from coarselab.spaces import HalfSpace, generate_net
from object_oracles import _acosh1p, point_distance

TINY = 5e-324  # the least subnormal

SPECIAL = [0.0, -0.0, TINY, -TINY, 2 * TINY, 2.2250738585072014e-308,
           -2.2250738585072014e-308, 1e-320, math.ulp(1.0), -math.ulp(1.0),
           math.ulp(1.0) / 2, 3 * math.ulp(1.0), -3 * math.ulp(1.0), 1e-17,
           -1e-17, -1.0, -2.0, 1.0, 0.5, 1e300, -1e300, math.inf, -math.inf,
           math.nan]

# any double, special values drawn more often
floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True,
                                                       allow_infinity=True))


def same_bits(got: np.ndarray, want: list) -> bool:
    """Equal as doubles, NaN matching NaN and 0.0 not matching -0.0."""
    want = np.array(want, dtype=float)
    nan = np.isnan(want)
    return bool((np.isnan(got) == nan).all() and
                (got[~nan].view(np.int64) == want[~nan].view(np.int64)).all())


@settings(max_examples=100, deadline=None)
@given(st.lists(floats, max_size=40))
def test_acosh1p_array_matches_the_scalar(ts):
    ts = SPECIAL + ts
    got = spaces._acosh1p_array(np.array(ts, dtype=float))
    assert same_bits(got, [_acosh1p(t) for t in ts])


def test_acosh1p_array_of_nothing():
    assert spaces._acosh1p_array(np.zeros(0)).shape == (0,)


def scalar_t(xa, ya, xb, yb) -> float:
    """The t of ``point_distance`` for half-space points, on any doubles."""
    dx2 = sum((a - b) ** 2 for a, b in zip(xa, xb))
    dy = ya - yb
    return (dx2 + dy * dy) / (2.0 * ya * yb)


def offsets(base: float):
    # coordinates at and a few ulp around a base value
    return st.sampled_from([base, math.nextafter(base, math.inf),
                            math.nextafter(base, -math.inf), base + TINY,
                            base + 3 * math.ulp(base or 1.0)])


# |x| <= 1e150 keeps every square finite: a larger one makes ``**`` raise
# OverflowError in both codes alike
coords = st.one_of(st.sampled_from(SPECIAL[:-5] + [math.inf, -math.inf,
                                                   math.nan]),
                   st.floats(-1e150, 1e150), offsets(0.0), offsets(1.5))
heights = st.one_of(st.sampled_from([1.0, TINY, 1e-300, 0.0, -1.0, math.inf,
                                     math.nan]),
                    st.floats(1e-150, 1e150), offsets(1.0))


def rows(width: int):
    return st.lists(st.tuples(st.lists(coords, min_size=width, max_size=width),
                              heights,
                              st.lists(coords, min_size=width, max_size=width),
                              heights), min_size=1, max_size=30)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), width=st.integers(1, 3))
def test_t_exact_matches_the_scalar_arithmetic(data, width):
    pairs = data.draw(rows(width))
    xa = np.array([p[0] for p in pairs], dtype=float).reshape(-1, width)
    ya = np.array([p[1] for p in pairs], dtype=float)
    xb = np.array([p[2] for p in pairs], dtype=float).reshape(-1, width)
    yb = np.array([p[3] for p in pairs], dtype=float)
    with np.errstate(all="ignore"):
        got = spaces._t_exact(True, xa, ya, xb, yb)
    want = []
    for p in pairs:
        try:
            want.append(scalar_t(*p))
        except ZeroDivisionError:
            want.append(None)
    # a zero denominator raises in Python and gives inf/NaN in numpy
    keep = [i for i, w in enumerate(want) if w is not None]
    assert same_bits(got[keep], [want[i] for i in keep])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hd_distances_match_point_distance(data):
    # half-space points proper: finite coordinates, and heights whose
    # product 2 * ya * yb does not underflow to 0
    finite = st.one_of(st.sampled_from(SPECIAL[:12]), st.floats(-1e6, 1e6),
                       offsets(0.0), offsets(1.5))
    positive = st.one_of(st.sampled_from([1.0, 1e-150]),
                         st.floats(1e-6, 1e6), offsets(1.0))
    pairs = data.draw(st.lists(st.tuples(finite, finite, positive, finite,
                                         finite, positive), min_size=1,
                               max_size=30))
    a = np.array(pairs, dtype=float)
    with np.errstate(all="ignore"):
        got = spaces._acosh1p_array(spaces._t_exact(
            True, a[:, 0:2], a[:, 2], a[:, 3:5], a[:, 5]))
    want = [point_distance(HalfSpace((p[0], p[1]), p[2]),
                           HalfSpace((p[3], p[4]), p[5])) for p in pairs]
    assert same_bits(got, want)


def scalar_birad_margin(radius: float, xs, y: float) -> float:
    """The birad margin of one point (x_1, x_2; y), in Python floats."""
    total = 0.0
    for x in xs:
        total += _acosh1p((x * x + (y - 1.0) ** 2) / (2.0 * y))
    return (radius - total) / 2.0


_BIRAD = {}


def birad_with(xs: np.ndarray, ys: np.ndarray):
    """A d = 3 birad net whose coordinate arrays are replaced by ``xs``,
    ``ys``, so its margins run on arbitrary doubles."""
    if not _BIRAD:
        _BIRAD["net"] = generate_net("hd", {"kind": "birad", "radius": 2.0,
                                            "d": 3}, sep=0.5, edge_threshold=1.0)
    space = copy.copy(_BIRAD["net"])
    space._grid = types.SimpleNamespace(xs=xs, ys=ys)
    space.n = len(ys)
    vars(space).pop("_margins", None)
    return space


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(coords, coords, heights), min_size=1, max_size=30))
def test_birad_margins_match_the_scalar_formula(points):
    xs = np.array([p[:2] for p in points], dtype=float)
    ys = np.array([p[2] for p in points], dtype=float)
    space = birad_with(xs, ys)
    radius = space.window["radius"]
    want = []
    for x1, x2, y in points:
        try:
            want.append(scalar_birad_margin(radius, (x1, x2), y))
        except ZeroDivisionError:
            want.append(None)
    with np.errstate(all="ignore"):
        got = space.margins()
    # a zero denominator raises in Python and gives inf/NaN in numpy
    keep = [i for i, w in enumerate(want) if w is not None]
    assert same_bits(got[keep], [want[i] for i in keep])


@pytest.mark.parametrize("y", [1.0, math.nextafter(1.0, 2.0),
                               math.nextafter(1.0, 0.0), 1.0 + 1e-8, 7.25])
def test_birad_margins_near_the_axis(y):
    # (y - 1)**2 within a few ulp of 0, at x on and off the axis
    xs = np.array([[0.0, 0.0], [-0.0, TINY], [TINY, -TINY], [1e-160, 0.0]])
    ys = np.full(len(xs), y)
    space = birad_with(xs, ys)
    want = [scalar_birad_margin(space.window["radius"], x, y)
            for x in xs.tolist()]
    assert same_bits(space.margins(), want)

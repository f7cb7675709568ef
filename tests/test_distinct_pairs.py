"""Oracles for the work that runs once per distinct pair.

The product kernel evaluates each distinct factor-index pair once per
factor and gathers the results back; it is compared, pair by pair and bit
for bit, with the object oracle ``point_distance`` on repeated and equal
pairs, blocks smaller than the input, and nested and image products, and
a spy checks that no factor sees a pair twice.  ``MapRecord.remeasure``
skips the edges whose ends share an image point; it is compared with a
brute-force maximum over every edge in both directions.  ``_unique`` is
compared with ``np.unique``.
"""

from __future__ import annotations

import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import constructions, spaces
from coarselab.constructions import MapRecord
from coarselab.spaces import _unique, build_product, generate_net
from object_oracles import adjacency, point_distance


def _h2(radius):
    return generate_net("h2", {"kind": "ball", "radius": radius}, sep=0.8,
                        edge_threshold=1.6)


def _image_product():
    # every fifth tuple of h2 x h2, with induced adjacency
    f = _h2(2.5)
    full = build_product([f, f])
    return spaces._product_space([f, f], full._codes[::5],
                                 full.window | {"image": True})


PRODUCTS = {
    "h2-x-h2": lambda: build_product([_h2(3.0), _h2(2.5)]),
    "t3-x-z": lambda: build_product([generate_net("t3", {"radius": 3}),
                                     generate_net("z", {"lo": -4, "hi": 4})]),
    "nested": lambda: build_product(
        [build_product([generate_net("z", {"lo": -2, "hi": 2}),
                        generate_net("comb", {"d": 2, "extent": 2})]),
         generate_net("hd", {"kind": "birad", "radius": 1.5, "d": 3},
                      sep=0.7)]),
    "image": _image_product,
}
TARGETS = {
    "z": lambda: generate_net("z", {"lo": -15, "hi": 15}),
    "t3": lambda: generate_net("t3", {"radius": 4}),
    "h2": lambda: _h2(3.0),
    "product": lambda: build_product([generate_net("z", {"lo": -3, "hi": 3}),
                                      generate_net("t3", {"radius": 2})]),
}
_cache: dict = {}


def space(name):
    """The named product or target space and its point list, built once."""
    if name not in _cache:
        sp = {**PRODUCTS, **TARGETS}[name]()
        _cache[name] = sp, list(sp.points)
    return _cache[name]


# ---------------------------------------------------------------------------
# _unique


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.integers(-2**31, 2**31 - 1), max_size=60),
       dtype=st.sampled_from([np.int32, np.int64]))
def test_unique_is_np_unique(values, dtype):
    a = np.array(values + values[:len(values) // 2], dtype=dtype)
    want, want_back = np.unique(a, return_inverse=True)
    got = _unique(a)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    got, back = _unique(a, inverse=True)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert back.tolist() == want_back.tolist()


# ---------------------------------------------------------------------------
# product distances


@st.composite
def repeated_pairs(draw):
    name = draw(st.sampled_from(sorted(PRODUCTS)))
    idx = st.integers(0, space(name)[0].n - 1)
    pool = draw(st.lists(st.tuples(idx, idx), min_size=1, max_size=12))
    # equal pairs, and pairs repeated in any order
    pool += [(a, a) for a, _ in pool[:draw(st.integers(0, 3))]]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=40))
    block = draw(st.sampled_from([1, 2, 7, 1 << 16]))
    return name, [pool[k] for k in picks], block


@settings(max_examples=150, deadline=None)
@given(repeated_pairs())
def test_product_distances_are_the_object_oracle(case):
    name, pairs, block = case
    sp, pts = space(name)
    i = np.array([a for a, _ in pairs])
    j = np.array([b for _, b in pairs])
    with mock.patch.object(spaces, "_DISTANCE_BLOCK", block):
        got = sp.distances(i, j).tolist()
    assert got == [point_distance(pts[a], pts[b]) for a, b in pairs]


def _spy_on_factors(sp, calls):
    """Wrap the ``distances`` of every factor under ``sp``, nested ones
    too, to record the pair keys of each call."""
    for f in sp.window["factors"]:
        if "distances" in vars(f):
            continue  # a factor repeated in one product is wrapped once

        def spy(i, j, f=f, inner=f.distances):
            calls.append(np.asarray(i) * f.n + np.asarray(j))
            return inner(i, j)
        f.distances = spy
        if f.model == "product":
            _spy_on_factors(f, calls)


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_each_factor_sees_each_pair_once(name):
    # each factor stays wrapped only inside this test: build fresh copies
    sp = PRODUCTS[name]()
    pts = list(sp.points)
    rng = np.random.default_rng(7)
    pool = rng.integers(0, sp.n, (20, 2))
    pool[:5, 0] = pool[:5, 1]
    pick = rng.integers(0, len(pool), 500)
    i, j = pool[pick, 0], pool[pick, 1]
    calls = []
    _spy_on_factors(sp, calls)
    with mock.patch.object(spaces, "_DISTANCE_BLOCK", 64):
        got = sp.distances(i, j).tolist()
    assert got == [point_distance(pts[a], pts[b]) for a, b in zip(i, j)]
    assert calls
    for keys in calls:
        assert len(np.unique(keys)) == len(keys)
    # 500 pairs drawn from 20 reach each factor as at most 20
    assert max(map(len, calls)) <= 20


# ---------------------------------------------------------------------------
# remeasure


def brute_remeasure(f):
    """The stretch of every source edge, both directions, with no edge
    skipped (0 where the source distance is 0), and the largest fiber."""
    src, tgt = list(f.source.points), list(f.target.points)
    ratios = [0.0]
    for i, nbrs in enumerate(adjacency(f.source)):
        for j in nbrs:
            ds = point_distance(src[i], src[j])
            dt = point_distance(tgt[f.assignment[i]], tgt[f.assignment[j]])
            ratios.append(dt / ds if ds > 0 else 0.0)
    return max(ratios), max(Counter(f.assignment).values())


def _check(f):
    lip, fiber = brute_remeasure(f)
    assert f.measured_lipschitz == lip
    assert f.measured_max_fiber == fiber


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_remeasure_of_constant_and_identity_maps(target):
    t = space(target)[0]
    const = MapRecord(source=t, target=t, assignment=[t.n // 2] * t.n)
    assert const.measured_lipschitz == 0.0 and const.measured_max_fiber == t.n
    _check(const)
    ident = MapRecord(source=t, target=t, assignment=list(range(t.n)))
    assert ident.measured_lipschitz == 1.0 and ident.measured_max_fiber == 1
    _check(ident)


@settings(max_examples=40, deadline=None)
@given(source=st.sampled_from(sorted(TARGETS)),
       target=st.sampled_from(sorted(TARGETS)), seed=st.integers(0, 2**16),
       spread=st.integers(1, 12), block=st.sampled_from([1, 5, 1 << 16]))
def test_remeasure_of_random_maps(source, target, seed, spread, block):
    s, t = space(source)[0], space(target)[0]
    rng = random.Random(seed)
    # few image points, so that many edges keep both ends on one point
    image = rng.sample(range(t.n), min(spread, t.n))
    assignment = [rng.choice(image) for _ in range(s.n)]
    with mock.patch.object(constructions, "_EDGE_BLOCK", block):
        _check(MapRecord(source=s, target=t, assignment=assignment))

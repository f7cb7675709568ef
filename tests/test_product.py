"""Oracles for the array-native l1-product.

``build_product`` is compared with the tuple loop it replaced, point for
point and edge for edge; the product ``distances`` kernel with the object
oracle ``point_distance``; the size cap with its allocation; and the
``brady_farb`` window test and image rows with a tuple set.
"""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import spaces
from coarselab.constructions import brady_farb
from coarselab.errors import ArityError, DomainError, SizeCapError
from coarselab.spaces import TuplePoint, build_product, generate_net
from object_oracles import adjacency, point_distance


def loop_build_product(factors, window=None):
    """The tuple-and-dictionary loop ``build_product`` replaced (no cap)."""
    if len(factors) == 1:
        s = factors[0]
        return ([TuplePoint((p,)) for p in s.points], list(s.adj),
                np.arange(s.n).reshape(-1, 1), {"kind": "full"})
    fpts = [list(s.points) for s in factors]
    if window is None:
        combos = [()]
        for s in factors:
            combos = [c + (i,) for c in combos for i in range(s.n)]
        wdesc = {"kind": "full"}
    else:
        radius = float(window["radius"])
        centers = list(window["centers"])
        dists = [np.array([point_distance(p, pts[c]) for p in pts])
                 for pts, c in zip(fpts, centers)]
        # the factor distances summed left to right from 0, as
        # point_distance sums the parts
        stack = [((), 0.0)]
        for s, dv in zip(factors, dists):
            stack = [(combo + (i,), used + dv[i]) for combo, used in stack
                     for i in range(s.n) if used + dv[i] <= radius]
        combos = [c for c, _ in stack]
        wdesc = {"kind": "l1_ball", "radius": radius, "centers": centers}
    index = {c: i for i, c in enumerate(combos)}
    pts = [TuplePoint(tuple(f[i] for f, i in zip(fpts, combo)))
           for combo in combos]
    adj = [[] for _ in combos]
    factor_adj = list(map(adjacency, factors))
    for idx, combo in enumerate(combos):
        for f, fadj in enumerate(factor_adj):
            for nb in fadj[combo[f]]:
                if nb > combo[f] or wdesc["kind"] != "full":
                    j = index.get(combo[:f] + (nb,) + combo[f + 1:])
                    if j is not None and j != idx:
                        adj[idx].append(j)
                        adj[j].append(idx)
    return (pts, [tuple(sorted(set(a))) for a in adj],
            np.array(combos, dtype=np.int64), wdesc)


def z(lo, hi):
    return generate_net("z", {"lo": lo, "hi": hi})


def h2(radius):
    return generate_net("h2", {"kind": "ball", "radius": radius}, sep=0.8,
                        edge_threshold=1.6)


def l1(factors, radius):
    return {"kind": "l1_ball", "radius": radius,
            "centers": [f.window["basepoint"] for f in factors]}


def boundary_radius(f0, f1):
    """A radius equal to some d0[i] + d1[j] at which ``d1 <= r - d0`` and
    ``d0 + d1 <= r`` disagree on some pair."""
    d0 = f0.distances(np.arange(f0.n), np.full(f0.n, f0.window["basepoint"]))
    d1 = f1.distances(np.arange(f1.n), np.full(f1.n, f1.window["basepoint"]))
    for r in np.unique(d0[:, None] + d1[None, :]):
        if ((d1[None, :] <= r - d0[:, None])
                != (d0[:, None] + d1[None, :] <= r)).any():
            return float(r)
    raise AssertionError("no float-boundary radius in these factors")


def case(name):
    if name == "full-1":
        return [z(-5, 5)], None
    if name == "full-2":
        return [z(-4, 4), z(-3, 2)], None
    if name == "full-3":
        return [z(-3, 3), z(-2, 2), z(0, 3)], None
    if name == "z-x-t3":
        return [z(-4, 4), generate_net("t3", {"radius": 3})], None
    if name == "z-x-t3-l1":
        fs = [z(-6, 6), generate_net("t3", {"radius": 4})]
        return fs, l1(fs, 5.0)
    if name == "h2-x-h2-boundary":
        fs = [h2(3.5), h2(3.0)]
        return fs, l1(fs, boundary_radius(*fs))
    if name == "l1-3":
        fs = [z(-5, 5), generate_net("t3", {"radius": 3}), h2(3.0)]
        return fs, l1(fs, 5.5)
    raise KeyError(name)


CASES = ["full-1", "full-2", "full-3", "z-x-t3", "z-x-t3-l1",
         "h2-x-h2-boundary", "l1-3"]


@pytest.mark.parametrize("budget", [None, 40])
@pytest.mark.parametrize("name", CASES)
def test_build_product_matches_loop(name, budget, monkeypatch):
    if budget is not None:
        # many row blocks, in enumeration and in adjacency
        monkeypatch.setattr(spaces, "_CANDIDATE_BUDGET", budget)
    factors, window = case(name)
    got = build_product(factors, window=window)
    pts, adj, codes, wdesc = loop_build_product(factors, window)
    assert got.n > 1
    assert got.points == pts
    assert got.adj == adj
    assert got._codes.dtype == np.int64 and got._codes.shape == codes.shape
    assert got._codes.tolist() == codes.tolist()
    assert {k: v for k, v in got.window.items() if k != "factors"} == wdesc
    assert got.window["factors"] == list(factors)
    assert (got.sep, got.edge_threshold) == (
        min(f.sep for f in factors), max(f.edge_threshold for f in factors))


def test_boundary_radius_splits_the_two_tests():
    # at the float-boundary radius ``d1 <= r - d0`` keeps a different number
    # of pairs than ``d0 + d1 <= r``, the sum point_distance takes; the
    # product keeps the pairs of the sum
    factors, window = case("h2-x-h2-boundary")
    d0, d1 = (f.distances(np.arange(f.n), np.full(f.n, c))
              for f, c in zip(factors, window["centers"]))
    r = window["radius"]
    kept = build_product(factors, window=window).n
    assert kept == int((d0[:, None] + d1[None, :] <= r).sum())
    assert kept != int((d1[None, :] <= r - d0[:, None]).sum())


_l1_h2 = {}


def l1_h2_product():
    if not _l1_h2:
        fs = [h2(3.5), h2(3.0)]
        _l1_h2["p"] = build_product(fs, window=l1(fs, 4.5))
    return _l1_h2["p"]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_distances_bit_identical(data):
    p = l1_h2_product()
    idx = st.integers(0, p.n - 1)
    pairs = data.draw(st.lists(st.tuples(idx, idx), min_size=1, max_size=60))
    i = np.array([a for a, _ in pairs], dtype=np.int64)
    j = np.array([b for _, b in pairs], dtype=np.int64)
    assert p.distances(i, j).tolist() == [
        point_distance(p.points[a], p.points[b]) for a, b in pairs]


def test_l1_cap_fires_before_allocation():
    f = z(-3000, 3000)
    window = l1([f, f], 3000.0)  # 18M tuples
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match="exceeds cap 1000000"):
            build_product([f, f], window=window, cap=1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_too_few_centres_refused_before_allocation():
    f = z(-200_000, 200_000)
    window = {"kind": "l1_ball", "radius": 10.0, "centers": [f.n // 2]}
    tracemalloc.start()
    try:
        with pytest.raises(ArityError, match="1 window centres for 2 factors"):
            build_product([f, f], window=window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # one factor's centre distances take 3.2 MB


def test_three_factor_l1_cap():
    f = z(-30, 30)
    with pytest.raises(SizeCapError):
        build_product([f, f, f], window=l1([f, f, f], 30.0), cap=10_000)


def test_brady_farb_names_first_missing_tuple():
    src = generate_net("hd", {"kind": "birad", "radius": 3.0, "d": 3},
                       sep=0.5, edge_threshold=1.0)
    fs = [generate_net("h2", {"kind": "ball", "radius": 4.0}, sep=1.0)
          for _ in range(2)]
    product = build_product(fs, window=l1(fs, 1.5))
    xs, ys = src._coords()
    snapped = [tuple(c) for c in np.column_stack(
        [f.nearest_points(xs[:, i:i + 1], ys) for i, f in enumerate(fs)]).tolist()]
    inside = set(map(tuple, product._codes.tolist()))
    first = next(c for c in snapped if c not in inside)
    with pytest.raises(DomainError, match=re.escape(
            f"image tuple {first} outside the product window")):
        brady_farb(src, fs, l1(fs, 1.5))
    # with the whole window every tuple is found, at its own row of the
    # image product: the distinct tuples in key order
    rec = brady_farb(src, fs, l1(fs, 20.0))
    assert [tuple(rec.target._codes[r].tolist()) for r in rec.assignment] == snapped
    assert list(map(tuple, rec.target._codes.tolist())) == sorted(set(snapped))


def test_single_factor_ignores_window():
    f = z(-5, 5)
    p = build_product([f], window=l1([f], 1.0))
    assert p.n == f.n and p.window["kind"] == "full"

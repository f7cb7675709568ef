"""One sequence protocol for every array-backed view.

Points, adjacency tuples, pieces and labels are :class:`~coarselab.spaces.
ArrayView` subclasses that build their items from arrays on every read.
Each kind is read here through the whole protocol (length, int, negative
and numpy indices, ``IndexError`` at both ends, slices, ``take``,
iteration across ``_VIEW_BLOCK`` passes, equality with lists and views)
against the list of its items built in one pass.  Iteration must stay
lazy: it holds one or two built items at a time, never a block of them.
"""

from __future__ import annotations

import random
from functools import partial
from typing import NamedTuple

import numpy as np
import pytest

from coarselab import spaces
from coarselab.covers import Cover, PieceView, mesh_ball_cover
from coarselab.spaces import (ArrayView, LabelView, RowView, build_product,
                              generate_net, metric_graph)
from object_oracles import adjacency

NETS = {
    "z": lambda: generate_net("z", {"lo": -17, "hi": 23}, edge_threshold=2.0),
    "t3": lambda: generate_net("t3", {"radius": 5}),
    "comb": lambda: generate_net("comb", {"d": 2, "extent": 6}),
    "h2": lambda: generate_net("h2", {"kind": "ball", "radius": 3.0}, sep=1.0),
    "hd": lambda: generate_net("hd", {"kind": "ball", "radius": 2.0, "d": 3},
                               sep=0.5),
    "metric_graph": lambda: metric_graph(6, [(0, 1), (1, 2), (4, 5)]),
    "product": lambda: build_product([generate_net("t3", {"radius": 2}),
                                      generate_net("z", {"lo": -3, "hi": 3})]),
}


class Case(NamedTuple):
    view: ArrayView
    want: list  # the items, built in one pass
    twin: ArrayView  # an equal view, built apart


def points_case(name):
    net, again = NETS[name](), NETS[name]()
    return Case(net.points, net._take(np.arange(net.n)), again.points)


def adjacency_case(name):
    net = NETS[name]()
    view = net.adj
    return Case(view, adjacency(net),
                RowView(view.ptr.copy(), view.pts.copy(), tuple))


def pieces_case():
    sp, rng = generate_net("t3", {"radius": 5}), random.Random(3)
    raw = [rng.sample(range(sp.n), rng.randint(1, 9)) for _ in range(20)]
    rest = sorted(set(range(sp.n)).difference(*raw))
    raw += [rest] if rest else []
    # the twin holds the same sets, each row given in reverse
    return Case(Cover(sp, raw).pieces, [frozenset(p) for p in raw],
                PieceView(np.cumsum([0] + list(map(len, raw))),
                          [x for p in raw for x in reversed(p)], sp.n))


def mesh_labels_case():
    mesh = mesh_ball_cover(generate_net("t3", {"radius": 5}), 2)
    centres = mesh.labels.fields[0].tolist()
    return Case(mesh.labels, [f"ball:{c}:2" for c in centres],
                LabelView("ball:{}:{}", centres, [2] * len(centres)))


CASES = {
    **{f"points-{m}": partial(points_case, m)
       for m in ("h2", "hd", "t3", "comb", "product")},
    **{f"adj-{m}": partial(adjacency_case, m) for m in NETS},
    "pieces": pieces_case,
    "small-pieces": lambda: Case(
        PieceView([0, 3, 3, 6], [4, 1, 4, 2, 0, 4], 5),
        [frozenset({1, 4}), frozenset(), frozenset({0, 2, 4})],
        PieceView([0, 2, 2, 5], [1, 4, 0, 2, 4], 5)),
    "many-pieces": lambda: Case(
        PieceView(np.arange(0, 22, 2), np.arange(20) % 7, 7),
        [frozenset({i % 7, (i + 1) % 7}) for i in range(0, 20, 2)],
        PieceView(np.arange(0, 22, 2), np.arange(20) % 7, 7)),
    "mesh-labels": mesh_labels_case,
    "small-labels": lambda: Case(
        LabelView("{}.{}", [0, 0, 2], [0, 1, 0]), ["0.0", "0.1", "2.0"],
        LabelView("{}.{}", np.array([0, 0, 2]), [0, 1, 0])),
    "many-labels": lambda: Case(
        LabelView("ball:{}:3", np.arange(17)),
        [f"ball:{c}:3" for c in range(17)],
        LabelView("ball:{}:{}", np.arange(17), [3] * 17)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_view_reads_like_its_list(name, monkeypatch):
    view, want, twin = CASES[name]()
    n = len(want)
    # iterate in passes of 7 items, so the larger views span several
    monkeypatch.setattr(spaces, "_VIEW_BLOCK", 7)
    assert len(view) == n and bool(view) == bool(n)
    assert list(view) == want
    assert [view[i] for i in range(n)] == want
    assert view[-1] == want[-1] and view[-n] == want[0]
    assert view[np.int64(n - 1)] == want[-1] and view[np.int64(-n)] == want[0]
    for i in (n, -n - 1, np.int64(n)):
        with pytest.raises(IndexError):
            view[i]
    for cut in (slice(1, None), slice(3, 9), slice(-5, None), slice(9, 3),
                slice(None), slice(None, None, -2), slice(-2, 0, -3)):
        assert view[cut] == want[cut]
    assert view.take([n - 1, 0, -1]) == [want[-1], want[0], want[-1]]
    assert view.take(np.arange(n)[::-1]) == want[::-1] and view.take([]) == []
    with pytest.raises(IndexError):
        view.take([0, n])
    assert want[n // 2] in view and view.index(want[n // 2]) == want.index(want[n // 2])
    # equal to the list and to an equal view, both ways round
    assert view == want and want == view and not view != want
    assert view == view and view == twin and twin == view and twin == want
    assert view != want[:-1] and want[:-1] != view
    changed = want[:-1] + [want[0] if want[0] != want[-1] else want[1]]
    assert view != changed and not view == changed
    # a list alone: a tuple of the same items is a different sequence
    assert view != tuple(want) and tuple(want) != view
    # the arrays a view exposes (CSR rows, label fields) are read-only
    for attr in ("ptr", "pts", "fields"):
        if hasattr(view, attr):
            with pytest.raises(ValueError):
                getattr(view, attr).reshape(-1)[0] = 1


# -- laziness ----------------------------------------------------------------


class Counted:
    """An item that counts the live instances of its class."""

    live = peak = 0

    def __init__(self, *_):
        Counted.live += 1
        Counted.peak = max(Counted.peak, Counted.live)

    def __del__(self):
        Counted.live -= 1


class CountedFormat:
    """A label format whose ``format`` builds a :class:`Counted`."""

    format = Counted


@pytest.mark.parametrize("kind", ["rows", "labels"])
def test_iteration_holds_at_most_two_built_items(kind, monkeypatch):
    monkeypatch.setattr(spaces, "_VIEW_BLOCK", 7)
    monkeypatch.setattr(Counted, "live", 0)
    monkeypatch.setattr(Counted, "peak", 0)
    if kind == "rows":
        view = RowView(np.arange(0, 61, 2), np.arange(60) % 11, Counted)
    else:
        view = LabelView(CountedFormat(), np.arange(30), np.arange(30))
    seen = 0
    for item in view:
        seen += isinstance(item, Counted)
    del item
    # the loop's variable holds the last item while the next is built
    assert seen == 30 and Counted.peak <= 2 and Counted.live == 0

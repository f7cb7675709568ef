"""Oracles for the array-backed nets.

The closed-form tree walk is compared with the tuple-and-dictionary
construction it replaced, which lives here as the oracle (and provides
``_spine_word`` and ``_binary_walk`` to ``test_constructions``).  The
scalar t3 ``model_distance`` is checked against ``point_distance`` past
62 bits of word code; point views and CSR adjacency against the object
lists and adjacency tuples the builders used to make, on every net kind.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coarselab import artifacts, constructions, spaces
from coarselab.constructions import tree_walk, walk_target
from coarselab.errors import SizeCapError
from coarselab.spaces import (HalfPlane, HalfSpace, PointView, TreeAddress,
                              TuplePoint, ZPoint, build_product, generate_net,
                              metric_graph)
from object_oracles import net_comb_oracle, net_t3_oracle, point_distance


# -- the tuple walk -----------------------------------------------------------


def _spine_word(k: int) -> tuple[int, ...]:
    if k >= 0:
        return tuple(0 if i % 2 == 0 else 1 for i in range(k))
    return tuple(1 if i % 2 == 0 else 0 for i in range(-k))


def _child_letters(word: tuple[int, ...]) -> tuple[int, int]:
    if not word:
        return (0, 1)
    a, b = tuple(l for l in (0, 1, 2) if l != word[-1])
    return a, b


def _binary_walk(root: tuple[int, ...], depth: int) -> list[tuple[int, ...]]:
    """Closed depth-first walk below ``root``: every edge of the depth-d
    binary tree twice, leaves visited in lexicographic order."""
    if depth == 0:
        return [root]
    lo, hi = _child_letters(root)
    left = _binary_walk(root + (lo,), depth - 1)
    right = _binary_walk(root + (hi,), depth - 1)
    return [root] + left + [root] + right + [root]


def oracle_walk(n_max: int) -> dict:
    """The walk as the tuple loop built it: target words in order of
    first visit, adjacency tuples, assignment, spine and root indices."""
    seq: list[tuple[int, ...]] = []
    zero_pos = None
    for k in range(-n_max, n_max):
        if k == 0:
            zero_pos = len(seq)
        seq.extend(_binary_walk(_spine_word(k) + (2,), abs(k)))
        seq.append(_spine_word(k))
        seq.append(_spine_word(k + 1))
    seq.append(_spine_word(n_max) + (2,))
    index: dict[tuple[int, ...], int] = {}
    adj: list[set[int]] = []
    for w in seq:
        if w not in index:
            index[w] = len(index)
            adj.append(set())
    for a, b in zip(seq, seq[1:]):
        adj[index[a]].add(index[b])
        adj[index[b]].add(index[a])
    assignment = [index[w] for w in seq]
    words = list(index)
    lip = max(_word_distance(words[a], words[b])
              for a, b in zip(assignment, assignment[1:]))
    return {"words": words, "adj": [tuple(sorted(s)) for s in adj],
            "assignment": assignment,
            "domain": [-zero_pos, len(seq) - 1 - zero_pos],
            "spine": {k: index[_spine_word(k)] for k in range(-n_max, n_max + 1)},
            "roots": {k: index[_spine_word(k) + (2,)]
                      for k in range(-n_max, n_max + 1)
                      if _spine_word(k) + (2,) in index},
            "lipschitz": float(lip),
            "fiber": max(Counter(assignment).values())}


def _word_distance(u, v) -> int:
    k = 0
    while k < min(len(u), len(v)) and u[k] == v[k]:
        k += 1
    return len(u) + len(v) - 2 * k


@pytest.mark.parametrize("n_max", range(1, 13))
def test_closed_form_walk_matches_tuple_walk(n_max):
    walk = tree_walk(n_max)
    want = oracle_walk(n_max)
    target = walk.target
    assert walk.assignment == want["assignment"]
    assert [p.word for p in target.points] == want["words"]
    assert target.adj == want["adj"]
    assert target.window["spine"] == want["spine"]
    assert target.window["roots"] == want["roots"]
    assert list(target.window["spine"]) == list(want["spine"])
    assert walk.provenance["domain"] == want["domain"]
    assert walk.measured_lipschitz == want["lipschitz"]
    assert walk.measured_max_fiber == want["fiber"]
    # the word matrix the distance kernel reads holds the same words
    words, depth = target._codes
    assert words.shape[1] == max(map(len, want["words"])) + 1
    assert [tuple(r[:d]) for r, d in zip(words.tolist(), depth.tolist())] == \
        want["words"]
    assert (words[np.arange(words.shape[1]) >= depth[:, None]] == -1).all()


def test_walk_target_alone_equals_the_walks():
    walk = tree_walk(7)
    alone = walk_target(7)
    assert alone.points == walk.target.points
    assert alone.indptr.tolist() == walk.target.indptr.tolist()
    assert alone.indices.tolist() == walk.target.indices.tolist()
    assert alone.window == walk.target.window


def test_reading_a_walk_target_builds_only_the_target(monkeypatch):
    def no_source(*args, **kwargs):
        raise AssertionError("a target read built the walk's source")
    monkeypatch.setattr(constructions, "generate_net", no_source)
    monkeypatch.setattr(constructions.MapRecord, "remeasure", no_source)
    target = artifacts.space_from_manifest(
        {"version": 1, "model": "walk_target", "window": {"n_max": 5},
         "sep": 1.0, "edge_threshold": 1.0})
    assert target.window["n_max"] == 5 and target.model == "t3"


def test_walk_builds_no_tree_address(monkeypatch):
    made = []
    check = TreeAddress.__post_init__

    def counted(self):
        made.append(self.word)
        check(self)
    monkeypatch.setattr(TreeAddress, "__post_init__", counted)
    walk = tree_walk(12)
    walk.remeasure()
    assert made == []
    # a point is built when it is read, and not kept
    p = walk.target.points[5]
    assert len(made) == 1 and walk.target.points[5] is not p


# -- scalar t3 distances ------------------------------------------------------


@pytest.fixture(scope="module")
def target16():
    return walk_target(16)


def test_walk_words_pass_62_bits(target16):
    # 33 letters of a byte each: the scalar distance compares words as
    # ints wider than int64
    assert int(target16._codes[1].max()) == 33
    assert target16._codes[0].shape[1] * 8 > 62


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_scalar_tree_distance_matches_point_distance(target16, data):
    # vertices of 31 to 33 letters, drawn as often as any vertex
    deep = np.flatnonzero(target16._codes[1] >= 31)
    index = st.one_of(st.integers(0, target16.n - 1),
                      st.integers(0, len(deep) - 1).map(lambda k: int(deep[k])))
    i, j = data.draw(index), data.draw(index)
    want = point_distance(target16.points[i], target16.points[j])
    assert target16.model_distance(i, j) == want
    assert target16.distances([i], [j])[0] == want


def test_scalar_tree_distance_on_a_ball_exhaustive():
    t = generate_net("t3", {"radius": 5})
    pts = list(t.points)
    got = [t.model_distance(i, j) for i in range(t.n) for j in range(t.n)]
    assert got == [point_distance(p, q) for p in pts for q in pts]


# -- point views and CSR adjacency --------------------------------------------


def loop_halfspace_points(window, sep, dim):
    """Points of a stratified window as the object loop built them."""
    pts = []
    radius = float(window["radius"])
    for y, step, xs, m in spaces._halfspace_layers(window, radius, sep, dim):
        if dim == 2:
            pts.extend(HalfPlane(x, y) for x in xs.tolist())
            continue
        for x1, half in zip(xs.tolist(), m.tolist()):
            pts.extend(HalfSpace((x1, j2 * step), y)
                       for j2 in range(-half, half + 1))
    return pts


def loop_self_join(pts, sep, thr):
    """Adjacency tuples from the grid self-join of the point objects."""
    if isinstance(pts[0], HalfPlane):
        xs = np.array([[p.x] for p in pts])
    else:
        xs = np.array([list(p.xs) for p in pts])
    ys = np.array([p.y for p in pts])
    grid = spaces._StratifiedGrid(xs, ys, sep, isinstance(pts[0], HalfSpace))
    indptr, indices = grid.query(xs, ys, thr + 1e-12)
    rows = [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]
    return [tuple(j for j in row if j != i) for i, row in enumerate(rows)]


def _windows():
    out = []
    for r in (1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0):
        for sep in (0.35, 0.5, 0.8, 1.0):
            out.append(("h2", {"kind": "ball", "radius": r}, sep, None))
    for r in (1.5, 2.0, 3.0, 3.5):
        for sep in (0.35, 0.5, 0.8, 1.0):
            out.append(("hd", {"kind": "ball", "radius": r, "d": 3}, sep, None))
    for r in (1.5, 2.0, 3.0, 4.0, 5.0):
        for sep in (0.35, 0.5, 0.8, 1.0):
            out.append(("hd", {"kind": "birad", "radius": r, "d": 3}, sep,
                        2 * sep))
    for kind in ("ball", "birad"):
        for r in (2.0, 4.0, 6.0):
            for sep in (0.5, 1.0):
                out.append(("hd", {"kind": kind, "radius": r, "d": 2}, sep, None))
    return out


# 76 windows: h2 balls, hd balls and birad windows of d = 3, and the
# hd windows of d = 2 (which the plane builder makes)
WINDOWS = _windows()


@pytest.mark.parametrize("model,window,sep,thr", WINDOWS,
                         ids=[f"{m}-{w['kind']}-d{w.get('d', 2)}-R{w['radius']}-s{s}"
                              for m, w, s, _ in WINDOWS])
def test_halfspace_view_and_csr_match_object_loop(model, window, sep, thr):
    net = generate_net(model, window, sep=sep, edge_threshold=thr)
    dim = window.get("d", 2)
    pts = loop_halfspace_points(window, sep, dim)
    assert isinstance(net.points, PointView)
    assert net.points == pts
    # equal points, down to the sign of zero and the float type
    assert list(map(repr, net.points)) == list(map(repr, pts))
    adj = loop_self_join(pts, sep, net.edge_threshold)
    assert net.adj == adj
    assert np.diff(net.indptr).tolist() == list(map(len, adj))
    assert net.degree_bound == max(map(len, adj))


def test_point_view_reads():
    net = generate_net("h2", {"kind": "ball", "radius": 3.0}, sep=0.5)
    pts = loop_halfspace_points({"kind": "ball", "radius": 3.0}, 0.5, 2)
    view = net.points
    assert len(view) == len(pts) and view[-1] == pts[-1]
    assert view[3:40:7] == pts[3:40:7]
    assert view.take([9, 2, 9]) == [pts[9], pts[2], pts[9]]
    assert pts[17] in view and view.index(pts[17]) == 17
    assert view == pts and pts == view and view != pts[:-1]
    assert view != tuple(pts)
    with pytest.raises(IndexError):
        view[len(pts)]


def test_point_view_iterates_across_blocks(monkeypatch):
    monkeypatch.setattr(spaces, "_VIEW_BLOCK", 7)
    net = generate_net("hd", {"kind": "ball", "radius": 2.0, "d": 3}, sep=0.5)
    assert list(net.points) == [net.points[i] for i in range(net.n)]
    assert list(net.points) == loop_halfspace_points(
        {"kind": "ball", "radius": 2.0, "d": 3}, 0.5, 3)


def test_product_of_views_nests():
    f = generate_net("h2", {"kind": "ball", "radius": 2.0}, sep=0.8)
    pf = build_product([f, f])
    pp = build_product([pf, generate_net("z", {"lo": -2, "hi": 2})])
    factor = list(f.points)
    inner = [TuplePoint((factor[a], factor[b])) for a, b in pf._codes.tolist()]
    assert pf.points == inner
    assert pp.points == [TuplePoint((inner[a], ZPoint(n - 2)))
                         for a, n in pp._codes.tolist()]


# one small net of each model, with the point list the builders used to
# make: (model, window, sep) drawn, then the net and its oracle points
nets = st.one_of(
    st.tuples(st.just("z"), st.tuples(st.integers(-6, 3), st.integers(0, 6)),
              st.sampled_from([1.0, 2.0, 2.5])),
    st.tuples(st.just("t3"), st.integers(0, 3), st.sampled_from([1.0, 2.0])),
    st.tuples(st.just("comb"), st.tuples(st.integers(1, 2), st.integers(1, 3)),
              st.just(1.0)),
    st.tuples(st.just("h2"), st.floats(1.0, 2.0), st.sampled_from([0.8, 1.0])),
    st.tuples(st.just("hd"), st.tuples(st.sampled_from(["ball", "birad"]),
                                       st.floats(1.0, 1.6), st.sampled_from([2, 3])),
              st.just(1.0)),
    st.tuples(st.just("metric_graph"), st.integers(1, 6), st.just(1.0)),
)


def net_and_oracle(spec):
    model, window, sep = spec
    if model == "z":
        lo, hi = window[0], window[0] + window[1]
        net = generate_net("z", {"lo": lo, "hi": hi}, sep=sep)
        return net, [ZPoint(n) for n in range(lo, hi + 1, int(-(-sep // 1)))]
    if model == "t3":
        return generate_net("t3", {"radius": window}, sep=sep), \
            net_t3_oracle(window, sep)[0]
    if model == "comb":
        d, extent = window
        return generate_net("comb", {"d": d, "extent": extent}), \
            net_comb_oracle(d, extent)[0]
    if model == "h2":
        w = {"kind": "ball", "radius": window}
        return generate_net("h2", w, sep=sep), loop_halfspace_points(w, sep, 2)
    if model == "hd":
        kind, radius, d = window
        w = {"kind": kind, "radius": radius, "d": d}
        return generate_net("hd", w, sep=sep), loop_halfspace_points(w, sep, d)
    return (metric_graph(window, [(i, i + 1) for i in range(window - 1)]),
            [ZPoint(i) for i in range(window)])


def assert_points(net, want):
    # equal points, down to the sign of zero and the float type, read
    # whole, one by one and as a shuffled take
    assert net.points == want
    assert list(map(repr, net.points)) == list(map(repr, want))
    assert [net.points[i] for i in range(net.n)] == want
    idx = np.random.default_rng(net.n).permutation(net.n)
    got = net.points.take(idx) if isinstance(net.points, PointView) else \
        [net.points[i] for i in idx]
    assert got == [want[i] for i in idx]


@given(spec=nets)
@settings(max_examples=80, deadline=None)
def test_points_equal_the_object_construction(spec):
    net, want = net_and_oracle(spec)
    assert_points(net, want)
    assert all(net.index_of(p) == i for i, p in enumerate(want))


@given(specs=st.lists(nets, min_size=1, max_size=3), l1=st.booleans(),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_product_points_equal_the_object_construction(specs, l1, data):
    # products mixing every model: each factor's points are built by its
    # own arrays, not read from a list
    built = [net_and_oracle(spec) for spec in specs]
    factors, lists = [f for f, _ in built], [pts for _, pts in built]
    assume(np.prod([f.n for f in factors]) <= 3000)
    tuples = list(product(*lists))
    window = None
    if l1 and len(factors) > 1:
        centers = [data.draw(st.integers(0, f.n - 1)) for f in factors]
        radius = data.draw(st.floats(0.0, 4.0))
        window = {"kind": "l1_ball", "radius": radius, "centers": centers}
        tuples = [t for t in tuples if sum(
            point_distance(p, pts[c]) for p, pts, c in zip(t, lists, centers))
            <= radius]
    net = build_product(factors, window)
    assert_points(net, [TuplePoint(t) for t in tuples])


def test_integer_points_are_built_on_first_read():
    # generate_net builds no ZPoint: a walk's source is often used through
    # its codes alone (the CLI's build walk, verify, analyze distortion)
    net = generate_net("z", {"lo": -5, "hi": 5})
    assert "points" not in vars(net)
    assert net.points == [ZPoint(n) for n in range(-5, 6)]
    assert "points" in vars(net)
    assert "points" not in vars(generate_net("t3", {"radius": 3}))


def test_index_of_on_metric_graphs():
    g = metric_graph(5, [(0, 1), (3, 4)])
    assert [g.index_of(ZPoint(i)) for i in range(5)] == list(range(5))
    for missing in (ZPoint(5), ZPoint(-1), TreeAddress(()), 2):
        with pytest.raises(KeyError):
            g.index_of(missing)


def loop_z_adjacency(ns, thr):
    ids = tuple(range(len(ns)))
    return [tuple(j for j in ids if j != i and abs(ns[j] - ns[i]) <= thr)
            for i in ids]


def loop_tree_adjacency(pts):
    index = {p.word: i for i, p in enumerate(pts)}
    adj = [[] for _ in pts]
    for i, p in enumerate(pts):
        if p.word:
            j = index[p.word[:-1]]
            adj[i].append(j)
            adj[j].append(i)
    return [tuple(sorted(a)) for a in adj]


def loop_comb_adjacency(pts):
    index = {(p.base, p.offsets): i for i, p in enumerate(pts)}
    adj = [[] for _ in pts]
    for i, p in enumerate(pts):
        if p.offsets:
            *head, last = p.offsets
            j = index[(p.base, tuple(head) + ((last - 1,) if last > 1 else ()))]
        else:
            j = index.get((p.base + 1, ()))
            if j is None:
                continue
        adj[i].append(j)
        adj[j].append(i)
    return [tuple(sorted(set(a))) for a in adj]


def brute_adjacency(pts, thr):
    return [tuple(j for j, q in enumerate(pts)
                  if j != i and point_distance(p, q) <= thr)
            for i, p in enumerate(pts)]


@pytest.mark.parametrize("name", ["z", "z-sep3", "z-thr2", "t3", "t3-sep2",
                                  "t3-thr2", "comb", "metric"])
def test_list_nets_csr_matches_object_loop(name):
    if name.startswith("z"):
        sep, thr = {"z": (1.0, None), "z-sep3": (3.0, None),
                    "z-thr2": (1.0, 2.0)}[name]
        net = generate_net("z", {"lo": -17, "hi": 23}, sep=sep, edge_threshold=thr)
        assert net.points == [ZPoint(n) for n in range(-17, 24, int(sep))]
        want = loop_z_adjacency([p.n for p in net.points], net.edge_threshold)
    elif name == "t3":
        net = generate_net("t3", {"radius": 6})
        want = loop_tree_adjacency(net.points)
    elif name.startswith("t3"):
        sep, thr = {"t3-sep2": (2.0, None), "t3-thr2": (1.0, 2.0)}[name]
        net = generate_net("t3", {"radius": 4}, sep=sep, edge_threshold=thr)
        want = brute_adjacency(net.points, net.edge_threshold)
    elif name == "comb":
        net = generate_net("comb", {"d": 3, "extent": 4})
        want = loop_comb_adjacency(net.points)
        assert want == brute_adjacency(net.points, 1.0)
    else:
        net = metric_graph(6, [(0, 1), (1, 0), (2, 2), (1, 2), (4, 5), (5, 4)])
        want = [(1,), (0, 2), (1,), (), (5,), (4,)]
    # integer windows and explicit graphs keep point lists; t3 balls and
    # combs are held as arrays and read through a view
    assert isinstance(net.points, list if name[0] in "zm" else PointView)
    assert net.adj == want
    assert net.indices.tolist() == [j for row in want for j in row]
    assert net.degree_bound == max(map(len, want))


def test_adjacency_tuples_share_point_ints():
    net = generate_net("z", {"lo": 0, "hi": 2000})
    assert net.adj[700][0] is net.adj[698][1]


def test_walk_size_count_is_the_closed_form():
    for n in range(1, 10):
        steps = sum(2 ** (abs(k) + 2) - 1 for k in range(-n, n)) + 1
        assert steps == 3 * 2 ** (n + 2) - 2 * n - 11
        assert tree_walk(n).source.n == steps


def test_caps_count_z_t3_and_walk_exactly(monkeypatch):
    # a cap equal to the size builds the window, one less refuses it
    for model, window, size in (("z", {"lo": -7, "hi": 12}, 20),
                                ("t3", {"radius": 5}, 94)):
        assert generate_net(model, {**window, "cap": size}).n == size
        with pytest.raises(SizeCapError):
            generate_net(model, {**window, "cap": size - 1})
    monkeypatch.setattr(constructions, "PRODUCT_CAP", 363)
    assert tree_walk(5).source.n == 363
    monkeypatch.setattr(constructions, "PRODUCT_CAP", 362)
    with pytest.raises(SizeCapError):
        tree_walk(5)

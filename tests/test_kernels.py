"""Oracles for the array kernels of the tree-walk pipeline.

``SpaceGraph.distances`` is compared, bit for bit, with the object oracle
``point_distance`` (a deque BFS on metric graphs); graph-metric
``r_multiplicity`` with the per-piece breadth-first search it replaced;
the shared pullback helper with a set-based preimage oracle; the csgraph
distances with a plain BFS; and ``MapRecord.remeasure`` and
``distortion_profile`` with per-pair loops.
"""

from __future__ import annotations

import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import analysis, covers, spaces
from coarselab.constructions import MapRecord, tree_walk
from coarselab.covers import (ColoredDecomposition, Cover, pullback_cover,
                              pullback_decomposition, r_multiplicity)
from coarselab.spaces import build_product, generate_net, metric_graph
from object_oracles import graph_distance_oracle, point_distance

SPACES = {
    "z": lambda: generate_net("z", {"lo": -12, "hi": 12}),
    "t3": lambda: generate_net("t3", {"radius": 5}),
    "walk5": lambda: tree_walk(5).target,
    "walk4-source": lambda: tree_walk(4).source,
    "comb": lambda: generate_net("comb", {"d": 3, "extent": 4}),
    "h2": lambda: generate_net("h2", {"kind": "ball", "radius": 3.5}, sep=0.8,
                               edge_threshold=1.6),
    "hd": lambda: generate_net("hd", {"kind": "birad", "radius": 3.0, "d": 3},
                               sep=0.5, edge_threshold=1.0),
    "product": lambda: build_product([generate_net("z", {"lo": -3, "hi": 3}),
                                      generate_net("t3", {"radius": 2})]),
}
_cache: dict = {}


def space(name):
    """The named test space, built once."""
    if name not in _cache:
        _cache[name] = SPACES[name]()
    return _cache[name]


def scalar_distances(sp, i, j):
    return [point_distance(sp.points[a], sp.points[b]) for a, b in zip(i, j)]


# ---------------------------------------------------------------------------
# SpaceGraph.distances


@st.composite
def index_pairs(draw):
    name = draw(st.sampled_from(["z", "t3", "walk5", "comb", "h2", "hd",
                                 "product"]))
    n = space(name).n
    idx = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(idx, idx), max_size=40))
    # repeated rows, and the same pair in both orders
    pairs = pairs + pairs[: draw(st.integers(0, len(pairs)))]
    pairs = pairs + [(b, a) for a, b in pairs[:3]]
    return name, [a for a, _ in pairs], [b for _, b in pairs]


@settings(max_examples=150, deadline=None)
@given(index_pairs())
def test_distances_bit_identical_to_point_distance(case):
    name, i, j = case
    sp = space(name)
    got = sp.distances(np.array(i, dtype=np.int64), np.array(j, dtype=np.int64))
    assert got.dtype == np.float64 and got.shape == (len(i),)
    assert got.tolist() == scalar_distances(sp, i, j)


@pytest.mark.parametrize("name", ["t3", "walk5", "hd"])
def test_distances_all_pairs(name):
    # every pair: covers both word orders and equal depths on trees, and on
    # half-space nets x-differences whose `**2` and x*x differ in the last bit
    sp = space(name)
    i, j = np.divmod(np.arange(sp.n * sp.n), sp.n)
    assert sp.distances(i, j).tolist() == scalar_distances(sp, i.tolist(),
                                                           j.tolist())


def test_distances_blocks_and_edge_cases(monkeypatch):
    sp = space("walk5")
    rng = np.random.default_rng(3)
    i, j = rng.integers(0, sp.n, 500), rng.integers(0, sp.n, 500)
    whole = sp.distances(i, j)
    from coarselab import spaces

    monkeypatch.setattr(spaces, "_DISTANCE_BLOCK", 7)
    assert sp.distances(i, j).tolist() == whole.tolist()
    empty = sp.distances([], [])
    assert empty.shape == (0,) and empty.dtype == np.float64
    assert sp.distances([4, 4, 4], [4, 4, 4]).tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(IndexError):
        sp.distances([0], [sp.n])
    with pytest.raises(IndexError):
        sp.distances([-1], [0])
    with pytest.raises(ValueError):
        sp.distances([0, 1], [0])


def test_distances_on_explicit_graph():
    g = metric_graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    i, j = np.divmod(np.arange(36), 6)
    assert g.distances(i, j).tolist() == [graph_distance_oracle(g, a, b)
                                          for a, b in zip(i, j)]


# ---------------------------------------------------------------------------
# graph-metric r_multiplicity


def bfs_multiplicity(cover, R):
    """The per-piece breadth-first count the sparse products replaced."""
    space, rad = cover.space, int(R)
    hit = np.zeros(space.n, dtype=np.int64)
    for piece in cover.pieces:
        seen = set(piece)
        dq = deque((x, 0) for x in sorted(piece))
        for x in piece:
            hit[x] += 1
        while dq:
            v, d = dq.popleft()
            if d >= rad:
                continue
            for w in space.adj[v]:
                if w not in seen:
                    seen.add(w)
                    hit[w] += 1
                    dq.append((w, d + 1))
    best = int(hit.argmax())
    return int(hit[best]), best


def random_cover(sp, rng, pieces=8):
    out = []
    for _ in range(pieces):
        size = rng.randint(1, max(1, sp.n // 3))
        out.append(frozenset(rng.sample(range(sp.n), size)))
    rest = set(range(sp.n)) - set().union(*out)
    if rest:
        out.append(frozenset(rest))
    return Cover(sp, out)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["walk5", "walk4-source", "t3", "comb"]),
       seed=st.integers(0, 10 ** 6), R=st.sampled_from([0, 1, 2, 3, 2.7]))
def test_graph_multiplicity_matches_bfs(name, seed, R):
    cov = random_cover(space(name), random.Random(seed))
    assert r_multiplicity(cov, R) == bfs_multiplicity(cov, R)


def test_graph_multiplicity_in_row_blocks(monkeypatch):
    cov = random_cover(space("t3"), random.Random(5), pieces=20)
    expect = [bfs_multiplicity(cov, R) for R in range(4)]
    monkeypatch.setattr(covers, "_ROW_BLOCK", 5)
    assert [r_multiplicity(cov, R) for R in range(4)] == expect


def test_graph_multiplicity_of_sparse_pieces_on_a_path():
    # singleton pieces on every other point, plus one piece of the rest
    z = space("z")
    pieces = [frozenset({i}) for i in range(0, z.n, 2)]
    cov = Cover(z, pieces + [frozenset(range(1, z.n, 2))])
    for R in range(4):
        assert r_multiplicity(cov, R) == bfs_multiplicity(cov, R)


def bfs_mesh_cover(sp, R):
    """The greedy breadth-first mesh cover the ball patterns replaced."""
    def ball(v, r):
        seen, dq = {v}, deque([(v, 0)])
        while dq:
            u, d = dq.popleft()
            if d < r:
                for w in sp.adj[u]:
                    if w not in seen:
                        seen.add(w)
                        dq.append((w, d + 1))
        return seen

    blocked, centers = set(), []
    for v in range(sp.n):
        if v not in blocked:
            centers.append(v)
            blocked |= ball(v, R - 1)
    return [frozenset(ball(c, R)) for c in centers], centers


@pytest.mark.parametrize("name", ["walk5", "walk4-source", "t3", "comb"])
@pytest.mark.parametrize("R", [1, 2, 3])
def test_mesh_ball_cover_matches_bfs(name, R, monkeypatch):
    sp = space(name)
    pieces, centers = bfs_mesh_cover(sp, R)
    monkeypatch.setattr(covers, "_ROW_BLOCK", 7)
    cov = covers.mesh_ball_cover(sp, R)
    assert cov.pieces == pieces
    assert cov.labels == [f"ball:{c}:{R}" for c in centers]


# ---------------------------------------------------------------------------
# pullbacks


def set_preimages(assignment, pieces):
    out = []
    for pid, piece in enumerate(pieces):
        pre = frozenset(x for x, y in enumerate(assignment) if y in piece)
        if pre:
            out.append((pid, pre))
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), spread=st.integers(1, 94))
def test_preimages_match_set_oracle(seed, spread):
    rng = random.Random(seed)
    src, tgt = space("z"), space("t3")
    # images crowd into the first `spread` target points, so some target
    # pieces have empty preimages
    f = MapRecord(source=src, target=tgt,
                  assignment=[rng.randrange(spread) for _ in range(src.n)])
    cov = random_cover(tgt, rng)
    expect = set_preimages(f.assignment, cov.pieces)
    ids, pieces = covers._preimages(f, cov.pieces)
    assert list(zip(ids, pieces)) == expect
    pulled = pullback_cover(f, cov)
    assert pulled.pieces == [p for _, p in expect]
    assert pulled.labels == [f"pre:{pid}" for pid, _ in expect]
    colors = [rng.randint(0, 2) for _ in cov.pieces]
    dec = ColoredDecomposition(tgt, cov.pieces, colors, r=1.0, d=2,
                               partition=False)
    pd = pullback_decomposition(f, dec)
    assert pd.pieces == [p for _, p in expect]
    assert pd.colors == [colors[pid] for pid, _ in expect]
    assert pd.provenance["target_pieces"] == [pid for pid, _ in expect]
    assert pd.partition is False


def test_partition_pulled_back_through_walk_stays_partition():
    walk = tree_walk(6)
    assert walk.measured_max_fiber == 3
    # partition the tree by word depth mod 3
    depth = [len(p.word) for p in walk.target.points]
    pieces = [frozenset(i for i, k in enumerate(depth) if k % 3 == c)
              for c in range(3)]
    dec = ColoredDecomposition(walk.target, pieces, [0, 1, 2], r=1.0, d=2)
    pulled = pullback_decomposition(walk, dec)
    assert pulled.partition is True
    assert sorted(x for p in pulled.pieces for x in p) == list(range(walk.source.n))
    # the flag is checked: a pulled overlapping family is not a partition
    overlap = ColoredDecomposition(walk.target, pieces + [pieces[0]],
                                   [0, 1, 2, 0], r=1.0, d=2, partition=False)
    assert pullback_decomposition(walk, overlap).partition is False


# ---------------------------------------------------------------------------
# csgraph distances


def bfs(sp, sources, limit=None):
    dist = np.full(sp.n, -1, dtype=np.int64)
    dq = deque()
    for s in sources:
        if dist[s] != 0:
            dist[s] = 0
            dq.append(s)
    while dq:
        v = dq.popleft()
        if limit is not None and dist[v] >= limit:
            continue
        for w in sp.adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                dq.append(w)
    return dist


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), limit=st.sampled_from([None, 0, 1, 2, 5]))
def test_graph_distances_match_bfs(seed, limit):
    rng = random.Random(seed)
    n = rng.randint(1, 25)
    g = metric_graph(n, [(rng.randrange(n), rng.randrange(n))
                         for _ in range(rng.randint(0, 2 * n))])
    c = rng.randrange(n)
    assert g.graph_distances(c, limit=limit).tolist() == bfs(g, [c], limit).tolist()
    full = [[float(d) if d >= 0 else np.inf for d in bfs(g, [s])]
            for s in range(n)]
    assert g._dist_matrix.tolist() == full


# ---------------------------------------------------------------------------
# remeasure and distortion profiles


def loop_lipschitz(f):
    src, tgt = list(f.source.points), list(f.target.points)
    lip = 0.0
    for i, nbrs in enumerate(f.source.adj):
        for j in nbrs:
            if j < i:
                continue
            ds = point_distance(src[i], src[j])
            dt = point_distance(tgt[f.assignment[i]], tgt[f.assignment[j]])
            if ds > 0:
                lip = max(lip, dt / ds)
    return lip


@pytest.mark.parametrize("src,tgt", [("z", "t3"), ("hd", "h2"),
                                     ("comb", "product"), ("t3", "walk5")])
def test_remeasure_matches_edge_loop(src, tgt, monkeypatch):
    rng = random.Random(src)
    s, t = space(src), space(tgt)
    f = MapRecord(source=s, target=t,
                  assignment=[rng.randrange(t.n) for _ in range(s.n)])
    assert f.measured_lipschitz == loop_lipschitz(f)
    from coarselab import constructions

    monkeypatch.setattr(constructions, "_EDGE_BLOCK", 3)
    f.remeasure()
    assert f.measured_lipschitz == loop_lipschitz(f)


def test_distortion_samples_match_pair_loop():
    walk = tree_walk(5)
    for anchored, cap in ((walk.source.n // 2, 200_000), (None, 200_000),
                          (None, 500)):
        prof = analysis.distortion_profile(walk, pair_cap=cap, seed=4,
                                           anchored=anchored)
        a, b = analysis._sample_pairs(walk.source.n, cap, 4, anchored)
        src, tgt = walk.source.points, list(walk.target.points)
        ds = [point_distance(src[x], src[y]) for x, y in zip(a, b)]
        dt = [point_distance(tgt[walk.assignment[x]], tgt[walk.assignment[y]])
              for x, y in zip(a, b)]
        keep = [k for k, d in enumerate(ds) if d > 0]
        assert prof.samples[0].tolist() == [ds[k] for k in keep]
        assert prof.samples[1].tolist() == [dt[k] for k in keep]


def test_sampled_pairs_follow_the_seeded_sequence():
    n, cap = 50, 300
    rng = random.Random(7)
    seen, expect = set(), []
    while len(expect) < cap:
        a, b = rng.randrange(n), rng.randrange(n)
        key = (min(a, b), max(a, b))
        if a != b and key not in seen:
            seen.add(key)
            expect.append(key)
    a, b = analysis._sample_pairs(n, cap, 7, None)
    assert list(zip(a.tolist(), b.tolist())) == expect
    a, b = analysis._sample_pairs(6, 100, 0, None)
    assert list(zip(a.tolist(), b.tolist())) == [
        (x, y) for x in range(6) for y in range(x + 1, 6)]


@settings(max_examples=40, deadline=None)
@given(lo=st.integers(-30, 30), width=st.integers(0, 40),
       sep=st.sampled_from([0.5, 1.0, 1.5, 2.5]),
       thr=st.sampled_from([None, 0.5, 1.0, 2.0, 3.7]))
def test_z_net_edges_match_pairwise_scan(lo, width, sep, thr):
    z = generate_net("z", {"lo": lo, "hi": lo + width}, sep=sep,
                     edge_threshold=thr)
    ns = [p.n for p in z.points]
    assert z.adj == [tuple(j for j in range(z.n)
                           if j != i and abs(ns[j] - ns[i]) <= z.edge_threshold)
                     for i in range(z.n)]
    mid = (2 * lo + width) // 2
    assert z.window["basepoint"] == min(range(z.n),
                                        key=lambda i: (abs(ns[i] - mid), i))


@pytest.mark.parametrize("name", ["z", "t3", "comb", "product"])
def test_index_of_inverts_points(name):
    sp = SPACES[name]()
    assert [sp.index_of(p) for p in sp.points] == list(range(sp.n))


def test_index_of_misses_raise_key_error():
    from coarselab.spaces import TreeAddress, ZPoint

    z = generate_net("z", {"lo": -5, "hi": 9}, sep=2.0)
    assert [z.index_of(ZPoint(n)) for n in (-5, -3, 9)] == [0, 1, 7]
    for p in (ZPoint(-4), ZPoint(11), ZPoint(-7), TreeAddress(())):
        with pytest.raises(KeyError):
            z.index_of(p)
    with pytest.raises(KeyError):
        space("t3").index_of(TreeAddress((0, 1, 0, 1, 0, 1)))


# ---------------------------------------------------------------------------
# colour-diagonal product decompositions


def loop_product_decomposition(dx, dy, product):
    """The per-pair loop the membership arrays replaced."""
    fx, fy = product.window["factors"]
    combo = {(fx.index_of(p.parts[0]), fy.index_of(p.parts[1])): i
             for i, p in enumerate(product.points)}
    out = []
    for c in range(dx.d + 1):
        for pa in [p for p, col in enumerate(dx.colors) if col == c]:
            for pb in [p for p, col in enumerate(dy.colors) if col == c]:
                pts = {combo[(ix, iy)] for ix in dx.pieces[pa]
                       for iy in dy.pieces[pb] if (ix, iy) in combo}
                if pts:
                    out.append((frozenset(pts), c, (pa, pb)))
    return out


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), l1=st.sampled_from([None, 5.0, 8.0]))
def test_product_decomposition_matches_loop(seed, l1):
    rng = random.Random(seed)
    fx = generate_net("z", {"lo": -6, "hi": 6})
    fy = generate_net("t3", {"radius": 2})
    window = None if l1 is None else {
        "kind": "l1_ball", "radius": l1,
        "centers": [fx.window["basepoint"], fy.window["basepoint"]]}
    product = build_product([fx, fy], window=window)

    def two_cover(sp):
        # colour classes that each cover every point: coverage 2 per point
        pieces, colors = [], []
        for c in (0, 1):
            cut = sorted(rng.sample(range(1, sp.n), min(3, sp.n - 1)))
            order = rng.sample(range(sp.n), sp.n)
            for a, b in zip([0] + cut, cut + [sp.n]):
                pieces.append(frozenset(order[a:b]))
                colors.append(c)
        return ColoredDecomposition(sp, pieces, colors, r=1.0, d=1,
                                    partition=False)

    dx, dy = two_cover(fx), two_cover(fy)
    got = covers.product_decomposition(dx, dy, product)
    expect = loop_product_decomposition(dx, dy, product)
    assert got.pieces == [p for p, _, _ in expect]
    assert got.colors == [c for _, c, _ in expect]
    assert got.provenance["factor_pieces"] == [t for _, _, t in expect]

    # on a subset of the window (an image product) every window piece
    # keeps its id and colour, restricted to the subset, empty or not
    keep = sorted(rng.sample(range(product.n), rng.randint(1, product.n)))
    image = spaces._product_space([fx, fy], product._codes[keep],
                                  product.window | {"image": True})
    sub = covers.product_decomposition(dx, dy, image)
    assert sub.pieces == [frozenset(i for i, j in enumerate(keep) if j in p)
                          for p, _, _ in expect]
    assert sub.colors == got.colors
    assert sub.provenance == got.provenance

"""Output-sized work: oracles for the grid engine's exact column ranges,
Brady–Farb snapping once per distinct projection, the bounded graph
multiplicity, and ``points.csv`` and ``edges.csv`` written from the
arrays in blocks.

The grid engine tests only the columns inside each query disk (drawn for
cosh(r) * (1 + 1e-8)); its results are compared with brute force over
every net point, at radii on the tie band and on query rows off the grid.
``brady_farb`` snaps each distinct (x_i; y) once; it is compared with
``nearest_points`` row by row, and its ``DomainError`` with the first
outside projection in row-major order.  Graph multiplicity stops at the
fixpoint of its ball products; ``points.csv`` is compared with the
object-based writer of ``object_oracles``, and ``edges.csv`` with the CSR
rows written one edge at a time.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import artifacts, covers, spaces
from coarselab.constructions import (_distinct_rows, brady_farb, hd_cover_pipeline,
                                     walk_target)
from coarselab.covers import Cover, r_multiplicity
from coarselab.errors import DomainError, UnsupportedError
from coarselab.spaces import HalfPlane, build_product, generate_net, metric_graph
from object_oracles import point_distance, points_csv_oracle, query_point


def csr_rows(indptr, indices):
    return [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]


def build(window):
    model, radius, sep, kind = window
    w = {"kind": kind, "radius": radius}
    if model == "hd":
        w["d"] = 3
    return generate_net(model, w, sep=sep)


windows = st.one_of(
    st.tuples(st.just("h2"), st.floats(1.5, 4.0), st.sampled_from([0.5, 0.8, 1.0, 1.5]),
              st.just("ball")),
    st.tuples(st.just("hd"), st.floats(1.5, 2.6), st.sampled_from([0.5, 0.7, 1.0]),
              st.sampled_from(["ball", "birad"])),
)


def query_rows(net, rng, m=24):
    """Net points, and net points moved off the grid: half a column (or a
    random fraction of one) sideways in each x-coordinate, half a layer up
    or down, or both, with a few points of the half space at random."""
    xs, ys = net._coords()
    h, w = spaces._grid_steps(net.sep)
    pick = rng.integers(0, net.n, m)
    qx, qy = xs[pick].copy(), ys[pick].copy()
    step = w * qy[:, None]
    shift = rng.choice([0.0, 0.5, -0.5, 1e-9], size=qx.shape)
    frac = rng.random(qx.shape) < 0.25
    shift[frac] = rng.uniform(-1.0, 1.0, frac.sum())
    qx = qx + shift * step
    qy = qy * np.exp(h * rng.choice([0.0, 0.0, 0.5, -0.5, 0.3], size=m))
    wild = rng.random(m) < 0.15
    qx[wild] = rng.uniform(-2.0, 2.0, (wild.sum(), qx.shape[1]))
    qy[wild] = np.exp(rng.uniform(-2.0, 2.0, wild.sum()))
    return qx, qy


def query_distance(net, x, y, c, pts=None) -> float:
    """Distance from the query (x; y) to net point c, the query first."""
    p = net.points[c] if pts is None else pts[c]
    return point_distance(query_point(net.model, x, y), p)


def brute_coords(net, qx, qy, radius):
    radius = np.broadcast_to(np.asarray(radius, dtype=float), (len(qy),))
    pts = list(net.points)
    return [[c for c in range(net.n) if query_distance(net, x, y, c, pts) <= r]
            for x, y, r in zip(qx.tolist(), qy.tolist(), radius.tolist())]


def dense_distances(net):
    i, j = np.divmod(np.arange(net.n * net.n), net.n)
    return net.distances(i, j).reshape(net.n, net.n)


radius_kinds = st.sampled_from(["zero", "2sep", "2sep+", "2sep-", "pair", "pair+",
                                "pair-", "uniform"])


def choose_radius(kind, net, qx, qy, rng, u):
    """A radius of the named kind: 0, exactly 2*sep (the same-layer
    spacing), 2*sep + 1e-12 (the edge radius), or exactly the distance
    from a query row to a net point, or one ulp either side of it."""
    if kind == "zero":
        return 0.0
    if kind.startswith("2sep"):
        return 2.0 * net.sep + {"2sep": 0.0, "2sep+": 1e-12, "2sep-": -1e-12}[kind]
    if kind.startswith("pair"):
        k, c = int(rng.integers(len(qy))), int(rng.integers(net.n))
        d = query_distance(net, qx[k].tolist(), qy[k], c)
        return {"pair": d, "pair+": math.nextafter(d, math.inf),
                "pair-": math.nextafter(d, 0.0)}[kind]
    return u


class TestExactColumns:
    @given(window=windows, seed=st.integers(0, 2**32 - 1), kind=radius_kinds,
           u=st.floats(0.0, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_query_rows_match_brute_force(self, window, seed, kind, u):
        net = build(window)
        rng = np.random.default_rng(seed)
        qx, qy = query_rows(net, rng)
        radius = choose_radius(kind, net, qx, qy, rng, u)
        got = csr_rows(*net.coords_within(qx, qy, radius))
        assert got == brute_coords(net, qx, qy, radius)

    @given(window=windows, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_each_row_at_its_own_tie(self, window, seed):
        # row k's radius is exactly its distance to a chosen point, which
        # must be found; on hd nets the point's x_1 column is often not
        # the row's, so the x_2 chord decides it
        net = build(window)
        rng = np.random.default_rng(seed)
        qx, qy = query_rows(net, rng)
        target = rng.integers(0, net.n, len(qy))
        radius = np.array([query_distance(net, x, y, c) for c, x, y in
                           zip(target.tolist(), qx.tolist(), qy.tolist())])
        got = csr_rows(*net.coords_within(qx, qy, radius))
        assert all(int(c) in row for c, row in zip(target, got))
        assert got == brute_coords(net, qx, qy, radius)

    @given(window=windows, kind=radius_kinds, u=st.floats(0.0, 3.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_net_rows_and_self_join_match_brute_force(self, window, kind, u, seed):
        net = build(window)
        xs, ys = net._coords()
        radius = choose_radius(kind, net, xs, ys, np.random.default_rng(seed), u)
        near = dense_distances(net) <= radius
        assert csr_rows(*net.neighbors(range(net.n), radius)) == \
            [np.flatnonzero(row).tolist() for row in near]
        pairs = sorted((int(a), int(b)) for block in net.pair_blocks(radius)
                       for a, b in zip(*block))
        i, j = np.nonzero(np.triu(near, 1))
        assert pairs == list(zip(i.tolist(), j.tolist()))

    @pytest.mark.parametrize("model, window, sep, thr", [
        ("hd", {"kind": "birad", "radius": 7.0, "d": 3}, 0.35, 0.7),
        ("h2", {"kind": "ball", "radius": 11.0}, 0.8, 1.6),
    ])
    def test_self_join_tests_about_its_output(self, monkeypatch, model, window,
                                              sep, thr):
        # each tested candidate passes through _within once
        net = generate_net(model, window, sep=sep, edge_threshold=thr)
        tested = [0]
        within = spaces._within

        def counting(t, radius, exact_t=None):
            tested[0] += len(t)
            return within(t, radius, exact_t)

        monkeypatch.setattr(spaces, "_within", counting)
        found = sum(len(a) for a, _ in net.pair_blocks(thr + 1e-12))
        assert found == len(net.indices) // 2
        assert tested[0] <= 1.1 * found


# ---------------------------------------------------------------------------
# Brady–Farb snapping


def factor_net(radius=4.0):
    return generate_net("h2", {"kind": "ball", "radius": radius}, sep=1.0)


def tie_projections(f, rng, m):
    """m projections (x; y) inside the factor window, drawn from: the
    factor's points, midpoints of same-layer neighbours and the heights
    halfway between layers on the axis x = 0 (exact ties of two factor
    points), signed zeros, and points at random."""
    xs, ys = f._coords()
    x, y = xs[:, 0], ys
    order = np.lexsort((x, y))
    a, b = order[:-1], order[1:]
    same = y[a] == y[b]
    mids_x = (x[a][same] + x[b][same]) / 2.0
    mids_y = y[a][same]
    axis = np.unique(y[x == 0.0])
    vert_y = np.sqrt(axis[:-1] * axis[1:])
    pool_x = np.concatenate([x, mids_x, np.zeros(len(vert_y)), -np.zeros(3),
                             rng.uniform(-1.5, 1.5, 20)])
    pool_y = np.concatenate([y, mids_y, vert_y, np.ones(3),
                             np.exp(rng.uniform(-1.5, 1.5, 20))])
    pick = rng.integers(0, len(pool_x), m)
    return pool_x[pick], pool_y[pick]


def crafted_source(monkeypatch, columns, ys):
    """An hd source net whose projections are the given (x_i; y) rows."""
    source = generate_net("hd", {"kind": "birad", "radius": 4.0, "d": 3}, sep=0.5)
    xs = np.column_stack(columns)
    assert xs.shape == (source.n, 2) and len(ys) == source.n
    monkeypatch.setattr(source, "_coords", lambda: (xs, ys))
    return source


class TestGroupedSnapping:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_matches_nearest_points_row_by_row(self, seed):
        with pytest.MonkeyPatch.context() as mp:
            f = factor_net()
            rng = np.random.default_rng(seed)
            n = generate_net("hd", {"kind": "birad", "radius": 4.0, "d": 3}, sep=0.5).n
            # few distinct projections, each met by many rows; the second
            # factor takes the x of a projection of the same height
            x1, ys = tie_projections(f, rng, 40)
            x2 = x1[[rng.choice(np.flatnonzero(ys == v)) for v in ys]]
            pick = rng.integers(0, 40, n)
            source = crafted_source(mp, [x1[pick], x2[pick]], ys[pick])
            emb = brady_farb(source, [f, f])
            snapped = emb.target._codes[emb.assignment]
            xs, qy = source._coords()
            for i in range(2):
                want = [int(f.nearest_points(xs[k:k + 1, i:i + 1], qy[k:k + 1])[0])
                        for k in range(source.n)]
                assert snapped[:, i].tolist() == want

    def test_pipeline_source_has_few_projections(self):
        source = generate_net("hd", {"kind": "birad", "radius": 7.0, "d": 3},
                              sep=0.35, edge_threshold=0.7)
        xs, ys = source._coords()
        for i in range(2):
            rep, inv = _distinct_rows(xs[:, i], ys)
            assert len(rep) == len(set(zip(xs[:, i].tolist(), ys.tolist())))
            assert (xs[rep[inv], i] == xs[:, i]).all() and (ys[rep[inv]] == ys).all()
            assert len(rep) * 20 < source.n

    def test_signed_zeros_share_a_snap(self):
        rep, inv = _distinct_rows(np.array([0.0, -0.0, 1.0, 0.0]),
                                  np.array([1.0, 1.0, 1.0, 2.0]))
        assert inv[0] == inv[1] and len(rep) == 3

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_domain_error_names_the_first_outside_projection(self, seed):
        # factor 0 has radius 4, factor 1 radius 3: each row is outside
        # one factor, both or neither; the error names the first (row,
        # factor) in row-major order, as a row-by-row scan finds it
        with pytest.MonkeyPatch.context() as mp:
            fs = [factor_net(4.0), factor_net(3.0)]
            rng = np.random.default_rng(seed)
            n = generate_net("hd", {"kind": "birad", "radius": 4.0, "d": 3}, sep=0.5).n
            pool_x = rng.uniform(-60.0, 60.0, 12) * (rng.random(12) < 0.5)
            pool_y = np.exp(rng.uniform(-5.0, 5.0, 12))
            p1, p2 = rng.integers(0, 12, n), rng.integers(0, 12, n)
            # most rows sit at (0; 1), inside both windows
            inside = rng.random(n) < 0.9
            x1 = np.where(inside, 0.0, pool_x[p1])
            x2 = np.where(inside, 0.0, pool_x[p2])
            ys = np.where(inside, 1.0, pool_y[p1])
            source = crafted_source(mp, [x1, x2], ys)
            first = next(((k, i) for k in range(n) for i in range(2)
                          if self._outside(fs[i], [x1, x2][i][k], ys[k])), None)
            if first is None:
                brady_farb(source, fs)
                return
            k, i = first
            want = (f"projection ({float([x1, x2][i][k]):.3f}; {float(ys[k]):.3f})"
                    f" falls outside a radius-{fs[i].window['radius']} factor window")
            with pytest.raises(DomainError, match=re.escape(want) + "$"):
                brady_farb(source, fs)

    @staticmethod
    def _outside(f, x, y):
        base = f.points[f.window["basepoint"]]
        return not point_distance(HalfPlane(float(x), float(y)), base) <= \
            f.window["radius"] + f.sep


# ---------------------------------------------------------------------------
# graph multiplicity


class TestBoundedMultiplicity:
    def _counted(self, monkeypatch):
        calls = [0]
        product = covers._pattern_product

        def counting(a, b):
            calls[0] += 1
            return product(a, b)

        monkeypatch.setattr(covers, "_pattern_product", counting)
        return calls

    @pytest.mark.parametrize("space, diameter", [
        (lambda: generate_net("z", {"lo": -5, "hi": 5}), 10),
        (lambda: generate_net("t3", {"radius": 4}), 8),
        (lambda: metric_graph(7, [(0, 1), (1, 2), (4, 5)]), 2),
    ])
    def test_large_radii_reach_the_fixpoint(self, monkeypatch, space, diameter):
        sp = space()
        rng = np.random.default_rng(1)
        cov = Cover(sp, [np.flatnonzero(rng.random(sp.n) < 0.3).tolist() or [0]
                         for _ in range(6)] + [list(range(sp.n))])
        small = [r_multiplicity(cov, R) for R in range(diameter + 2)]
        calls = self._counted(monkeypatch)
        for R in (diameter, diameter + 1, sp.n - 1, sp.n + 5, 3000, 1e12):
            calls[0] = 0
            assert r_multiplicity(cov, R) == small[diameter]
            # products stop one past the fixpoint, and never pass n - 1
            assert calls[0] <= min(diameter + 1, sp.n - 1)

    def test_singletons_on_a_path(self, monkeypatch):
        z = generate_net("z", {"lo": -5, "hi": 5})
        cov = Cover(z, [[i] for i in range(z.n)])
        assert [r_multiplicity(cov, R)[0] for R in range(12)] == \
            [1, 3, 5, 7, 9, 11, 11, 11, 11, 11, 11, 11]
        calls = self._counted(monkeypatch)
        assert r_multiplicity(cov, 3000) == (11, 0)
        assert calls[0] <= 10

    @pytest.mark.parametrize("R", [math.inf, -math.inf, math.nan])
    def test_non_finite_radius_refused_before_any_work(self, monkeypatch, R):
        z = generate_net("z", {"lo": 0, "hi": 4})
        cov = Cover(z, [range(z.n)])

        def no_work(*a, **k):
            raise AssertionError("work started before the radius check")

        monkeypatch.setattr(covers.PieceView, "inverse", no_work)
        for metric in ("graph", "model"):
            with pytest.raises(UnsupportedError, match="finite"):
                r_multiplicity(cov, R, metric=metric)


# ---------------------------------------------------------------------------
# points.csv


def _spaces():
    h2 = generate_net("h2", {"kind": "ball", "radius": 3.0}, sep=1.0)
    t3 = generate_net("t3", {"radius": 4})
    z = generate_net("z", {"lo": -7, "hi": 9})
    return {
        "h2": h2,
        "hd": generate_net("hd", {"kind": "ball", "radius": 2.0, "d": 3}, sep=0.5),
        "hd-birad": generate_net("hd", {"kind": "birad", "radius": 2.5, "d": 3},
                                 sep=0.4),
        "t3": t3,
        "z": z,
        "comb": generate_net("comb", {"d": 3, "extent": 4}),
        "walk": walk_target(5),
        "metric": metric_graph(4, [(0, 1), (1, 2)]),
        "product": build_product([h2, t3]),
        "product-window": build_product([h2, z], window={
            "kind": "l1_ball", "radius": 4.0, "centers": [h2.window["basepoint"], 7]}),
        "nested": build_product([build_product([h2, z]), t3]),
        "image": hd_cover_pipeline(3, 4.0, 1.0)["product"],
    }


@pytest.mark.parametrize("block", [None, 7])
def test_csv_files_match_the_row_by_row_writers(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(artifacts, "_VIEW_BLOCK", block)
    for name, sp in _spaces().items():
        assert artifacts.points_csv(sp) == points_csv_oracle(sp), name
        ends = sp.indptr.tolist()
        edges = "".join(f"{i},{j}\n" for i in range(sp.n)
                        for j in sp.indices[ends[i]:ends[i + 1]].tolist() if j > i)
        assert artifacts.edges_csv(sp) == "a,b\n" + edges, name

from __future__ import annotations

import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import spaces
from coarselab.errors import EmptySpaceError, PreconditionError, SizeCapError
from coarselab.spaces import (CombNode, HalfPlane, TreeAddress, TuplePoint,
                              ZPoint, ball, build_product, generate_net,
                              growth_report)
from object_oracles import greedy_select_oracle, point_distance

# arcosh(1.5) evaluated independently with 60-digit decimal arithmetic
ARCOSH_1_5 = 0.9624236501192069


class TestHalfPlaneDistance:
    def test_vertical_geodesic(self):
        assert point_distance(HalfPlane(0, 1), HalfPlane(0, math.e)) == pytest.approx(1.0, abs=1e-12)

    def test_unit_horizontal(self):
        d = point_distance(HalfPlane(0, 1), HalfPlane(1, 1))
        assert d == pytest.approx(ARCOSH_1_5, abs=1e-12)

    def test_identity(self):
        assert point_distance(HalfPlane(0.3, 2.0), HalfPlane(0.3, 2.0)) == 0.0

    @given(st.tuples(st.floats(-5, 5), st.floats(0.1, 10),
                     st.floats(-5, 5), st.floats(0.1, 10)))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, q):
        x1, y1, x2, y2 = q
        p, r = HalfPlane(x1, y1), HalfPlane(x2, y2)
        assert point_distance(p, r) == pytest.approx(point_distance(r, p), abs=1e-12)

    @given(st.lists(st.tuples(st.floats(-4, 4), st.floats(0.2, 5)),
                    min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, pts):
        a, b, c = (HalfPlane(x, y) for x, y in pts)
        assert point_distance(a, c) <= \
            point_distance(a, b) + point_distance(b, c) + 1e-9

    def test_y_must_be_positive(self):
        with pytest.raises(ValueError):
            HalfPlane(0.0, -1.0)


class TestModelDistanceIndexing:
    def test_index_error(self):
        z = generate_net("z", {"lo": 0, "hi": 3})
        with pytest.raises(IndexError):
            z.model_distance(0, 99)


class TestTreeAndComb:
    def test_tree_words_reduced(self):
        with pytest.raises(ValueError):
            TreeAddress((0, 0))

    @given(st.lists(st.integers(0, 3), max_size=8).map(tuple))
    @settings(max_examples=200, deadline=None)
    def test_tree_word_check_matches_letter_loop(self, w):
        expected = None
        for i, a in enumerate(w):
            if a not in (0, 1, 2):
                expected = f"tree letters must be 0/1/2, got {a}"
                break
            if i and a == w[i - 1]:
                expected = f"word not reduced at position {i}: {w}"
                break
        if expected is None:
            assert TreeAddress(w).word == w
        else:
            with pytest.raises(ValueError) as err:
                TreeAddress(w)
            assert str(err.value) == expected

    def test_word_distance(self):
        assert point_distance(TreeAddress((0, 1)), TreeAddress((0, 2))) == 2.0
        assert point_distance(TreeAddress(()), TreeAddress((1, 0, 1))) == 3.0

    def test_comb_distance_same_hair(self):
        a = CombNode(3, (2, 3))
        b = CombNode(3, (2, 5))
        assert point_distance(a, b) == 2.0

    def test_comb_distance_across_base(self):
        a = CombNode(-1, (2,))
        b = CombNode(2, (1, 4))
        assert point_distance(a, b) == 2 + 3 + 5

    def test_comb_divergent_offsets(self):
        a = CombNode(0, (2, 3))
        b = CombNode(0, (4,))
        # down 3 to the first hair, along it 2, done
        assert point_distance(a, b) == 3 + 2


class TestGenerateNet:
    def test_z_window_is_path(self):
        z = generate_net("z", {"lo": -5, "hi": 5})
        assert z.n == 11
        assert z.degree_bound == 2
        assert all(len(a) == 2 for a in z.adj[1:-1])

    def test_empty_z_window(self):
        with pytest.raises(EmptySpaceError):
            generate_net("z", {"lo": 3, "hi": 1})

    def test_t3_counts_match_bfs_oracle(self):
        # oracle: enumerate reduced words over {0,1,2} breadth-first
        for n in range(1, 7):
            seen = {()}
            frontier = [()]
            for _ in range(n):
                nxt = []
                for w in frontier:
                    for a in (0, 1, 2):
                        if not w or a != w[-1]:
                            nxt.append(w + (a,))
                seen.update(nxt)
                frontier = nxt
            t = generate_net("t3", {"radius": n})
            assert t.n == len(seen) == 3 * 2 ** n - 2
            assert t.degree_bound == 3

    def test_h2_point_count_against_area(self):
        """Count must sit within factor 4 of cosh(R)-1 at R=8, cross-checked
        against a per-point area bound measured at small radius."""
        small = generate_net("h2", {"kind": "ball", "radius": 4.0}, sep=1.0)
        area4 = 2 * math.pi * (math.cosh(4.0) - 1.0)
        per_point = area4 / small.n
        net = generate_net("h2", {"kind": "ball", "radius": 8.0}, sep=1.0)
        area8 = 2 * math.pi * (math.cosh(8.0) - 1.0)
        predicted = area8 / per_point
        assert predicted / 2.5 <= net.n <= predicted * 2.5
        target = math.cosh(8.0) - 1.0
        assert target / 4 <= net.n <= target * 4

    def test_h2_pairwise_separation_exhaustive(self):
        net = generate_net("h2", {"kind": "ball", "radius": 5.0}, sep=1.0)
        d = net.distances(*np.divmod(np.arange(net.n * net.n), net.n))
        off_diag = d + 10.0 * (d == 0.0)
        assert off_diag.min() >= 1.0 - 1e-9

    def test_hd_pairwise_separation_exhaustive(self):
        net = generate_net("hd", {"kind": "birad", "radius": 4.0, "d": 3},
                           sep=0.5, edge_threshold=1.0)
        d = net.distances(*np.divmod(np.arange(net.n * net.n), net.n))
        off_diag = d + 10.0 * (d == 0.0)
        assert off_diag.min() >= 0.5 - 1e-9

    def test_h2_greedy_guard_is_noop(self):
        a = generate_net("h2", {"kind": "ball", "radius": 4.0}, sep=1.0)
        b = generate_net("h2", {"kind": "ball", "radius": 4.0, "greedy_check": True},
                         sep=1.0)
        assert list(map(repr, a.points)) == list(map(repr, b.points))

    def test_h2_greedy_guard_rejects_a_stream_it_would_thin(self, monkeypatch):
        # columns a third as wide put neighbours of a layer within sep
        monkeypatch.setattr(spaces, "_X_STEP_SCALE", 1.0 / 3.0)
        window = {"kind": "ball", "radius": 3.0}
        net = generate_net("h2", window, sep=1.0)
        pts = list(net.points)
        kept = spaces._greedy_select(net.n, 1.0, net.distances)
        assert kept.tolist() == greedy_select_oracle(pts, 1.0)
        assert len(kept) < len(pts)
        first = next(i for i in range(len(pts))
                     if i == len(kept) or kept[i] != i)
        with pytest.raises(PreconditionError) as err:
            generate_net("h2", {**window, "greedy_check": True}, sep=1.0)
        assert err.value.witness == first
        assert f"net point {first} ({pts[first]})" in str(err.value)

    def test_h2_threshold_precondition(self):
        with pytest.raises(PreconditionError):
            generate_net("h2", {"kind": "ball", "radius": 4.0}, sep=1.0,
                         edge_threshold=1.5)

    def test_edges_characterised_by_threshold(self):
        net = generate_net("h2", {"kind": "ball", "radius": 4.0}, sep=1.0)
        thr = net.edge_threshold
        for i in range(net.n):
            nbrs = set(net.adj[i])
            for j in range(net.n):
                if i == j:
                    continue
                close = net.model_distance(i, j) <= thr + 1e-12
                assert (j in nbrs) == close

    def test_h2_net_quasi_isometric_to_model(self):
        net = generate_net("h2", {"kind": "ball", "radius": 8.0}, sep=1.0)
        base = net.window["basepoint"]
        g = net.graph_distances(base)
        interior = [i for i in range(net.n)
                    if net.margins()[i] > net.edge_threshold and g[i] > 0]
        assert interior
        ratios = [net.model_distance(base, i) / g[i] for i in interior]
        assert min(ratios) > 0.3
        assert max(ratios) <= net.edge_threshold + 1e-9


class TestBall:
    def test_radius_zero(self):
        z = generate_net("z", {"lo": -5, "hi": 5})
        pts, trunc = ball(z, 5, 0)
        assert pts == frozenset({5})
        assert not trunc

    def test_line_ball_counts(self):
        comb1 = generate_net("comb", {"d": 1, "extent": 12})
        c = comb1.index_of(CombNode(0))
        for n in range(1, 6):
            pts, trunc = ball(comb1, c, n)
            assert len(pts) == 2 * n + 1
            assert not trunc

    def test_c2_ball_matches_brute_bfs(self):
        comb2 = generate_net("comb", {"d": 2, "extent": 8})
        origin = comb2.index_of(CombNode(0))
        # independent BFS over the adjacency lists
        dist = {origin: 0}
        dq = deque([origin])
        while dq:
            v = dq.popleft()
            for w in comb2.adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    dq.append(w)
        for n in range(5):
            expect = sum(1 for d in dist.values() if d <= n)
            got, _ = ball(comb2, origin, n)
            assert len(got) == expect

    def test_monotone_and_nested(self):
        t = generate_net("t3", {"radius": 5})
        prev = frozenset()
        for n in range(5):
            cur, _ = ball(t, 0, n)
            assert prev <= cur
            prev = cur

    def test_negative_radius(self):
        z = generate_net("z", {"lo": 0, "hi": 4})
        with pytest.raises(ValueError):
            ball(z, 0, -1)


class TestProduct:
    def test_single_factor_isomorphic(self):
        z = generate_net("z", {"lo": -3, "hi": 3})
        p = build_product([z])
        assert p.n == z.n
        assert p.adj == list(z.adj)

    def test_l1_ball_counts(self):
        z = generate_net("z", {"lo": -12, "hi": 12})
        p = build_product([z, z])
        origin = p.index_of(TuplePoint((ZPoint(0), ZPoint(0))))
        rep = growth_report(p, origin, r_max=6)
        for n, c in zip(rep.radii, rep.counts):
            assert c == 2 * n * n + 2 * n + 1

    def test_product_distance_is_exact_sum(self):
        z = generate_net("z", {"lo": -4, "hi": 4})
        t = generate_net("t3", {"radius": 3})
        p = build_product([t, z])
        for i in range(0, p.n, 17):
            for j in range(0, p.n, 29):
                pi, pj = p.points[i], p.points[j]
                expect = sum(point_distance(a, b)
                             for a, b in zip(pi.parts, pj.parts))
                assert p.model_distance(i, j) == pytest.approx(expect)

    def test_t3_x_z_ball_matches_bfs_oracle(self):
        t = generate_net("t3", {"radius": 4})
        z = generate_net("z", {"lo": -4, "hi": 4})
        p = build_product([t, z])
        origin = p.index_of(TuplePoint((TreeAddress(()), ZPoint(0))))
        # oracle BFS over an adjacency map built directly from tuples
        adj = {}
        for idx in range(p.n):
            adj[idx] = set(p.adj[idx])
        dist = {origin: 0}
        dq = deque([origin])
        while dq:
            v = dq.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    dq.append(w)
        rep = growth_report(p, origin, r_max=4)
        for n, c in zip(rep.radii, rep.counts):
            assert c == sum(1 for d in dist.values() if d <= n)

    def test_size_cap(self):
        z = generate_net("z", {"lo": -40, "hi": 40})
        with pytest.raises(SizeCapError):
            build_product([z, z, z], cap=10_000)

    def test_comb_cap_fires_before_allocation(self):
        # (2e+1) * (1 + e + e^2 + e^3) = 5,316,921 nodes at d=4, e=40
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError, match="5316921"):
                generate_net("comb", {"d": 4, "extent": 40})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert generate_net("comb", {"d": 3, "extent": 3, "cap": 91}).n == 91
        with pytest.raises(SizeCapError):
            generate_net("comb", {"d": 3, "extent": 3, "cap": 90})


    def test_halfspace_cap_fires_before_allocation(self):
        tracemalloc.start()
        try:
            for window in ({"kind": "ball", "radius": 30.0, "d": 2},
                           {"kind": "ball", "radius": 30.0, "d": 3},
                           {"kind": "birad", "radius": 30.0, "d": 3}):
                model = "h2" if window["d"] == 2 else "hd"
                with pytest.raises(SizeCapError, match="2000000"):
                    generate_net(model, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the count holds one layer's column arrays at a time, never points
        # (2M capped points would take hundreds of MB)
        assert peak < 2**23
        with pytest.raises(SizeCapError, match="overflows"):
            generate_net("h2", {"kind": "ball", "radius": 1000.0})

    @pytest.mark.parametrize("model,window,sep", [
        ("h2", {"kind": "ball", "radius": 4.0}, 0.8),
        ("hd", {"kind": "ball", "radius": 3.0, "d": 3}, 0.5),
        ("hd", {"kind": "birad", "radius": 3.0, "d": 3}, 0.5)])
    def test_halfspace_cap_counts_the_window_exactly(self, model, window, sep):
        n = generate_net(model, window, sep=sep).n
        assert generate_net(model, {**window, "cap": n}, sep=sep).n == n
        with pytest.raises(SizeCapError):
            generate_net(model, {**window, "cap": n - 1}, sep=sep)


class TestGrowthReport:
    def test_counts_monotone(self, net10):
        rep = growth_report(net10, net10.window["basepoint"], r_max=8)
        assert rep.counts[0] >= 1
        assert all(a <= b for a, b in zip(rep.counts, rep.counts[1:]))

    def test_truncation_cumulative(self, net10):
        rep = growth_report(net10, net10.window["basepoint"])
        seen_true = False
        for t in rep.truncated:
            seen_true = seen_true or t
            assert t == seen_true or not seen_true

    def test_truncation_stays_flagged_after_frontier_leaves_boundary(self):
        # from a hair tip the frontier walks inward: only radii 0 and 1 sit
        # within the edge threshold of the window, later radii stay flagged
        comb = generate_net("comb", {"d": 2, "extent": 6})
        tip = comb.index_of(CombNode(0, (6,)))
        rep = growth_report(comb, tip, r_max=5)
        assert [comb.margins()[tip], rep.counts[:3]] == [0.0, [1, 2, 3]]
        assert rep.truncated == [True] * 6

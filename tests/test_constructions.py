from __future__ import annotations

import math
import re
from collections import deque

import pytest

from coarselab import analysis
from coarselab.constructions import (GeodesicComb, MapRecord, assign_tile,
                                     brady_farb, build_comb, build_h2_tiling,
                                     comb_level_bound, comb_level_points,
                                     hd_cover_pipeline, nerve_lipschitz,
                                     nerve_map, tree_walk, walk_value)
from coarselab.covers import Cover, check_disjointness
from coarselab.errors import ArityError, DomainError
from coarselab.spaces import CombNode, ZPoint, generate_net, metric_graph
from object_oracles import adjacency, point_distance
from test_walk_arrays import _binary_walk, _spine_word

SINH_1 = 1.1752011936438014
SINH_3 = 10.017874927409903
COTH2_2 = 1.0760218298380708  # independent closed form for the r=1 dilation


class TestTiling:
    def test_lambda_values(self):
        t = build_h2_tiling(1.0, {"radius": 4.0})
        assert t.lambdas[1] == pytest.approx(SINH_1, abs=1e-12)
        assert t.lambdas[3] == pytest.approx(SINH_3, abs=1e-12)
        assert t.lambdas[0] == 0.0

    def test_dilation_matches_closed_form(self):
        # bisection output vs the tangency solved in closed form
        t = build_h2_tiling(1.0, {"radius": 4.0})
        assert t.dilation == pytest.approx(COTH2_2, abs=1e-10)

    def test_tangency_residual(self):
        for r in (0.5, 1.0, 2.0):
            t = build_h2_tiling(r, {"radius": 4.0})
            c, rho = t.circle0
            # distance from the circle center to the slope line equals rho
            lam4 = t.lambdas[4]
            dist = c / math.sqrt(1.0 + lam4 * lam4)
            assert dist == pytest.approx(rho, rel=1e-9)

    def test_wedge_contains_mid_band(self):
        # the wedge tile contains the r-neighbourhood of the slope-sinh(2r)
        # ray: points at axis distance within (r, 3r) must classify as A
        t = build_h2_tiling(1.0, {"radius": 6.0})
        for u in (1.05, 1.5, 2.0, 2.5, 2.95):
            for y in (0.2, 1.0, 3.0):
                x = math.sinh(u) * y
                tid = assign_tile(t, x, y)
                assert tid[0] == "A", (u, y, tid)

    def test_prototype_regions_disjoint(self):
        t = build_h2_tiling(1.0, {"radius": 6.0})
        # sampled points each land in exactly one tile id (total function)
        import random

        rng = random.Random(5)
        for _ in range(300):
            x = rng.uniform(-20, 20)
            y = rng.uniform(0.05, 5.0)
            tid = assign_tile(t, x, y)
            assert tid[0] in ("A", "B", "B1m")

    def test_top_level_tile_count_matches_log_recursion(self):
        # depth-1 tiles come in (A, B) pairs, one pair per top-level
        # half-disk wide enough for the resolution and meeting the window
        r = 1.0
        window = {"radius": 3.0, "resolution": 0.01}
        t = build_h2_tiling(r, window)
        x = t.dilation
        rho0 = (x - 1.0) / 2.0
        ball_c, ball_r = math.cosh(3.0), math.sinh(3.0)
        expected = 0
        n = -2000
        lo = math.ceil(math.log(0.01 / rho0) / math.log(x)) - 1
        hi = math.floor(math.log(math.sinh(3.0) * 1.05 + 2.0) / math.log(x)) + 1
        for n in range(int(lo), int(hi) + 1):
            rho = rho0 * x ** n
            if 2 * rho < 0.01:
                continue
            c = (1.0 + x) / 2.0 * x ** n
            if math.hypot(c, ball_c) <= rho + ball_r + 0.01:
                expected += 1
        depth1 = [tile for tile in t.tiles if tile.depth == 1]
        assert len(depth1) == 2 * 2 * expected  # (A,B) x mirrored

    def test_tiles_have_unit_determinant(self):
        t = build_h2_tiling(1.0, {"radius": 4.0})
        for tile in t.tiles:
            (a, b), (c, d) = tile.matrix
            assert a * d - b * c == pytest.approx(1.0, abs=1e-9)

    def test_decomposition_is_partition(self, decomp10, net10):
        assert sum(len(p) for p in decomp10.pieces) == net10.n
        assert decomp10.partition

    def test_decomposition_colours(self, decomp10):
        assert set(decomp10.colors) <= {0, 1}
        assert decomp10.d == 1


class TestTreeWalk:
    def test_closed_walk_lengths(self):
        for k in (1, 2, 3):
            walk = _binary_walk(_spine_word(0) + (2,), k)
            assert len(walk) - 1 == 4 * (2 ** k - 1)

    def test_walk_starts_at_zero_root(self):
        w = tree_walk(3)
        assert w.target.points[walk_value(w, 0)].word == (2,)

    def test_consecutive_images_adjacent(self):
        w = tree_walk(5)
        lo, hi = w.provenance["domain"]
        for b in range(lo, hi):
            d = w.target.model_distance(walk_value(w, b), walk_value(w, b + 1))
            assert d == 1.0

    def test_fiber_bound(self):
        w = tree_walk(6)
        assert w.measured_max_fiber <= 3
        # the bound is attained at binary-tree roots
        assert w.measured_max_fiber == 3

    def test_spine_fully_traversed(self):
        w = tree_walk(4)
        spine = w.target.window["spine"]
        visited = set(w.assignment)
        for k in range(-4, 5):
            assert spine[k] in visited

    def test_distance_bound_small_window(self):
        w = tree_walk(8)
        lo, hi = w.provenance["domain"]
        i0 = walk_value(w, 0)
        for b in range(lo, hi + 1):
            d = w.target.model_distance(i0, walk_value(w, b))
            assert d <= 2.0 * math.log2(1.0 + abs(b)) + 6.0

    def test_anchored_log_fit(self):
        w = tree_walk(8)
        prof = analysis.distortion_profile(
            w, anchored=w.source.index_of(ZPoint(0)))
        assert prof.log_fit_ok
        # envelope in log2 terms: d <= C*log2(1+|b|) + C
        import numpy as np

        ds, dt = prof.samples
        c_env = float(np.max(dt / (np.log2(1.0 + ds) + 1.0)))
        assert c_env <= 4.0


class TestComb:
    def test_d1_is_path(self):
        c = build_comb(1, 7)
        assert c.n == 2 * 7 + 1
        assert c.degree_bound == 2

    def test_c2_ball_formula(self):
        c = build_comb(2, 12)
        origin = c.index_of(CombNode(0))
        from coarselab.spaces import growth_report

        rep = growth_report(c, origin, r_max=6)
        for n, cnt in zip(rep.radii, rep.counts):
            assert cnt == (n + 1) ** 2

    def test_c3_counts_match_independent_bfs(self):
        c = build_comb(3, 12)
        origin = c.index_of(CombNode(0))
        adj = adjacency(c)
        dist = {origin: 0}
        dq = deque([origin])
        while dq:
            v = dq.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    dq.append(w)
        from coarselab.spaces import growth_report

        rep = growth_report(c, origin, r_max=6)
        for n, cnt in zip(rep.radii, rep.counts):
            assert cnt == sum(1 for d in dist.values() if d <= n)

    def test_c3_growth_exponent(self):
        c = build_comb(3, 30)
        origin = c.index_of(CombNode(0))
        from coarselab.spaces import growth_report

        rep = growth_report(c, origin, r_max=15)
        exp, _ = analysis.fit_growth(rep, r_min=5)
        assert 2.6 <= exp <= 3.4

    def test_hair_attachment_rule(self):
        # generation-2 hairs exist only off hair vertices, never off roots
        c = build_comb(3, 4)
        for p in c.points:
            if p.level == 2:
                assert p.offsets[0] >= 1


class TestBradyFarb:
    def test_d2_is_identity_shaped(self):
        net = generate_net("h2", {"kind": "ball", "radius": 4.0}, sep=1.0)
        rec = brady_farb(net, [net])
        assert rec.assignment == list(range(net.n))
        assert rec.measured_max_fiber == 1

    def test_symmetric_point(self, hd3_artifacts):
        emb = hd3_artifacts["map"]
        src = emb.source
        base = src.window["basepoint"]
        p = src.points[base]
        assert p.xs == (0.0, 0.0)
        img = emb.target.points[emb.assignment[base]]
        a, b = img.parts
        assert (a.x, a.y) == (b.x, b.y)

    def test_sampled_distortion_bounded(self, hd3_artifacts):
        emb = hd3_artifacts["map"]
        prof = analysis.distortion_profile(emb, pair_cap=4000, seed=3)
        L, D = prof.fitted_affine
        assert 0.5 <= L <= 4.0
        assert abs(D) <= 8.0
        # multiplicative two-sided control on distant pairs
        import numpy as np

        ds, dt = prof.samples
        far = ds > 4.0
        assert far.any()
        ratio = dt[far] / ds[far]
        assert ratio.max() <= 6.0
        assert ratio.min() >= 0.3

    def test_wrong_factor_count(self):
        net = generate_net("hd", {"kind": "birad", "radius": 3.0, "d": 3},
                           sep=0.5, edge_threshold=1.0)
        f = generate_net("h2", {"kind": "ball", "radius": 4.0}, sep=1.0)
        with pytest.raises(ArityError):
            brady_farb(net, [f])

    def test_projection_outside_factor_window(self):
        src = generate_net("h2", {"kind": "ball", "radius": 6.0}, sep=1.0)
        small = generate_net("h2", {"kind": "ball", "radius": 3.0}, sep=1.0)
        # the error names the first source point, in index order, whose
        # projection lies farther than radius + sep from the factor's base
        base = small.points[small.window["basepoint"]]
        first = next(p for p in src.points
                     if point_distance(p, base) > 3.0 + small.sep)
        with pytest.raises(DomainError,
                           match=re.escape(f"({first.x:.3f}; {first.y:.3f})")):
            brady_farb(src, [small])


class TestHdCover:
    def test_d2_reduces_to_tiling(self):
        dec = hd_cover_pipeline(2, 5.0, 1.0, factor_sep=1.0)["decomposition"]
        assert dec.d == 1
        assert dec.partition
        assert check_disjointness(dec) == []

    def test_d3_colour_count(self, hd3_artifacts):
        dec = hd3_artifacts["decomposition"]
        assert dec.d + 1 <= 3
        assert int(dec.coverage_counts().min()) >= 1


class TestNerve:
    def _two_piece_cover(self):
        z = generate_net("z", {"lo": -6, "hi": 6})
        left = frozenset(i for i, p in enumerate(z.points) if p.n <= 1)
        right = frozenset(i for i, p in enumerate(z.points) if p.n >= -1)
        return z, Cover(z, [left, right])

    def test_interior_point_has_unit_coordinate(self):
        z, cov = self._two_piece_cover()
        nerve = nerve_map(z, cov)
        deep = z.index_of(ZPoint(-6))
        assert nerve.coordinates[deep] == {0: 1.0}

    def test_symmetric_point_splits_evenly(self):
        z, cov = self._two_piece_cover()
        nerve = nerve_map(z, cov)
        mid = z.index_of(ZPoint(0))
        assert nerve.coordinates[mid][0] == pytest.approx(0.5)
        assert nerve.coordinates[mid][1] == pytest.approx(0.5)

    def test_simplices_and_dimension(self):
        z, cov = self._two_piece_cover()
        nerve = nerve_map(z, cov)
        assert frozenset({0, 1}) in nerve.simplices
        assert nerve.dimension == 1

    def test_coordinates_sum_to_one_exhaustive(self, decomp10, net10):
        # restrict to a small z cover for the exhaustive check; the large
        # window case runs in the acceptance suite
        z, cov = self._two_piece_cover()
        nerve = nerve_map(z, cov)
        for i in range(z.n):
            assert sum(nerve.coordinates[i].values()) == pytest.approx(1.0)
            support = {pid for pid, pc in enumerate(cov.pieces) if i in pc}
            assert set(nerve.coordinates[i]) == support

    def test_lipschitz_finite(self):
        z, cov = self._two_piece_cover()
        nerve = nerve_map(z, cov)
        assert 0.0 < nerve_lipschitz(z, nerve) < 2.0

    def test_piece_holding_a_whole_component_weighs_one(self):
        # pieces 0 and 1 are the two components: no point outside them is
        # reachable, so their numerators are 1, as on a whole-space piece
        g = metric_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        nerve = nerve_map(g, Cover(g, [[0, 1, 2], [3, 4, 5], [2, 3]]))
        assert nerve.coordinates == [{0: 1.0}, {0: 1.0}, {0: 0.5, 2: 0.5},
                                     {1: 0.5, 2: 0.5}, {1: 1.0}, {1: 1.0}]
        assert nerve.dimension == 1

    def test_singletons_of_an_edgeless_net(self):
        t3 = generate_net("t3", {"radius": 2}, edge_threshold=0.5)
        nerve = nerve_map(t3, Cover(t3, [[i] for i in range(t3.n)]))
        assert nerve.coordinates == [{i: 1.0} for i in range(t3.n)]
        assert nerve_lipschitz(t3, nerve) == 0.0

    def test_whole_space_piece_weighs_one(self):
        # the whole space has no boundary entries: its numerators are 1
        z = generate_net("z", {"lo": -5, "hi": 5})
        nerve = nerve_map(z, Cover(z, [list(range(z.n)), [0, 1]]))
        assert nerve.coordinates[:3] == [{0: 1 / 3, 1: 2 / 3},
                                         {0: 0.5, 1: 0.5}, {0: 1.0}]
        assert nerve.coordinates[z.index_of(ZPoint(5))] == {0: 1.0}


class TestGeodesicComb:
    def test_level_bound_exhaustive(self):
        for R, D, phase in ((math.e ** 3, 0.25, 0.0), (10.0, 0.7, 0.3),
                            (50.0, 2.0, -0.2), (5.0, 0.05, 0.11)):
            comb = GeodesicComb(R=R, D=D, i_range=(-3000, 3000), phase=phase)
            a = math.log(R) + 0.4
            for c10 in range(-60, int(10 * math.log(R)) + 1):
                c = c10 / 10.0
                count, a0 = comb_level_points(comb, c, a)
                assert count <= comb_level_bound(comb, c, a0) + 1e-9

    def test_bound_is_attained_order(self):
        # the count genuinely grows like (a0 - c)/D, so the bound is tight
        # up to its constant terms
        comb = GeodesicComb(R=math.e ** 4, D=0.5, i_range=(-3000, 3000))
        count_low, a0 = comb_level_points(comb, 0.0, 4.2)
        assert count_low >= 2 * (a0 - 0.0) / 0.5 * 0.5

    def test_requires_cut_above_apex(self):
        comb = GeodesicComb(R=10.0, D=1.0, i_range=(-10, 10))
        with pytest.raises(ValueError):
            comb_level_points(comb, 0.0, math.log(5.0))


class TestMapRecord:
    def test_requires_total_assignment(self):
        z = generate_net("z", {"lo": 0, "hi": 4})
        with pytest.raises(DomainError):
            MapRecord(source=z, target=z, assignment=[0, 1])

    def test_measures_are_recomputed(self):
        z = generate_net("z", {"lo": 0, "hi": 4})
        rec = MapRecord(source=z, target=z, assignment=[0, 0, 1, 1, 2])
        assert rec.measured_max_fiber == 2
        assert rec.measured_lipschitz == 1.0

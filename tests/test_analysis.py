from __future__ import annotations

import math

import pytest

from coarselab import analysis
from coarselab.analysis import (distortion_profile, escalation, fit_growth,
                                quasi_convexity_defect, radial_sublinearity,
                                subexp_stat, tail_slope)
from coarselab.constructions import MapRecord, tree_walk
from coarselab.covers import Cover, mesh_ball_cover, pullback_cover
from coarselab.errors import DataError, PreconditionError
from coarselab.spaces import (GrowthReport, ZPoint, build_product,
                              generate_net)


def synthetic_report(counts, truncated=None):
    radii = list(range(len(counts)))
    truncated = truncated or [False] * len(counts)
    return GrowthReport(center=0, radii=radii, counts=list(counts),
                        truncated=truncated)


class TestFitGrowth:
    def test_linear_counts(self):
        # the additive constant in 2n+1 washes out over a long tail
        rep = synthetic_report([1] + [2 * n + 1 for n in range(1, 101)])
        exp, resid = fit_growth(rep, r_min=20)
        assert exp == pytest.approx(1.0, abs=0.05)

    def test_l1_ball_counts(self):
        rep = synthetic_report([1] + [2 * n * n + 2 * n + 1
                                      for n in range(1, 101)])
        exp, _ = fit_growth(rep, r_min=20)
        assert exp == pytest.approx(2.0, abs=0.1)

    def test_recovers_monomials(self):
        for d in (1, 2, 3, 4):
            rep = synthetic_report([1] + [n ** d for n in range(1, 13)])
            exp, resid = fit_growth(rep)
            assert exp == pytest.approx(d, abs=0.1)
            assert resid < 1e-9

    def test_tree_counts_diverge(self):
        def tree_report(r_max):
            return synthetic_report([1] + [3 * 2 ** n - 2 for n in range(1, r_max)])

        small, _ = fit_growth(tree_report(10))
        large, _ = fit_growth(tree_report(22))
        assert large > small + 2.0
        stat = subexp_stat(tree_report(23))
        assert stat > analysis.SUBEXP_TAIL_SLOPE
        # per graph-distance unit the blowup rate sits at log 2
        assert stat == pytest.approx(math.log(2), rel=0.1)

    def test_requires_enough_radii(self):
        rep = synthetic_report([1, 3, 5], truncated=[False, False, True])
        with pytest.raises(DataError):
            fit_growth(rep)

    def test_truncated_radii_excluded(self):
        counts = [1] + [2 * n + 1 for n in range(1, 12)]
        trunc = [False] * 8 + [True] * 4
        clean, _ = fit_growth(synthetic_report(counts[:8]))
        # corrupt the truncated tail; the fit must not see it
        counts[-1] = 10_000
        rep = synthetic_report(counts, truncated=trunc)
        exp, _ = fit_growth(rep)
        assert exp == pytest.approx(clean, abs=1e-12)


class TestSubexpStat:
    def test_polynomial_tends_to_zero(self):
        big = synthetic_report([1] + [n ** 2 for n in range(1, 41)])
        small = synthetic_report([1] + [n ** 2 for n in range(1, 9)])
        assert subexp_stat(big) < subexp_stat(small)
        assert subexp_stat(big) < 0.2

    def test_binary_counts_near_log2(self):
        rep = synthetic_report([1] + [2 ** n for n in range(1, 26)])
        assert subexp_stat(rep) == pytest.approx(math.log(2), rel=0.05)
        assert tail_slope(rep) == pytest.approx(math.log(2), rel=0.05)

    def test_constant_counts(self):
        rep = synthetic_report([1] + [1 for _ in range(1, 25)])
        assert subexp_stat(rep) == 0.0


class TestDistortionProfile:
    def test_identity(self):
        z = generate_net("z", {"lo": -40, "hi": 40})
        ident = MapRecord(source=z, target=z, assignment=list(range(z.n)))
        prof = distortion_profile(ident)
        L, D = prof.fitted_affine
        assert L == pytest.approx(1.0, abs=1e-9)
        assert D == pytest.approx(0.0, abs=1e-9)
        assert not prof.log_fit_ok
        for lo, hi, dmin, dmean, dmax in prof.buckets:
            assert lo <= dmax < hi or dmax == pytest.approx(hi)

    def test_bucket_ordering_invariant(self):
        w = tree_walk(6)
        prof = distortion_profile(w, pair_cap=3000, seed=1)
        for _, _, dmin, dmean, dmax in prof.buckets:
            assert dmin <= dmean <= dmax

    def test_walk_log_fit(self):
        w = tree_walk(8)
        prof = distortion_profile(w, anchored=w.source.index_of(ZPoint(0)))
        assert prof.log_fit_ok
        assert prof.fitted_log_C < 4.0

    def test_product_of_walks_additive_constant(self):
        # profile of the diagonal product of two copies of the walk stays
        # within twice the single-factor constant plus slack
        w = tree_walk(5)
        single = distortion_profile(w, anchored=w.source.index_of(ZPoint(0)))
        src2 = build_product([w.source, w.source])
        tgt2 = build_product([w.target, w.target])
        amap = []
        index = {}
        fspaces = tgt2.window["factors"]
        for idx, tp in enumerate(tgt2.points):
            key = tuple(f.index_of(part) for f, part in zip(fspaces, tp.parts))
            index[key] = idx
        for tp in src2.points:
            a = w.source.index_of(tp.parts[0])
            b = w.source.index_of(tp.parts[1])
            amap.append(index[(w.assignment[a], w.assignment[b])])
        w2 = MapRecord(source=src2, target=tgt2, assignment=amap)
        origin = src2.index_of(
            type(src2.points[0])((ZPoint(0), ZPoint(0))))
        prod_prof = distortion_profile(w2, anchored=origin, pair_cap=30_000,
                                       seed=2)
        assert prod_prof.envelope_log_C <= 2.0 * single.envelope_log_C + 2.0

    def test_composition_with_quasi_isometry(self):
        # doubling the source metric composes the walk with a (2, 0)
        # quasi-isometry; the measured constant scales by at most ~2
        w = tree_walk(7)
        lo, hi = w.provenance["domain"]
        half = generate_net("z", {"lo": lo // 2, "hi": hi // 2})
        comp = MapRecord(source=half, target=w.target, assignment=[
            w.assignment[half.points[i].n * 2 - lo] for i in range(half.n)])
        base = distortion_profile(w, anchored=w.source.index_of(ZPoint(0)))
        comp_prof = distortion_profile(
            comp, anchored=half.index_of(ZPoint(0)))
        assert comp_prof.envelope_log_C <= 2.0 * base.envelope_log_C + 2.0


class TestRadialSublinearity:
    def test_bounded_cover_exact_ratio(self):
        z = generate_net("z", {"lo": -50, "hi": 50})
        cov = mesh_ball_cover(z, 3)
        rep = radial_sublinearity(cov, z.index_of(ZPoint(0)), [10, 20, 40, 50])
        diam = max(z.set_diameter(p) for p in cov.pieces)
        for m, ratio in zip(rep.m_grid, rep.ratios):
            assert ratio == pytest.approx(diam / m)
        assert rep.consistent

    def test_dyadic_blocks_not_sublinear(self):
        z = generate_net("z", {"lo": 1, "hi": 127})
        pieces = []
        k = 0
        while 2 ** k <= 127:
            pc = frozenset(i for i, p in enumerate(z.points)
                           if 2 ** k <= p.n < 2 ** (k + 1))
            if pc:
                pieces.append(pc)
            k += 1
        cov = Cover(z, pieces)
        rep = radial_sublinearity(cov, 0, [8, 16, 32, 64, 126])
        assert not rep.consistent
        assert min(rep.ratios) > 0.4

    def test_walk_pullback_ratios_decay(self, walk12):
        cov = mesh_ball_cover(walk12.target, 4)
        pulled = pullback_cover(walk12, cov)
        from coarselab.covers import refine_connected

        refined = refine_connected(pulled, 4.0, verify=False)
        base = walk12.source.index_of(ZPoint(0))
        grid = [200, 800, 3200, 12800, 40000]
        rep = radial_sublinearity(refined, base, grid)
        assert rep.consistent
        assert rep.ratios[-1] < 0.25 * rep.ratios[0]


class TestDefect:
    def test_geodesic_band_small_defect(self):
        net = generate_net("h2", {"kind": "ball", "radius": 8.0}, sep=1.0)
        sub = [i for i, p in enumerate(net.points)
               if abs(math.asinh(p.x / p.y)) <= 1.0]
        d = quasi_convexity_defect(net, sub, r=3.0, pair_cap=300, seed=1)
        assert d <= 2.0 + net.sep

    def test_horocycle_defect_grows_like_log(self):
        net = generate_net("h2", {"kind": "ball", "radius": 8.0}, sep=1.0)
        vals = {}
        for X in (10.0, 40.0):
            sub = [i for i, p in enumerate(net.points)
                   if abs(p.y - 1.0) < 0.2 and abs(p.x) <= X]
            vals[X] = quasi_convexity_defect(net, sub, r=3.0, pair_cap=300,
                                             seed=2)
            span = max(abs(net.points[i].x) for i in sub)
            midpoint_height = math.log(math.sqrt(span * span + 1.0))
            assert vals[X] == pytest.approx(midpoint_height, abs=1.2)
        assert vals[40.0] > vals[10.0]

    def test_disconnected_subset_rejected(self):
        net = generate_net("h2", {"kind": "ball", "radius": 6.0}, sep=1.0)
        base = net.window["basepoint"]
        far = max(range(net.n), key=lambda i: net.model_distance(base, i))
        with pytest.raises(PreconditionError) as exc:
            quasi_convexity_defect(net, [base, far], r=1.0)
        assert exc.value.witness is not None

    def test_scallop_piece_defect_stabilises(self):
        # the quadratic tiling piece tracks geodesics within a bounded
        # distance; its measured defect barely moves when the window grows
        from coarselab.constructions import build_h2_tiling, tiling_to_decomposition
        from test_piece_csr import components_oracle

        vals = {}
        for R in (7.0, 9.0):
            net = generate_net("h2", {"kind": "ball", "radius": R}, sep=1.0)
            tiling = build_h2_tiling(1.0, {"radius": R})
            dec = tiling_to_decomposition(tiling, net)
            labels = dec.provenance["labels"]
            bpid = next(p for p in range(len(dec.pieces))
                        if labels[p].startswith("('B',")
                        and len(dec.pieces[p]) > 100)
            main = max(components_oracle(net, sorted(dec.pieces[bpid]), 3.0),
                       key=len)
            vals[R] = quasi_convexity_defect(net, main, r=3.0, pair_cap=250,
                                             seed=4)
        assert abs(vals[9.0] - vals[7.0]) <= 1.0
        assert vals[9.0] <= 5.0

    def test_defect_monotone_in_pair_budget(self):
        net = generate_net("h2", {"kind": "ball", "radius": 7.0}, sep=1.0)
        sub = [i for i, p in enumerate(net.points)
               if abs(p.y - 1.0) < 0.2 and abs(p.x) <= 20.0]
        d_small = quasi_convexity_defect(net, sub, r=3.0, pair_cap=50, seed=3)
        d_big = quasi_convexity_defect(net, sub, r=3.0, pair_cap=400, seed=3)
        assert d_big >= d_small - 1e-12


class TestEscalation:
    def test_monotone_levels_on_tiling(self, decomp10):
        labels = decomp10.provenance["labels"]
        bpid = next(p for p in range(len(decomp10.pieces))
                    if labels[p].startswith("('B',")
                    and len(decomp10.pieces[p]) > 500)
        rows = escalation(decomp10, s=2.0, m_max=1, piece=bpid)
        assert rows[0]["exponent"] == pytest.approx(2.0, abs=0.3)
        assert rows[1]["exponent"] >= rows[0]["exponent"]

    def test_default_piece_is_nearest_center(self, decomp10, net10):
        base = net10.window["basepoint"]
        rows = escalation(decomp10, s=2.0, m_max=0)
        # the basepoint sits on the y-axis, inside the merged near band
        labels = decomp10.provenance["labels"]
        centers_piece = next(p for p in range(len(decomp10.pieces))
                             if base in decomp10.pieces[p])
        assert rows[0]["level_size"] == len(decomp10.pieces[centers_piece])

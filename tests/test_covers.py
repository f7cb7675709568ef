from __future__ import annotations

import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import covers
from coarselab.analysis import set_growth
from coarselab.covers import (ColoredDecomposition, Cover, check_disjointness,
                              greedy_decomposition, iterated_neighborhood,
                              kolmogorov_amplify, mesh_ball_cover,
                              product_decomposition, pullback_cover,
                              r_multiplicity, refine_connected)
from coarselab.constructions import MapRecord
from coarselab.errors import ArityError, PreconditionError
from coarselab.spaces import (TuplePoint, ZPoint, build_product, generate_net,
                              metric_graph)


def z_window(n):
    return generate_net("z", {"lo": -n, "hi": n})


def interval_piece(space, lo, hi):
    return frozenset(i for i, p in enumerate(space.points) if lo <= p.n <= hi)


class TestMultiplicity:
    def test_single_piece(self):
        z = z_window(5)
        cov = Cover(z, [frozenset(range(z.n))])
        for R in (0.0, 1.0, 3.0):
            mult, _ = r_multiplicity(cov, R)
            assert mult == 1

    def test_singletons_on_line(self):
        z = z_window(6)
        cov = Cover(z, [frozenset({i}) for i in range(z.n)])
        # brute-force oracle over all centers and radii
        pts = z.points
        for R in (0, 1, 2):
            best = 0
            for c in range(z.n):
                met = sum(1 for i in range(z.n)
                          if abs(pts[i].n - pts[c].n) <= R)
                best = max(best, met)
            mult, _ = r_multiplicity(cov, float(R))
            assert mult == best
        assert r_multiplicity(cov, 0.0)[0] == 1
        assert r_multiplicity(cov, 1.0)[0] == 3

    def test_model_metric_variant(self):
        z = z_window(6)
        cov = Cover(z, [frozenset({i}) for i in range(z.n)])
        assert r_multiplicity(cov, 0.5, metric="model")[0] == 1
        assert r_multiplicity(cov, 1.0, metric="model")[0] == 3


class TestDisjointness:
    def test_one_piece_per_colour(self):
        z = z_window(5)
        dec = ColoredDecomposition(
            z, [interval_piece(z, -5, 0), interval_piece(z, 1, 5)],
            colors=[0, 1], r=1.0, d=1)
        assert check_disjointness(dec) == []

    def test_interval_gap(self):
        z = z_window(10)
        pieces = [interval_piece(z, 0, 3), interval_piece(z, 5, 8),
                  interval_piece(z, -10, -1),
                  interval_piece(z, 4, 4) | interval_piece(z, 9, 10)]
        colors = [0, 0, 1, 1]
        ok = ColoredDecomposition(z, pieces, colors, r=2.0, d=1)
        assert check_disjointness(ok) == []
        bad = ColoredDecomposition(z, pieces, colors, r=3.0, d=1)
        viols = check_disjointness(bad)
        assert len(viols) == 1
        assert viols[0].distance == 2.0
        assert {viols[0].piece_a, viols[0].piece_b} == {0, 1}

    def test_tiling_decomposition_clean(self, decomp10):
        assert check_disjointness(decomp10) == []


class TestIteratedNeighborhood:
    def test_level_zero(self):
        z = z_window(5)
        dec = ColoredDecomposition(
            z, [interval_piece(z, -5, 0), interval_piece(z, 1, 5)],
            colors=[0, 1], r=1.0, d=1)
        chain = iterated_neighborhood(dec, 0, s=1.0, m=0)
        assert chain.levels == [dec.pieces[0]]

    def test_singletons_absorb_like_balls(self):
        z = z_window(8)
        cov = Cover(z, [frozenset({i}) for i in range(z.n)])
        center, pts = z.index_of(ZPoint(0)), z.points
        for m in range(4):
            chain = iterated_neighborhood(cov, center, s=1.0, m=m)
            # oracle: direct induction on the definition
            level = {center}
            for _ in range(m):
                hood = {y for x in level for y in range(z.n)
                        if abs(pts[y].n - pts[x].n) <= 1}
                level = hood  # singleton pieces: union of pieces = the hood
            assert set(chain.levels[-1]) == level

    def test_far_piece_stays_alone(self):
        z = z_window(10)
        pieces = [interval_piece(z, -10, -6), interval_piece(z, 0, 1),
                  interval_piece(z, 5, 10), interval_piece(z, -5, -1),
                  interval_piece(z, 2, 4)]
        cov = Cover(z, pieces)
        chain = iterated_neighborhood(cov, 1, s=1.0, m=1)
        # pieces at distance 1 get absorbed; [5,10] (distance 4) must not
        assert chain.levels[1] >= pieces[1]
        assert not (chain.levels[1] & pieces[0])

    def test_levels_nested_and_reproducible(self):
        z = z_window(12)
        rng = random.Random(7)
        cuts = sorted(rng.sample(range(-11, 11), 5))
        bounds = [-12] + cuts + [12]
        pieces = [interval_piece(z, a if a == -12 else a + 1, b)
                  for a, b in zip(bounds, bounds[1:])]
        pieces = [p for p in pieces if p]
        cov = Cover(z, pieces)
        chain = iterated_neighborhood(cov, 2, s=2.0, m=3)
        for a, b in zip(chain.levels, chain.levels[1:]):
            assert a <= b
        # recomputing level m from level m-1 by definition reproduces it
        pts = z.points
        for m in range(1, 4):
            prev = chain.levels[m - 1]
            hood = {y for y in range(z.n)
                    if any(abs(pts[y].n - pts[x].n) <= 2 for x in prev)}
            expect = set()
            for piece in pieces:
                if piece & hood:
                    expect |= piece
            assert set(chain.levels[m]) == expect

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_levels_match_the_definition_on_overlapping_pieces(self, data):
        z = z_window(10)
        point = st.integers(0, z.n - 1)
        pieces = data.draw(st.lists(st.sets(point, min_size=1), min_size=1,
                                    max_size=8))
        rest = set(range(z.n)) - set().union(*pieces)
        pieces += [rest] if rest else []
        piece = data.draw(st.integers(0, len(pieces) - 1))
        s, m = data.draw(st.sampled_from([1.0, 1.5, 3.0])), data.draw(st.integers(0, 3))
        chain = iterated_neighborhood(Cover(z, pieces), piece, s=s, m=m)
        # each level unions the pieces meeting the s-neighbourhood of the last
        pts, level, expect = z.points, pieces[piece], [pieces[piece]]
        for _ in range(m):
            hood = {y for y in range(z.n)
                    if any(abs(pts[y].n - pts[x].n) <= s for x in level)}
            level = set().union(*(p for p in pieces if p & hood))
            expect.append(level)
        assert [set(lev) for lev in chain.levels] == expect


class TestGreedy:
    def test_whole_space_single_piece(self):
        z = z_window(4)
        cov = Cover(z, [frozenset(range(z.n))])
        dec = greedy_decomposition(cov, R=1.0, n=0)
        assert dec.d == 0
        assert len(dec.pieces) == 1
        assert dec.colors == [0]

    def test_overlapping_intervals_fail_the_precondition(self):
        # length-3 intervals sharing endpoints have 2-multiplicity 4, so an
        # n = 1 extraction must be refused up front
        z = z_window(10)
        pieces = [pc for k in range(-5, 6)
                  if (pc := interval_piece(z, 2 * k, 2 * k + 2))]
        cov = Cover(z, pieces)
        with pytest.raises(PreconditionError):
            greedy_decomposition(cov, R=1.0, n=1)
        dec = greedy_decomposition(cov, R=1.0, n=3)
        assert check_disjointness(dec) == []
        assert set().union(*dec.pieces) == set(range(z.n))

    def test_z_disjoint_intervals_two_colours(self):
        z = z_window(22)
        pieces = [pc for k in range(-3, 3)
                  if (pc := interval_piece(z, 9 * k, 9 * k + 8))]
        cov = Cover(z, pieces)
        assert r_multiplicity(cov, 4.0, metric="model")[0] <= 2
        dec = greedy_decomposition(cov, R=2.0, n=1)
        assert dec.d == 1
        assert len(set(dec.colors)) == 2
        assert check_disjointness(dec) == []
        covered = set().union(*dec.pieces)
        assert covered == set(range(z.n))
        # every output piece sits inside some input piece
        for piece in dec.pieces:
            assert any(piece <= src for src in cov.pieces)

    def test_precondition_failure_carries_witness(self):
        z = z_window(4)
        cov = Cover(z, [frozenset(range(z.n)), frozenset(range(z.n)),
                        frozenset(range(z.n))])
        with pytest.raises(PreconditionError) as exc:
            greedy_decomposition(cov, R=1.0, n=1)
        assert exc.value.witness is not None


class TestKolmogorov:
    def test_z_intervals_single_colour(self):
        # touching length-3 intervals partition the window and sit exactly
        # 1 apart: a valid (1, 0)-decomposition, amplified to (1/3, 1)
        z = z_window(10)
        pieces = [pc for k in range(-4, 5)
                  if (pc := interval_piece(z, 3 * k, 3 * k + 2))]
        dec = ColoredDecomposition(z, pieces, [0] * len(pieces),
                                   r=1.0, d=0, partition=True)
        assert check_disjointness(dec) == []
        out = kolmogorov_amplify(dec)
        assert out.d == 1
        counts = out.coverage_counts()
        assert int(counts.min()) >= 2
        assert check_disjointness(out) == []

    def test_path_graph_two_colours(self):
        g = metric_graph(20, [(i, i + 1) for i in range(19)])
        pieces = [frozenset(range(0, 10)), frozenset(range(10, 20))]
        dec = ColoredDecomposition(g, pieces, [0, 1], r=3.0, d=1)
        out = kolmogorov_amplify(dec)
        assert out.d == 2
        # brute-force coverage-count oracle over the colour classes
        classes = out.color_classes()
        for x in range(20):
            assert sum(1 for cls in classes if x in cls) >= 2

    def test_amplified_coverage_property(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(st.lists(st.integers(2, 5), min_size=2, max_size=6))
        @settings(max_examples=25, deadline=None)
        def run(lengths):
            total = sum(lengths) + len(lengths) - 1
            z = generate_net("z", {"lo": 0, "hi": total})
            pieces, colors, lo = [], [], 0
            for i, ln in enumerate(lengths):
                pieces.append(interval_piece(z, lo, lo + ln - 1))
                colors.append(i % 2)
                lo += ln
            # the single leftover run keeps the partition total
            tail = interval_piece(z, lo, total)
            if tail:
                pieces.append(tail)
                colors.append(len(lengths) % 2)
            dec = ColoredDecomposition(z, pieces, colors, r=1.0, d=1,
                                       partition=True)
            if check_disjointness(dec):
                return  # touching same-colour runs: not a valid input
            out = kolmogorov_amplify(dec)
            assert int(out.coverage_counts().min()) >= \
                int(dec.coverage_counts().min()) + 1
            assert check_disjointness(out) == []

        run()

    def test_invariant_preserving_input(self):
        z = z_window(6)
        whole = frozenset(range(z.n))
        dec = ColoredDecomposition(z, [whole, whole], [0, 1], r=3.0, d=1,
                                   partition=False)
        out = kolmogorov_amplify(dec)
        counts = out.coverage_counts()
        assert int(counts.min()) >= 3  # n = 0 here: coverage (k+2)-0 = 3

    def test_selected_class_splits_along_the_first_piece(self):
        # at r = 0 same-colour pieces may overlap: a point of the new class
        # goes with the lowest-numbered piece of the smallest colour holding it
        z = z_window(6)
        pieces = [interval_piece(z, -6, 2), interval_piece(z, -2, 6),
                  interval_piece(z, -6, -3) | interval_piece(z, 1, 6),
                  interval_piece(z, -4, 3)]
        dec = ColoredDecomposition(z, pieces, [0, 0, 1, 1], r=0.0, d=1,
                                   partition=False)
        out = kolmogorov_amplify(dec)
        P = len(pieces)
        c_min = int(dec.coverage_counts().min())
        expect: dict = {}
        for x in range(z.n):
            own = [p for p in range(P) if x in pieces[p]]
            S = {dec.colors[p] for p in own}
            fat = {dec.colors[p] for p in range(P) if x in out.pieces[p]}
            if len(S) == c_min and not fat - S:
                pid = min(p for p in own if dec.colors[p] == min(S))
                expect.setdefault((tuple(sorted(S)), pid), set()).add(x)
        groups = sorted(expect.items())
        assert any(pid == 0 for (_, pid), _ in groups)
        assert out.pieces[P:] == [frozenset(v) for _, v in groups]
        assert out.provenance["trace"][P:] == [("selected", pid)
                                               for (_, pid), _ in groups]


class TestProductDecomposition:
    def test_single_piece_factors(self):
        z = z_window(2)
        whole = frozenset(range(z.n))
        dx = ColoredDecomposition(z, [whole, whole], [0, 1], r=1.0, d=1,
                                  partition=False)
        prod = build_product([z, z])
        out = product_decomposition(dx, dx, prod)
        assert set(out.colors) == {0, 1}
        assert all(len(p) == prod.n for p in out.pieces)

    def test_z_times_z_cover_exhaustive(self):
        z = z_window(10)
        pieces, colors = [], []
        for k in range(-3, 4):
            pc = interval_piece(z, 4 * k - 1, 4 * k + 1)
            if pc:
                pieces.append(pc)
                colors.append(0)
            pc = interval_piece(z, 4 * k + 1, 4 * k + 3)
            if pc:
                pieces.append(pc)
                colors.append(1)
        dec = ColoredDecomposition(z, pieces, colors, r=2.0, d=1,
                                   partition=False)
        assert check_disjointness(dec) == []
        amp = kolmogorov_amplify(dec)
        prod = build_product([z, z])
        out = product_decomposition(amp, amp, prod)
        covered = set().union(*out.pieces)
        assert covered == set(range(prod.n))
        assert check_disjointness(out) == []

    def test_growth_of_product_piece_is_product(self):
        z = z_window(8)
        a = interval_piece(z, -3, 3)
        prod, pts = build_product([z, z]), z.points
        piece = frozenset(prod.index_of(TuplePoint((pts[i], pts[j])))
                          for i in a for j in a)
        origin = prod.index_of(TuplePoint((ZPoint(0), ZPoint(0))))
        # BFS oracle: counts of the product set inside l1 balls
        rep = set_growth(prod, piece, center=origin, r_max=3)
        for n, c in zip(rep.radii, rep.counts):
            expect = sum(1 for i in range(-3, 4) for j in range(-3, 4)
                         if abs(i) + abs(j) <= n)
            assert c == expect

    def test_colour_count_mismatch(self):
        z = z_window(2)
        whole = frozenset(range(z.n))
        dx = ColoredDecomposition(z, [whole], [0], r=1.0, d=0)
        dy = ColoredDecomposition(z, [whole, whole], [0, 1], r=1.0, d=1,
                                  partition=False)
        with pytest.raises(ArityError):
            product_decomposition(dx, dy, build_product([z, z]))


class TestPullbackAndRefine:
    def test_identity_pullback(self):
        z = z_window(5)
        ident = MapRecord(source=z, target=z, assignment=list(range(z.n)))
        cov = Cover(z, [interval_piece(z, -5, 0), interval_piece(z, 0, 5)])
        out = pullback_cover(ident, cov)
        assert out.pieces == cov.pieces

    def test_constant_map_pullback(self):
        z = z_window(5)
        const = MapRecord(source=z, target=z, assignment=[0] * z.n)
        cov = Cover(z, [interval_piece(z, -5, -5),
                        interval_piece(z, -4, 5)])
        out = pullback_cover(const, cov)
        assert len(out.pieces) == 1
        assert out.pieces[0] == frozenset(range(z.n))

    def test_pullback_multiplicity_bound(self, walk12):
        cov = mesh_ball_cover(walk12.target, 4)
        pulled = pullback_cover(walk12, cov)
        m_src, _ = r_multiplicity(pulled, 2.0)
        lip = max(walk12.measured_lipschitz, 1.0)
        m_tgt, _ = r_multiplicity(cov, math.ceil(2.0 * lip))
        assert m_src <= m_tgt * walk12.measured_max_fiber

    def test_refine_keeps_connected_pieces(self):
        z = z_window(6)
        cov = Cover(z, [interval_piece(z, -6, 0), interval_piece(z, 1, 6)])
        out = refine_connected(cov, 1.0)
        assert sorted(map(sorted, out.pieces)) == sorted(map(sorted, cov.pieces))

    def test_refine_splits_far_intervals(self):
        z = z_window(10)
        both = interval_piece(z, -10, -6) | interval_piece(z, 6, 10)
        cov = Cover(z, [both, interval_piece(z, -5, 5)])
        out = refine_connected(cov, 2.0)
        assert len(out.pieces) == 3

    def test_refine_against_union_find_oracle(self):
        rng = random.Random(99)
        n = 30
        edges = [(i, i + 1) for i in range(n - 1) if rng.random() < 0.7]
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(10)]
        edges = [(a, b) for a, b in edges if a != b]
        g = metric_graph(n, edges)
        pieces = []
        for _ in range(4):
            pc = frozenset(rng.sample(range(n), rng.randint(3, 12)))
            pieces.append(pc)
        rest = set(range(n)) - set().union(*pieces)
        if rest:
            pieces.append(frozenset(rest))
        cov = Cover(g, pieces)
        R = 1.0
        out = refine_connected(cov, R)
        # oracle: per piece, BFS components under "distance <= R"
        expect = []
        for piece in pieces:
            left = set(piece)
            while left:
                seed = min(left)
                comp = {seed}
                dq = deque([seed])
                while dq:
                    v = dq.popleft()
                    for w in list(left):
                        if w not in comp and g.model_distance(v, w) <= R:
                            comp.add(w)
                            dq.append(w)
                left -= comp
                expect.append(frozenset(comp))
        assert sorted(map(sorted, out.pieces)) == sorted(map(sorted, expect))
        # components at scale R preserve multiplicity at scale R/2
        rho = math.floor(R / 2)
        m_before, _ = r_multiplicity(cov, rho)
        m_after, _ = r_multiplicity(out, rho)
        assert m_after <= m_before

    def test_mesh_ball_cover_covers(self):
        t = generate_net("t3", {"radius": 5})
        cov = mesh_ball_cover(t, 2)
        assert set().union(*cov.pieces) == set(range(t.n))


class TestGriddedChecksAgainstPairwise:
    """check_disjointness and model-metric r_multiplicity on a gridded net
    above 500 points, with pieces that overlap, against pairwise oracles."""

    @staticmethod
    def height_bands():
        # band i holds layers 2i..2i+2: neighbouring bands share a layer, and
        # same-colour bands (i, i+2) sit two layers (1.6) apart vertically
        net = generate_net("h2", {"kind": "ball", "radius": 6.0}, sep=0.8,
                           edge_threshold=1.6)
        layer = [round(math.log(p.y) / 0.8) for p in net.points]
        lo = min(layer)
        bands: dict[int, set[int]] = {}
        for i, k in enumerate(layer):
            o = k - lo
            for b in range(max(0, (o - 1) // 2), o // 2 + 1):
                bands.setdefault(b, set()).add(i)
        pieces = [frozenset(bands[b]) for b in sorted(bands)]
        colors = [b % 2 for b in sorted(bands)]
        return net, pieces, colors

    def test_fixture_is_large_and_overlapping(self):
        net, pieces, _ = self.height_bands()
        assert net.n > 500
        assert sum(map(len, pieces)) > net.n

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 2.5])
    def test_disjointness_matches_pairwise_set_distance(self, r):
        net, pieces, colors = self.height_bands()
        dec = ColoredDecomposition(net, pieces, colors, r=r, d=1,
                                   partition=False)
        expect = []
        for a in range(len(pieces)):
            for b in range(a + 1, len(pieces)):
                if colors[a] == colors[b]:
                    d = net.set_distance(pieces[a], pieces[b])
                    if d < r:
                        expect.append((a, b, d))
        got = check_disjointness(dec)
        assert [(v.piece_a, v.piece_b) for v in got] == \
            [(a, b) for a, b, _ in expect]
        for v, (_, _, d) in zip(got, expect):
            assert v.distance == pytest.approx(d, abs=1e-12)
        if r >= 2.0:
            assert got  # real violations: same-colour bands 1.6 apart

    @pytest.mark.parametrize("R", [0.5, 1.2, 1.9, 2.3])
    def test_model_multiplicity_matches_pairwise(self, R):
        net, pieces, colors = self.height_bands()
        cov = Cover(net, pieces)
        dist = net.distances(*np.divmod(np.arange(net.n * net.n), net.n)
                             ).reshape(net.n, net.n)
        owner = cov.piece_of()
        counts = [len({pid for y in map(int, (dist[x] <= R).nonzero()[0])
                       for pid in owner[y]}) for x in range(net.n)]
        best = max(range(net.n), key=lambda x: (counts[x], -x))
        assert r_multiplicity(cov, R, metric="model") == (counts[best], best)

"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines;
every tolerance is pinned here, not computed from the data under test.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter, deque

import numpy as np
import pytest

from coarselab import analysis, artifacts
from coarselab.analysis import escalation, fit_growth, piece_growth, subexp_stat
from coarselab.cli import main as cli_main
from coarselab.constructions import (GeodesicComb, build_comb,
                                     build_h2_tiling, comb_level_bound,
                                     comb_level_points, hd_cover_pipeline, nerve_map,
                                     nerve_lipschitz, tiling_to_decomposition,
                                     tree_walk, walk_value)
from coarselab.covers import (Cover, check_disjointness,
                              greedy_decomposition, kolmogorov_amplify,
                              mesh_ball_cover, pullback_cover, r_multiplicity,
                              refine_connected)
from coarselab.spaces import (GrowthReport, generate_net, growth_report,
                              metric_graph)


def verdict(num: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- 1: the integer-to-tree walk --------------------------------------------


def test_criterion_1_tree_walk():
    t0 = time.time()
    walk = tree_walk(15)
    lo, hi = walk.provenance["domain"]
    assert lo <= -100_000 and hi >= 100_000
    window = range(-100_000, 100_001)
    fibers = Counter(walk_value(walk, b) for b in window)
    max_fiber = max(fibers.values())
    adj_bad = sum(
        1 for b in range(-100_000, 100_000)
        if walk.target.model_distance(walk_value(walk, b),
                                      walk_value(walk, b + 1)) != 1.0)
    i0 = walk_value(walk, 0)
    bound_bad = 0
    c_env = 0.0
    for b in window:
        d = walk.target.model_distance(i0, walk_value(walk, b))
        if d > 2.0 * math.log2(1.0 + abs(b)) + 6.0:
            bound_bad += 1
        c_env = max(c_env, d / (math.log2(1.0 + abs(b)) + 1.0))
    elapsed = time.time() - t0
    ok = (max_fiber <= 3 and adj_bad == 0 and bound_bad == 0
          and c_env <= 4.0 and elapsed < 10.0)
    verdict("1 (tree walk)", ok,
            f"max fiber {max_fiber}, adjacency violations {adj_bad}, "
            f"distance-bound violations {bound_bad}, "
            f"envelope C {c_env:.2f} <= 4, {elapsed:.1f}s")


# -- 2: the half-plane tiling ------------------------------------------------


@pytest.fixture(scope="module")
def tiling_pipeline():
    t0 = time.time()
    net = generate_net("h2", {"kind": "ball", "radius": 10.0}, sep=0.8,
                       edge_threshold=1.6)
    tiling = build_h2_tiling(1.0, {"radius": 10.0})
    decomp = tiling_to_decomposition(tiling, net)
    return net, tiling, decomp, t0


def test_criterion_2a_tiling_separation(tiling_pipeline):
    net, tiling, decomp, _ = tiling_pipeline
    assert set(decomp.colors) == {0, 1}
    viol_half = check_disjointness(decomp, r=0.5)
    viol_full = check_disjointness(decomp)
    ok = not viol_half
    verdict("2a (tiling separation)", ok,
            f"2 colours, no same-colour pair below 0.5 "
            f"(none below {decomp.r} either: {not viol_full})")


def test_criterion_2b_tiling_growth(tiling_pipeline):
    net, tiling, decomp, _ = tiling_pipeline
    labels = decomp.provenance["labels"]
    fits = {"A": [], "B": [], "B1m": []}
    for pid in range(len(decomp.pieces)):
        if len(decomp.pieces[pid]) < 5:
            continue
        rep = piece_growth(decomp, pid, metric="intrinsic")
        try:
            exp, _ = fit_growth(rep, r_min=2)
        except Exception:
            continue
        fits[labels[pid].split("'")[1]].append(exp)
    linear = fits["A"] + fits["B1m"]
    quad = fits["B"]
    ok = (len(fits["A"]) >= 10 and len(quad) >= 2
          and max(linear) <= 1.3
          and all(1.7 <= e <= 2.3 for e in quad))
    verdict("2b (tiling growth)", ok,
            f"{len(fits['A'])} wedge pieces exp<= {max(fits['A']):.2f}, "
            f"near band {fits['B1m'][0]:.2f}, "
            f"{len(quad)} scallop pieces in [{min(quad):.2f}, {max(quad):.2f}]")


def test_criterion_2c_tiling_multiplicity(tiling_pipeline):
    net, tiling, decomp, t0 = tiling_pipeline
    mult, center = r_multiplicity(decomp, 0.5, metric="model")
    elapsed = time.time() - t0
    ok = mult <= 2 and elapsed < 120.0
    verdict("2c (tiling multiplicity)", ok,
            f"model-metric multiplicity at r/2 = {mult} <= 2, "
            f"pipeline total {elapsed:.0f}s")


# Companions to 2a and 2c at the tiling's own r = 1.  At r/2 = 0.5 every
# model ball of the sep-0.8 net holds only its centre, so those checks pass
# whatever the tiling does; at r = 1 most balls hold more.


def test_criterion_2a_companion_separation_at_r(decomp10):
    indptr, _ = decomp10.space.neighbors(range(decomp10.space.n), 1.0)
    assert (np.diff(indptr) > 1).sum() > decomp10.space.n // 2
    assert check_disjointness(decomp10, r=1.0) == []


def test_criterion_2c_companion_multiplicity_at_r(decomp10):
    mult, _ = r_multiplicity(decomp10, 1.0, metric="model")
    assert mult <= 2


# -- 3: the half-space cover through the plane-product embedding -------------


def test_criterion_3_hd_cover():
    t0 = time.time()
    art = hd_cover_pipeline(3, 8.0, 1.0)
    decomp = art["decomposition"]
    colours = decomp.d + 1
    exps = []
    for pid in range(len(decomp.pieces)):
        if len(decomp.pieces[pid]) < 5:
            continue
        try:
            exp, _ = fit_growth(piece_growth(decomp, pid), r_min=1)
        except Exception:
            continue
        exps.append(exp)
    # exact level-set counts of geodesic combs against the closed bound
    bound_bad = 0
    for R, D, phase in ((math.e ** 4, 0.5, 0.0), (30.0, 1.0, 0.4),
                        (8.0, 0.2, -0.3)):
        comb = GeodesicComb(R=R, D=D, i_range=(-4000, 4000), phase=phase)
        a = math.log(R) + 0.3
        for c10 in range(-50, int(10 * math.log(R)) + 1):
            c = c10 / 10.0
            count, a0 = comb_level_points(comb, c, a)
            if count > comb_level_bound(comb, c, a0) + 1e-9:
                bound_bad += 1
    elapsed = time.time() - t0
    ok = (colours <= 4 and len(exps) >= 10 and max(exps) <= 3.5
          and bound_bad == 0 and elapsed < 600.0)
    verdict("3 (half-space cover)", ok,
            f"{colours} colours, {len(exps)} piece fits <= {max(exps):.2f}, "
            f"level-set bound violations {bound_bad}, {elapsed:.0f}s")


# -- 4: cover algebra on random metric graphs --------------------------------


def _random_graph(rng):
    n = rng.randint(8, 40)
    edges = [(i, i + 1) for i in range(n - 1)]
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.append((min(a, b), max(a, b)))
    return metric_graph(n, edges)


def _oracle_dist(space):
    # independent all-pairs BFS over adjacency lists
    n = space.n
    out = [[math.inf] * n for _ in range(n)]
    for s in range(n):
        out[s][s] = 0
        dq = deque([s])
        while dq:
            v = dq.popleft()
            for w in space.adj[v]:
                if out[s][w] == math.inf:
                    out[s][w] = out[s][v] + 1
                    dq.append(w)
    return out


def _oracle_set_dist(dist, a, b):
    return min(dist[x][y] for x in a for y in b)


def test_criterion_4_cover_algebra():
    rng = random.Random(20240817)
    greedy_checked = amplified_checked = 0
    for trial in range(50):
        g = _random_graph(rng)
        n = g.n
        dist = _oracle_dist(g)
        pieces = []
        for _ in range(rng.randint(2, 6)):
            c = rng.randrange(n)
            rad = rng.randint(0, 3)
            pieces.append(frozenset(i for i in range(n) if dist[c][i] <= rad))
        rest = set(range(n)) - set().union(*pieces)
        if rest:
            pieces.append(frozenset(rest))
        cov = Cover(g, pieces)
        R = float(rng.choice([1, 2]))
        mult, _ = r_multiplicity(cov, 2 * R, metric="model")
        dec = greedy_decomposition(cov, R, mult - 1)
        # oracle checks, independent of the library's verifiers
        assert set().union(*dec.pieces) == set(range(n))
        for i, pa in enumerate(dec.pieces):
            for j in range(i + 1, len(dec.pieces)):
                if dec.colors[i] == dec.colors[j]:
                    assert _oracle_set_dist(dist, pa, dec.pieces[j]) >= R
        for piece, src in zip(dec.pieces, dec.provenance["source_pieces"]):
            assert piece <= cov.pieces[src]
        greedy_checked += 1

        amp = kolmogorov_amplify(dec)
        classes = amp.color_classes()
        counts_in = dec.coverage_counts()
        need = (dec.d + 2) - ((dec.d + 1) - int(counts_in.min()))
        for x in range(n):
            assert sum(1 for cls in classes if x in cls) >= need
        r_new = dec.r / 3.0
        by_color = {}
        for pid, c in enumerate(amp.colors):
            by_color.setdefault(c, []).append(pid)
        for pids in by_color.values():
            for i in range(len(pids)):
                for j in range(i + 1, len(pids)):
                    d = _oracle_set_dist(dist, amp.pieces[pids[i]],
                                         amp.pieces[pids[j]])
                    assert d >= r_new
        amplified_checked += 1
    ok = greedy_checked == 50 and amplified_checked == 50
    verdict("4 (cover algebra)", ok,
            f"{greedy_checked} greedy + {amplified_checked} amplified "
            f"decompositions verified against brute-force oracles")


# -- 5: pullback pieces of ball covers under the walk -------------------------


def test_criterion_5_pullback_diameters():
    results = {}
    for n_max in (10, 12):
        walk = tree_walk(n_max)
        for R in (2, 4, 8):
            cov = mesh_ball_cover(walk.target, R)
            pulled = pullback_cover(walk, cov)
            refined = refine_connected(pulled, float(R), verify=False)
            diam = max(
                max(walk.source.points[i].n for i in p)
                - min(walk.source.points[i].n for i in p)
                for p in refined.pieces)
            results[(n_max, R)] = diam
    ok = all(results[(n, R)] <= 2 * 4 ** R
             for n in (10, 12) for R in (2, 4, 8))
    verdict("5 (pullback diameters)", ok,
            "max diameters " + ", ".join(
                f"R={R}: {results[(10, R)]}/{results[(12, R)]}"
                for R in (2, 4, 8)) + " all <= 2*4^R")


# -- 6: neighbourhood growth escalation ---------------------------------------


def test_criterion_6_escalation(tiling_pipeline):
    net, tiling, decomp, _ = tiling_pipeline
    labels = decomp.provenance["labels"]
    bpid = next(p for p in range(len(decomp.pieces))
                if labels[p].startswith("('B',")
                and len(decomp.pieces[p]) > 500)
    rows = escalation(decomp, s=2.0, m_max=1, piece=bpid, r_min=2)
    exps = [r["exponent"] for r in rows]
    resid = [r["residual"] for r in rows]
    ok = exps[1] >= exps[0] and exps[1] > 2.5
    verdict("6 (escalation)", ok,
            f"exponents {exps[0]:.2f} -> {exps[1]:.2f} "
            f"(residuals {resid[0]:.2f}, {resid[1]:.2f})")


# -- 7: comb growth ------------------------------------------------------------


def test_criterion_7_comb_growth():
    details = []
    ok = True
    for d, extent, r_max in ((1, 40, 20), (2, 40, 20), (3, 30, 15)):
        comb = build_comb(d, extent)
        origin = comb.window["basepoint"]
        # independent BFS oracle for the ball counts
        oracle = {origin: 0}
        dq = deque([origin])
        while dq:
            v = dq.popleft()
            for w in comb.adj[v]:
                if w not in oracle:
                    oracle[w] = oracle[v] + 1
                    dq.append(w)
        rep = growth_report(comb, origin, r_max=r_max)
        for n, c in zip(rep.radii, rep.counts):
            assert c == sum(1 for v in oracle.values() if v <= n)
        exp, _ = fit_growth(rep, r_min=5)
        ok = ok and abs(exp - d) <= 0.4
        details.append(f"C_{d}: {exp:.2f}")
    verdict("7 (comb growth)", ok, ", ".join(details) + " within +-0.4")


# -- 8: nerve maps -------------------------------------------------------------


def _interval_cover(space, half=3, step=4):
    lo, hi = space.window["lo"], space.window["hi"]
    pieces = []
    k = lo // step
    while k * step <= hi:
        pc = frozenset(i for i, p in enumerate(space.points)
                       if abs(p.n - k * step) <= half)
        if pc:
            pieces.append(pc)
        k += 1
    return Cover(space, pieces)


def test_criterion_8_nerve():
    lips = []
    coords_ok = True
    for n in (60, 120):
        z = generate_net("z", {"lo": -n, "hi": n})
        cov = _interval_cover(z)
        nerve = nerve_map(z, cov)
        for i in range(z.n):
            coords = nerve.coordinates[i]
            coords_ok &= abs(sum(coords.values()) - 1.0) < 1e-12
            coords_ok &= all(v >= 0 for v in coords.values())
            support = {pid for pid, pc in enumerate(cov.pieces) if i in pc}
            coords_ok &= set(coords) == support
        lips.append(nerve_lipschitz(z, nerve))
    stable = abs(lips[1] - lips[0]) <= 0.1 * lips[0]
    ok = coords_ok and stable
    verdict("8 (nerve map)", ok,
            f"coords exact, Lipschitz {lips[0]:.4f} vs {lips[1]:.4f} "
            f"({abs(lips[1] - lips[0]) / lips[0] * 100:.1f}% drift)")


# -- 9: estimator calibration ---------------------------------------------------


def test_criterion_9_calibration():
    ok = True
    worst = 0.0
    for d in (1, 2, 3, 4):
        rep = GrowthReport(center=0, radii=list(range(13)),
                           counts=[1] + [n ** d for n in range(1, 13)],
                           truncated=[False] * 13)
        exp, _ = fit_growth(rep)
        worst = max(worst, abs(exp - d))
        ok = ok and abs(exp - d) <= 0.1
    rep = GrowthReport(center=0, radii=list(range(26)),
                       counts=[1] + [2 ** n for n in range(1, 26)],
                       truncated=[False] * 26)
    stat = subexp_stat(rep)
    subexp_ok = abs(stat - math.log(2)) <= 0.05 * math.log(2)
    ok = ok and subexp_ok
    verdict("9 (calibration)", ok,
            f"monomial recovery within {worst:.3f}, "
            f"binary stat {stat:.4f} vs log 2 = {math.log(2):.4f}")


# -- 10: determinism -------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    files = {}
    for tag in ("a", "b"):
        base = tmp_path / tag
        assert cli_main(["space", "--model", "h2", "--ball", "6", "--sep",
                         "1", "--out", str(base / "net")]) == 0
        assert cli_main(["build", "walk", "--n-max", "6",
                         "--out", str(base / "walk")]) == 0
        assert cli_main(["build", "tiling", "--r", "1", "--ball", "5",
                         "--sep", "0.8", "--threshold", "1.6",
                         "--out", str(base / "tiling")]) == 0
        assert cli_main(["analyze", "distortion",
                         "--map", str(base / "walk" / "walk.json"),
                         "--anchored", "0",
                         "--out", str(base / "dist")]) == 0
        blobs = {}
        for rel in ("net/space.json", "net/points.csv", "net/edges.csv",
                    "walk/walk.json", "tiling/decomposition.json",
                    "tiling/tiling.json", "dist/distortion.json",
                    "dist/distortion.csv"):
            with open(base / rel, "r", encoding="utf-8") as fh:
                blobs[rel] = artifacts.sha256_text(fh.read())
        files[tag] = blobs
    ok = files["a"] == files["b"]
    verdict("10 (determinism)", ok,
            f"{len(files['a'])} artifacts re-ran byte-identical")

"""The three acceptance pipelines, run inside a workload process.

Window sizes and constructions are fixed; the seed chooses only sampled
inputs (the escalation piece, the sample of fitted pieces, the distortion
pair sample), so the pinned content digests hold for every seed.  Every
pipeline records its invariant checks and returns the number of source
points it carried to a verified result, with the content digests to
compare against the pinned ones once the clock has stopped.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from coarselab import analysis, constructions, covers, spaces
from coarselab.errors import DataError

from checks import (Checks, assignment_digest, membership_digest,
                    net_digest)

H2_RADIUS = 11.0
HD_DIM, HD_RADIUS, HD_R = 3, 7.0, 1.0
HD_FITS = 12
WALK_N_MAX = 15
WALK_WINDOW = 100_000
MESH_R = 4


def _fit(report, r_min):
    try:
        return analysis.fit_growth(report, r_min=r_min)[0]
    except DataError:
        return None


# -- h2-tiling: criteria 2a, 2b, 2c and 6 at window radius 11 ---------------


def h2_tiling(seed: int, checks: Checks) -> tuple[int, dict]:
    net = spaces.generate_net("h2", {"kind": "ball", "radius": H2_RADIUS},
                              sep=0.8, edge_threshold=1.6)
    tiling = constructions.build_h2_tiling(1.0, {"radius": H2_RADIUS})
    decomp = constructions.tiling_to_decomposition(tiling, net)
    checks.add("2a:two-colours", set(decomp.colors) == {0, 1},
               sorted(set(decomp.colors)))
    bad = covers.check_disjointness(decomp, r=0.5)
    checks.add("2a:no-same-colour-pair-below-0.5", not bad,
               [vars(v) for v in bad[:3]] or None)
    mult, center = covers.r_multiplicity(decomp, 0.5, metric="model")
    checks.add("2c:model-multiplicity-at-0.5<=2", mult <= 2,
               {"multiplicity": mult, "center": center})

    labels = decomp.provenance["labels"]
    fits: dict[str, list[float]] = {"A": [], "B": [], "B1m": []}
    for pid, piece in enumerate(decomp.pieces):
        if len(piece) < 5:
            continue
        exp = _fit(analysis.piece_growth(decomp, pid, metric="intrinsic"), 2)
        if exp is not None:
            fits[labels[pid].split("'")[1]].append(exp)
    linear = fits["A"] + fits["B1m"]
    checks.add("2b:wedge-fits<=1.3",
               len(fits["A"]) >= 10 and max(linear) <= 1.3,
               {"fits": len(linear), "max": max(linear, default=None)})
    checks.add("2b:scallop-fits-in-[1.7,2.3]",
               len(fits["B"]) >= 2 and all(1.7 <= e <= 2.3 for e in fits["B"]),
               {"fits": fits["B"]})

    # the two depth-0 scallops; descended ones hug the window boundary
    scallops = [p for p in range(len(decomp.pieces))
                if labels[p] in ("('B', 'L', ())", "('B', 'R', ())")]
    bpid = random.Random(seed).choice(scallops)
    rows = analysis.escalation(decomp, s=2.0, m_max=1, piece=bpid, r_min=2)
    exps = [r["exponent"] for r in rows]
    checks.add("6:escalation-rises-above-2.5",
               exps[1] >= exps[0] and exps[1] > 2.5,
               {"piece": bpid, "exponents": exps})

    return net.n, {
        "h2-tiling.net": lambda: net_digest(net),
        "h2-tiling.decomposition":
            lambda: membership_digest(decomp.pieces, decomp.colors)}


# -- hd3-cover: criterion 3 through one public entry point ------------------


def hd3_cover(seed: int, checks: Checks) -> tuple[int, dict]:
    art = constructions.hd_cover_pipeline(HD_DIM, HD_RADIUS, HD_R)
    decomp, source = art["decomposition"], art["net"]
    checks.add("3:colours<=4", decomp.d + 1 <= 4, decomp.d + 1)
    cov = decomp.coverage_counts()
    checks.add("3:covers-source", int(cov.min()) >= 1,
               None if cov.min() >= 1 else int(cov.argmin()))
    # The pulled cover claims r = target_r / measured Lipschitz, which sits
    # below the source net spacing: this check cannot witness separation.
    bad = covers.check_disjointness(decomp)
    checks.add("3:disjointness-at-claimed-r", not bad,
               [vars(v) for v in bad[:3]] or None,
               claimed_r=decomp.r, net_sep=source.sep,
               vacuous=decomp.r < source.sep)

    # fit pieces in a seeded order until HD_FITS fits succeed; pieces whose
    # radii are all truncated at the window edge cannot be fitted
    eligible = [p for p, piece in enumerate(decomp.pieces) if len(piece) >= 5]
    random.Random(seed).shuffle(eligible)
    exps: list[float] = []
    for p in eligible:
        exp = _fit(analysis.piece_growth(decomp, p), 1)
        if exp is not None:
            exps.append(exp)
            if len(exps) == HD_FITS:
                break
    checks.add("3:piece-fits<=3.5", len(exps) >= 10 and max(exps) <= 3.5,
               {"fits": len(exps), "max": max(exps, default=None)})

    return source.n, {
        "hd3-cover.net": lambda: net_digest(source),
        "hd3-cover.decomposition":
            lambda: membership_digest(decomp.pieces, decomp.colors)}


# -- tree-walk: criteria 1 and 5, multiplicity, distortion, growth ----------


def tree_walk(seed: int, checks: Checks) -> tuple[int, dict]:
    walk = constructions.tree_walk(WALK_N_MAX)
    lo = walk.provenance["domain"][0]
    a, dist = walk.assignment, walk.target.model_distance
    window = range(-WALK_WINDOW, WALK_WINDOW + 1)
    fibers = Counter(a[b - lo] for b in window)
    max_fiber = max(fibers.values())
    checks.add("1:max-fiber<=3", max_fiber <= 3, max_fiber)
    adj_bad = [b for b in window[:-1] if dist(a[b - lo], a[b + 1 - lo]) != 1.0]
    checks.add("1:consecutive-adjacent", not adj_bad, adj_bad[:3] or None)
    i0 = a[-lo]
    bound_bad = [b for b in window
                 if dist(i0, a[b - lo]) > 2.0 * math.log2(1.0 + abs(b)) + 6.0]
    checks.add("1:log-distance-bound", not bound_bad, bound_bad[:3] or None)

    cov = covers.mesh_ball_cover(walk.target, MESH_R)
    pulled = covers.pullback_cover(walk, cov)
    refined = covers.refine_connected(pulled, float(MESH_R), verify=False)
    before, _ = covers.r_multiplicity(pulled, MESH_R // 2)
    after, center = covers.r_multiplicity(refined, MESH_R // 2)
    checks.add("5:refine-keeps-2-multiplicity", after <= before,
               {"before": before, "after": after, "center": center})
    pts = walk.source.points
    diam = max(max(pts[i].n for i in p) - min(pts[i].n for i in p)
               for p in refined.pieces)
    checks.add("5:pullback-diameters<=2*4^R", diam <= 2 * 4 ** MESH_R, diam)

    anchored = analysis.distortion_profile(
        walk, anchored=walk.source.index_of(spaces.ZPoint(0)))
    sampled = analysis.distortion_profile(walk, seed=seed)
    checks.add("distortion:log-profile-finite",
               all(math.isfinite(p.envelope_log_C) and p.pair_count > 0
                   for p in (anchored, sampled)),
               {"anchored_C": anchored.fitted_log_C,
                "sampled_C": sampled.fitted_log_C})

    root = walk.target.window["spine"][0]
    rep = spaces.growth_report(walk.target, root)
    checks.add("growth:report-reaches-whole-tree",
               rep.counts[-1] == walk.target.n,
               {"reached": rep.counts[-1], "n": walk.target.n})

    return walk.source.n, {
        "tree-walk.assignment": lambda: assignment_digest(walk.assignment),
        "tree-walk.target": lambda: net_digest(walk.target),
        "tree-walk.refined": lambda: membership_digest(refined.pieces)}


PIPELINES = {"h2-tiling": h2_tiling, "hd3-cover": hd3_cover,
             "tree-walk": tree_walk}

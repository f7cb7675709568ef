"""Measurement tools: growth fits, distortion profiles, cover metrology.

Everything here is a window-scale statistic.  Fits are ordinary least
squares on log-transformed data and always come with a residual, so the
thresholds used by callers stay auditable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .covers import (ColoredDecomposition, Cover, PieceView, _components,
                     _family_growth, iterated_neighborhood)
from .errors import (DataError, DomainError, PreconditionError,
                     TruncationError, UnsupportedError)
from .spaces import GrowthReport, SpaceGraph, _unique

__all__ = [
    "fit_growth",
    "subexp_stat",
    "DistortionProfile",
    "distortion_profile",
    "SublinearityReport",
    "radial_sublinearity",
    "quasi_convexity_defect",
    "escalation",
    "piece_growth",
    "set_growth",
]

SUBEXP_TAIL_SLOPE = 0.05  # declared subexponential-at-window-scale below this


# ---------------------------------------------------------------------------
# growth fitting


def fit_growth(report: GrowthReport, r_min: int = 1) -> tuple[float, float]:
    """Least-squares slope of log counts against log radii.

    Only untruncated radii >= r_min participate; at least four are
    required.  Returns (exponent, rms residual).
    """
    rs, cs = report.untruncated(r_min=max(1, r_min))
    if len(rs) < 4:
        raise DataError(
            f"need >= 4 untruncated radii >= {r_min}, have {len(rs)}")
    lx = np.log(np.array(rs, dtype=float))
    ly = np.log(np.array(cs, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return float(slope), resid


def subexp_stat(report: GrowthReport) -> float:
    """log |B(r_max)| / r_max over the untruncated range; near zero means
    subexponential at window scale, log 2 per unit means binary blowup."""
    rs, cs = report.untruncated(r_min=1)
    if not rs:
        raise DataError("no untruncated radii")
    return math.log(cs[-1]) / rs[-1]


def tail_slope(report: GrowthReport) -> float:
    """Slope of log counts vs radius over the top half of the untruncated
    range; the per-step exponential rate."""
    rs, cs = report.untruncated(r_min=1)
    if len(rs) < 4:
        raise DataError("need >= 4 untruncated radii")
    half = len(rs) // 2
    x = np.array(rs[half:], dtype=float)
    y = np.log(np.array(cs[half:], dtype=float))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def set_growth(space: SpaceGraph, subset: Iterable[int],
               center: Optional[int] = None,
               r_max: Optional[int] = None,
               metric: str = "ambient") -> GrowthReport:
    """Growth of a point set around a center: the table of the set as a
    one-piece family, by the builders of :meth:`PieceView.growth`.

    ``metric="ambient"`` counts subset points inside ambient graph balls
    (the subset as a metric subspace).  ``metric="intrinsic"`` searches
    the subset's induced subgraph instead; this removes the additive
    detour cost ambient balls pay to reach a thin set's far side, which
    otherwise biases window-scale exponent fits upward, and its center
    must be a subset point.  Default center: the subset point with the
    largest window margin, the lowest index among equals.  Radii run to
    ``r_max`` or to the last radius that reaches a new point.  A point
    outside ``range(space.n)`` raises :class:`DomainError`; an intrinsic
    center outside the subset raises :class:`PreconditionError` with the
    center as witness, and a negative ``r_max`` raises
    :class:`UnsupportedError`.
    """
    pts = _unique(np.fromiter(subset, dtype=np.int64))
    if not len(pts):
        raise DataError("empty subset")
    for p in (pts[0], pts[-1], center):
        if p is not None and not 0 <= p < space.n:
            raise DomainError(f"point {p} is outside the {space.n} points"
                              f" of the space")
    if metric == "intrinsic" and center is not None and center not in pts:
        raise PreconditionError(f"center {center} is not a point of the subset",
                                witness=center)
    return _family_growth(space, np.array([0, len(pts)]), pts, metric,
                          None if center is None else np.array([center])
                          ).report(0, r_max)


def piece_growth(decomp_or_cover: Union[Cover, ColoredDecomposition],
                 piece: int, r_max: Optional[int] = None,
                 metric: str = "ambient") -> GrowthReport:
    """:func:`set_growth` of one piece around its default center, read from
    the growth table of the family's pieces (:meth:`PieceView.growth`).
    The table of a metric is made for every piece on the first call;
    later calls read it."""
    return decomp_or_cover.pieces.growth(
        decomp_or_cover.space, metric).report(piece, r_max)


# ---------------------------------------------------------------------------
# distortion profiles


@dataclass
class DistortionProfile:
    """Distance comparison of a map over sampled point pairs.

    ``buckets`` maps geometric source-distance ranges to (min, mean, max)
    target distance.  ``fitted_log_C`` is the least-squares C in
    target ~ C * (log(1 + source) + 1); ``envelope_log_C`` the smallest C
    that bounds every sample.  ``fitted_affine`` is the (L, D) of an
    ordinary linear fit.  ``log_fit_ok`` is False when the log model
    explains the data no better than scatter (e.g. for the identity).
    """

    map_provenance: dict
    pair_count: int
    anchored: Optional[int]
    buckets: list[tuple[float, float, float, float, float]]
    fitted_log_C: float
    envelope_log_C: float
    fitted_affine: tuple[float, float]
    log_fit_ok: bool
    samples: Optional[np.ndarray] = field(default=None, repr=False)


def _sample_pairs(n: int, cap: int, seed: int,
                  anchored: Optional[int]) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (a, b) of the profiled pairs: anchored pairs, every pair
    a < b in row-major order, or ``cap`` seeded distinct samples.

    The samples are the pairs a loop gets from ``random.Random(seed)`` by
    drawing ``randrange(n)`` twice per pair, skipping a == b and pairs
    already drawn.  For n < 2**32, randrange(n) takes the top
    n.bit_length() bits of one 32-bit Mersenne Twister word and draws
    again while the value is not below n; the words are drawn in bulk,
    ``getrandbits(32 * m)`` holding m of them, the first in the lowest bits.
    """
    if anchored is not None:
        b = np.delete(np.arange(n), anchored)
        return np.full(len(b), anchored), b
    total = n * (n - 1) // 2
    if total <= cap:
        return np.triu_indices(n, 1)
    if n >= 2 ** 32:
        raise UnsupportedError(f"cannot sample pairs of {n} >= 2**32 points")
    rng = random.Random(seed)
    bits = n.bit_length()
    draws = np.zeros(0, dtype=np.uint64)
    m = int(2.2 * cap * 2 ** bits / n) + 64  # words for about cap pairs
    while True:
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"),
                              dtype="<u4") >> (32 - bits)
        draws = np.concatenate([draws, words[words < n].astype(np.uint64)])
        half = len(draws) // 2
        a, b = draws[0:2 * half:2], draws[1:2 * half:2]
        key = (np.minimum(a, b) * np.uint64(n) + np.maximum(a, b))[a != b]
        first = _first_occurrences(key)
        if len(first) >= cap:
            key = key[first[:cap]]
            return ((key // np.uint64(n)).astype(np.int64),
                    (key % np.uint64(n)).astype(np.int64))
        m *= 2


def _first_occurrences(key: np.ndarray) -> np.ndarray:
    """Increasing positions of the first occurrence of each value of
    ``key``.  One sort finds the values that repeat; only the keys equal
    to one of them are sorted again, stably, to find which comes first."""
    s = np.sort(key)
    rep = _unique(s[1:][s[1:] == s[:-1]])
    first = np.ones(len(key), dtype=bool)
    if len(rep):
        at = np.minimum(np.searchsorted(rep, key), len(rep) - 1)
        pos = np.flatnonzero(rep[at] == key)
        pos = pos[np.argsort(key[pos], kind="stable")]
        run = key[pos]
        first[pos[1:][run[1:] == run[:-1]]] = False
    return np.flatnonzero(first)


def _buckets(edges: np.ndarray, ds: np.ndarray, dt: np.ndarray) -> list:
    """(lo, hi, min, mean, max) of ``dt`` over the samples whose ``ds``
    lies in [lo, hi), for each pair of consecutive ``edges`` that holds
    any.  The samples are grouped once, stably, by bucket, so a bucket's
    slice holds its samples in their original order."""
    nb = len(edges) - 1
    # key 0 lies below edges[0], key j + 1 in [edges[j], edges[j + 1]),
    # key nb + 1 at or above edges[-1]
    key = np.searchsorted(edges, ds, side="right").astype(np.uint16)
    grouped = dt[np.argsort(key, kind="stable")]
    ends = np.cumsum(np.bincount(key, minlength=nb + 2))
    return [(float(edges[j]), float(edges[j + 1]), float(run.min()),
             float(run.mean()), float(run.max()))
            for j in range(nb) if len(run := grouped[ends[j]:ends[j + 1]])]


def distortion_profile(f, pair_cap: int = 200_000, seed: int = 0,
                       anchored: Optional[int] = None) -> DistortionProfile:
    """Source-vs-target model-distance profile of a map record.

    Pairs are exhaustive below ``pair_cap``, else seeded uniform samples.
    ``anchored`` fixes the first coordinate and varies the second over
    the whole window.
    """
    src, tgt = f.source, f.target
    a, b = _sample_pairs(src.n, pair_cap, seed, anchored)
    ds = src.distances(a, b)
    dt = tgt.distances(f.image[a], f.image[b])
    del a, b  # free the pair indices before the buckets and the fit
    pos = ds > 0
    ds, dt = ds[pos], dt[pos]
    if len(ds) == 0:
        raise DataError("no distinct pairs to profile")

    # geometric buckets on source distance
    lo = ds.min()
    hi = ds.max()
    edges = np.geomspace(max(lo, 1e-9), hi * (1 + 1e-9),
                         num=min(24, max(2, int(math.log2(hi / max(lo, 1e-9))) + 2)))
    buckets = _buckets(edges, ds, dt)

    basis = np.log1p(ds) + 1.0
    fitted_log_C = float(np.dot(dt, basis) / np.dot(basis, basis))
    envelope_log_C = float(np.max(dt / basis))
    L, D = np.polyfit(ds, dt, 1)
    # the log model is only meaningful if it tracks the upper range better
    # than a plain affine fit does
    log_resid = float(np.mean((dt - fitted_log_C * basis) ** 2))
    aff_resid = float(np.mean((dt - (L * ds + D)) ** 2))
    log_fit_ok = log_resid <= 4.0 * aff_resid
    return DistortionProfile(
        map_provenance=dict(f.provenance), pair_count=len(ds),
        anchored=anchored, buckets=buckets, fitted_log_C=fitted_log_C,
        envelope_log_C=envelope_log_C, fitted_affine=(float(L), float(D)),
        log_fit_ok=log_fit_ok, samples=np.stack([ds, dt]))


# ---------------------------------------------------------------------------
# radial sublinearity


def _distances_to_pieces(family: Union[Cover, ColoredDecomposition],
                         point: int) -> np.ndarray:
    """Model distance from ``point`` to each piece, as
    ``set_distance([point], piece)`` gives it: the least of
    :meth:`SpaceGraph.distances` from ``point`` over the piece."""
    space = family.space
    d = space.distances(np.full(space.n, point), np.arange(space.n))
    ptr, pids = family.pieces.inverse()
    out = np.full(len(family.pieces), math.inf)
    np.minimum.at(out, pids, np.repeat(d, np.diff(ptr)))
    return out


@dataclass
class SublinearityReport:
    basepoint: int
    m_grid: list[int]
    max_diam: list[float]
    ratios: list[float]
    trend: float
    consistent: bool


def radial_sublinearity(family: Union[Cover, ColoredDecomposition],
                        basepoint: int,
                        m_grid: Sequence[int]) -> SublinearityReport:
    """max piece diameter within distance m of the basepoint, against m.

    Declared consistent with radial sublinearity when the ratio
    max_diam(m)/m decreases across the top half of the grid.
    """
    space = family.space
    m_grid = sorted(m_grid)
    if not m_grid or m_grid[0] <= 0:
        raise UnsupportedError("m grid must be positive")
    dists = _distances_to_pieces(family, basepoint)
    diams = np.array([space.set_diameter(family.pieces.row(i))
                      for i in range(len(family.pieces))])
    max_diam = []
    running = 0.0
    for m in m_grid:
        sel = dists <= m
        val = float(diams[sel].max()) if sel.any() else 0.0
        running = max(running, val)
        max_diam.append(running)
    ratios = [d / m for d, m in zip(max_diam, m_grid)]
    half = len(m_grid) // 2
    top_m = np.array(m_grid[half:], dtype=float)
    top_r = np.array(ratios[half:], dtype=float)
    if len(top_m) >= 2:
        trend = float(np.polyfit(top_m, top_r, 1)[0])
        consistent = bool(all(top_r[i + 1] <= top_r[i] + 1e-12
                              for i in range(len(top_r) - 1)))
    else:
        trend = 0.0
        consistent = False
    return SublinearityReport(basepoint=basepoint, m_grid=list(m_grid),
                              max_diam=max_diam, ratios=ratios, trend=trend,
                              consistent=consistent)


# ---------------------------------------------------------------------------
# quasi-convexity defect


def _geodesic_samples(p: tuple[float, float], q: tuple[float, float],
                      step: float) -> list[tuple[float, float]]:
    """Points spaced ~step (hyperbolic) along the geodesic [p, q]."""
    (x1, y1), (x2, y2) = p, q
    if abs(x1 - x2) < 1e-12:
        a, b = math.log(min(y1, y2)), math.log(max(y1, y2))
        k = max(2, int(math.ceil((b - a) / step)) + 1)
        return [(x1, math.exp(a + (b - a) * t / (k - 1))) for t in range(k)]
    c = (x2 * x2 + y2 * y2 - x1 * x1 - y1 * y1) / (2.0 * (x2 - x1))
    rho = math.hypot(x1 - c, y1)
    a1 = math.atan2(y1, x1 - c)
    a2 = math.atan2(y2, x2 - c)
    # uniform in arclength: s = log tan(theta/2)
    s1, s2 = (math.log(math.tan(a / 2.0)) for a in sorted((a1, a2)))
    k = max(2, int(math.ceil((s2 - s1) / step)) + 1)
    out = []
    for t in range(k):
        s = s1 + (s2 - s1) * t / (k - 1)
        theta = 2.0 * math.atan(math.exp(s))
        out.append((c + rho * math.cos(theta), rho * math.sin(theta)))
    return out


def quasi_convexity_defect(space: SpaceGraph, subset: Iterable[int], r: float,
                           pair_cap: int = 4000, seed: int = 0) -> float:
    """Worst model distance from a geodesic between subset points back to
    the subset, over sampled endpoint pairs.

    The subset must be r-connected; otherwise the two farthest components
    are reported as the witness.  Enlarging the sampled pair set can only
    increase the value.
    """
    if space.model != "h2":
        raise UnsupportedError("defect measurement works on half-plane nets")
    idx = sorted(subset)
    members = frozenset(idx)
    comps = list(_components(space, PieceView([0, len(idx)], idx, space.n), r)[1])
    if len(comps) > 1:
        worst = max(
            ((space.set_distance(a, b), (i, j))
             for i, a in enumerate(comps) for j, b in enumerate(comps) if i < j),
            key=lambda t: t[0])
        raise PreconditionError(
            f"subset is not {r}-connected: components at distance {worst[0]:.3f}",
            witness=worst[1])
    pairs = _sample_pairs(len(idx), pair_cap, seed, None)
    step = space.sep / 2.0
    defect = 0.0
    xs, ys = space._coords()
    px, py = xs[idx, 0].tolist(), ys[idx].tolist()
    for a, b in zip(*(p.tolist() for p in pairs)):
        for (gx, gy) in _geodesic_samples((px[a], py[a]), (px[b], py[b]), step):
            defect = max(defect,
                         _distance_to_subset(space, members, gx, gy,
                                             start=max(space.sep, defect)))
    return defect


def _distance_to_subset(space: SpaceGraph, members: frozenset, gx: float,
                        gy: float, start: float) -> float:
    radius = start
    while radius < 1e9:
        cand = [c for c in space.coords_within([[gx]], [gy], radius)[1].tolist()
                if c in members]
        if cand:
            m = len(cand)
            return float(space._distances_from(
                np.full((m, 1), gx), np.full(m, gy), np.array(cand)).min())
        radius *= 2.0
    raise DataError("no subset point within reach of a geodesic sample")


# ---------------------------------------------------------------------------
# neighbourhood growth escalation


def escalation(decomp: ColoredDecomposition, s: float, m_max: int,
               piece: Optional[int] = None, r_min: int = 1) -> list[dict]:
    """Fitted ambient growth exponent of the m-fold neighbourhood closure of
    a piece, for m = 0..m_max, from one table of the levels.  Default piece:
    the one nearest the window basepoint.  Raises when every radius of some
    level is truncated."""
    space = decomp.space
    if piece is None:
        # the first of the nearest pieces
        piece = int(np.argmin(_distances_to_pieces(
            decomp, space.window.get("basepoint", 0))))
    chain = iterated_neighborhood(decomp, piece, s, m_max)
    table = chain.levels.growth(space, "ambient")
    out = []
    for m, size in enumerate(np.diff(chain.levels.ptr).tolist()):
        rep = table.report(m)
        try:
            exp, resid = fit_growth(rep, r_min=r_min)
        except DataError as e:
            raise TruncationError(
                f"level {m} of piece {piece}: {e}; enlarge the window or"
                f" reduce m_max") from e
        out.append({"m": m, "exponent": exp, "residual": resid,
                    "level_size": size, "center": rep.center,
                    "truncated_chain": chain.truncated})
    return out

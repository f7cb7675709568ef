"""Explicit geometric constructions on half-plane and tree windows.

Contents: the two-coloured wedge/scallop tiling of the upper half-plane,
the depth-first spine walk of the integer line into the 3-regular tree,
the coordinate-sharing embedding of half-space into products of planes
(with its induced cover), combs, barycentric nerve maps, and exact
level-set profiles of geodesic combs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .covers import (ColoredDecomposition, Cover, PieceView, _entry_graph,
                     kolmogorov_amplify, product_decomposition,
                     pullback_decomposition)
from .errors import (ArityError, AssignmentError, DomainError, NumericError,
                     SizeCapError, UnsupportedError)
from .spaces import (_HIGHER_CHILD, _LOWER_CHILD, PRODUCT_CAP, SpaceGraph,
                     _centre_distances, _csr_from_edges, _group, _path_lengths,
                     _product_space, _radix_strides, _t_values, _within,
                     generate_net)

__all__ = [
    "MapRecord",
    "hd_cover_pipeline",
    "Tiling",
    "TileRecord",
    "NerveComplex",
    "build_h2_tiling",
    "assign_tile",
    "tiling_to_decomposition",
    "tree_walk",
    "walk_target",
    "brady_farb",
    "build_comb",
    "nerve_map",
    "GeodesicComb",
    "comb_level_points",
    "comb_level_bound",
]

# source edges one remeasure pass evaluates
_EDGE_BLOCK = 1 << 16

# half-disk descents one tile assignment may take
_MAX_DESCENT = 200

# relative distance from a half-disk radius or a slope threshold within
# which a batched tile assignment is re-decided by the scalar descent
_TIE_BAND = 1e-9

# tile kinds by integer code: merged near band, wedge, scallop
_KINDS = ("B1m", "A", "B")


# ---------------------------------------------------------------------------
# map records


@dataclass
class MapRecord:
    """Total point map between two space graphs, with measured behaviour.

    ``measured_lipschitz`` is the worst model-distance stretch over source
    edges; ``measured_max_fiber`` the largest preimage cardinality.  Both
    are recomputed at construction time, never trusted from files.
    ``image`` holds ``assignment`` as a read-only int64 array, converted
    once at construction.
    """

    source: SpaceGraph
    target: SpaceGraph
    assignment: list[int]
    provenance: dict = field(default_factory=dict)
    measured_lipschitz: float = 0.0
    measured_max_fiber: int = 0
    image: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.assignment) != self.source.n:
            raise DomainError(
                f"assignment covers {len(self.assignment)} of {self.source.n} points")
        image = self.image = np.array(self.assignment, dtype=np.int64)
        image.flags.writeable = False
        bad = np.flatnonzero((image < 0) | (image >= self.target.n))
        if len(bad):
            raise DomainError(f"target index {int(image[bad[0]])} out of range")
        self.remeasure()

    def remeasure(self) -> None:
        image = self.image
        indptr, nbr, n = self.source.indptr, self.source.indices, self.source.n
        lip = 0.0
        # source edges i <= j, read from the adjacency in row blocks
        rows = max(1, _EDGE_BLOCK // max(1, self.source.degree_bound))
        for lo in range(0, n, rows):
            hi = min(n, lo + rows)
            i = np.repeat(np.arange(lo, hi), np.diff(indptr[lo:hi + 1]))
            j = nbr[indptr[lo]:indptr[hi]]
            i, j = i[j >= i], j[j >= i]
            # an edge whose ends share an image point stretches by 0
            moved = image[i] != image[j]
            if not moved.all():
                i, j = i[moved], j[moved]
            ds = self.source.distances(i, j)
            dt = self.target.distances(image[i], image[j])
            ratio = np.divide(dt, ds, out=np.zeros_like(dt), where=ds > 0)
            lip = max(lip, float(ratio.max(initial=0.0)))
        self.measured_lipschitz = lip
        self.measured_max_fiber = int(self.fiber_sizes().max())

    def adjacent_steps(self) -> bool:
        """Whether consecutive source points map to target points 1 apart."""
        image = self.image
        return bool((self.target.distances(image[:-1], image[1:]) == 1.0).all())

    def fiber_sizes(self) -> np.ndarray:
        return np.bincount(self.image, minlength=self.target.n)


# ---------------------------------------------------------------------------
# the half-plane tiling


@dataclass(frozen=True)
class TileRecord:
    kind: str            # "A" | "B" | "B1"
    matrix: tuple        # ((a, b), (c, d)), det = 1
    depth: int
    mirrored: bool       # composed with reflection in the y-axis


@dataclass
class Tiling:
    """Two-coloured tiling of the half-plane at scale r.

    The fundamental strip splits at slopes lam1/lam3 into a near band,
    a wedge, and a scallop region bounded below by semicircles S_n with
    feet at dilation^n; each semicircle bounds a half-disk carrying a
    rescaled copy of the whole picture.
    """

    r: float
    lambdas: list[float]             # sinh(k*r), k = 0..4
    dilation: float                  # semicircle period x
    window: dict
    coloring: dict = field(default_factory=lambda: {"A": 0, "B": 1, "B1": 1})

    @property
    def circle0(self) -> tuple[float, float]:
        c = (1.0 + self.dilation) / 2.0
        return c, (self.dilation - 1.0) / 2.0

    @cached_property
    def tiles(self) -> list[TileRecord]:
        """Tiles down to the window's Euclidean resolution, enumerated on
        first read.  Point-to-tile assignment descends analytically and
        never reads them; they are the exported picture of the tiling."""
        x = self.dilation
        radius = float(self.window.get("radius", 8.0))
        resolution = float(self.window.get("resolution", math.exp(-radius / 2.0)))
        # horizontal reach of the window ball about (0; 1)
        x_extent = math.sinh(radius) * 1.05 + 2.0
        c0, rho0 = self.circle0
        logx = math.log(x)
        # Euclidean disk of the hyperbolic window ball about (0; 1)
        ball_c, ball_r = math.cosh(radius), math.sinh(radius)

        def meets_window(c: float, rho: float) -> bool:
            return math.hypot(c, ball_c) <= rho + ball_r + resolution

        tiles: list[TileRecord] = [TileRecord("B1", _identity(), 0, False)]
        ident = _identity()
        for mirrored in (False, True):
            tiles.append(TileRecord("A", ident, 0, mirrored))
            tiles.append(TileRecord("B", ident, 0, mirrored))
        # enumerate descended copies that are wide enough to resolve and
        # whose half-disk meets the window ball
        stack: list[tuple[tuple, float, int, bool]] = []
        n_hi = int(math.floor(math.log(x_extent) / logx)) + 1
        n_lo = int(math.ceil(math.log(max(resolution / rho0, 1e-300)) / logx)) - 1
        for mirrored in (False, True):
            for n in range(n_lo, n_hi + 1):
                rho = x ** n * rho0
                c = x ** n * c0
                if meets_window(c, rho):
                    stack.append((_descend_matrix(x, n), rho, 1, mirrored))
        # the children m * D_n of a parent m for every n at once; the image
        # of the y-axis under a child is the circle through m(0) = b/d and
        # m(inf) = a/c, centred on the real axis
        # (empty when the window is too small for any descent)
        e, f, g, h = np.array([[v for row in _descend_matrix(x, n) for v in row]
                               for n in range(n_lo, n_hi + 1)],
                              dtype=float).reshape(-1, 4).T
        while stack:
            m, rho, depth, mirrored = stack.pop()
            if 2.0 * rho < resolution or depth > 60:
                continue
            tiles.append(TileRecord("A", m, depth, mirrored))
            tiles.append(TileRecord("B", m, depth, mirrored))
            (a, b), (c, d) = m
            ca, cb = a * e + b * g, a * f + b * h
            cc, cd = c * e + d * g, c * f + d * h
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                z0 = np.where(cd != 0, cb / cd, math.inf)
                zinf = np.where(cc != 0, ca / cc, math.inf)
                finite = np.isfinite(z0) & np.isfinite(zinf)
                crho = np.where(finite, np.abs(zinf - z0) / 2.0, math.inf)
                cen = np.where(finite, (z0 + zinf) / 2.0, 0.0)
                # numpy's hypot can differ from math.hypot in the last bit:
                # a loose prefilter, then the scalar test
                reach = (crho + ball_r + resolution) * (1.0 + 1e-9)
                live = (crho >= resolution / 2.0) & (np.hypot(cen, ball_c) <= reach)
            for k in np.flatnonzero(live).tolist():
                if meets_window(float(cen[k]), float(crho[k])):
                    child = ((float(ca[k]), float(cb[k])),
                             (float(cc[k]), float(cd[k])))
                    stack.append((child, float(crho[k]), depth + 1, mirrored))
        return tiles


def _solve_dilation(r: float, tol: float = 1e-12) -> float:
    """Dilation factor x > 1 making S0 = ((1,0),(x,0)) tangent to the
    slope-sinh(4r) ray, found by bisection on the tangency residual."""
    cosh4r = math.cosh(4.0 * r)

    def residual(x: float) -> float:
        return (1.0 + x) / 2.0 - ((x - 1.0) / 2.0) * cosh4r

    lo, hi = 1.0, 2.0
    while residual(hi) > 0:
        hi *= 2.0
        if hi > 1e9:
            raise NumericError("tangency bracket not found")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    else:
        raise NumericError("tangency bisection did not converge")
    return 0.5 * (lo + hi)


def _descend_matrix(x: float, n: int) -> tuple:
    """Orientation-preserving map of the right half-plane onto the open
    half-disk under S_n: 0 -> x^n, infinity -> x^{n+1}, normalised."""
    s = math.sqrt(x ** n * (x - 1.0))
    return ((x ** (n + 1) / s, x ** n / s), (1.0 / s, 1.0 / s))


def _ascend(z: complex, x: float, n: int) -> complex:
    # inverse of _descend_matrix(x, n) applied to z
    (a, b), (c, d) = _descend_matrix(x, n)
    return (d * z - b) / (-c * z + a)


def assign_tile(tiling: Tiling, px: float, py: float) -> tuple:
    """Tile id of a half-plane point: ("B1m",) for the merged near band,
    otherwise (kind, side, descent prefix).  Deterministic; points on a
    bounding circle stay with the outer level."""
    lam1, lam3 = tiling.lambdas[1], tiling.lambdas[3]
    x = tiling.dilation
    logx = math.log(x)
    c0 = (1.0 + x) / 2.0
    rho0 = (x - 1.0) / 2.0
    side = "L" if px < 0 else "R"
    z = complex(abs(px), py)
    prefix: list[int] = []
    for _ in range(_MAX_DESCENT):
        if z.real > 0:
            n_guess = math.floor(math.log(z.real) / logx)
            inside = None
            for n in (int(n_guess) - 1, int(n_guess), int(n_guess) + 1):
                scale = x ** n
                dz = z - complex(scale * c0, 0.0)
                if abs(dz) < scale * rho0:
                    inside = n
                    break
            if inside is not None:
                z = _ascend(z, x, inside)
                prefix.append(inside)
                continue
        slope = z.real / z.imag
        if slope <= lam1:
            if not prefix:
                return ("B1m",)
            return ("B", side, tuple(prefix[:-1]))
        if slope <= lam3:
            return ("A", side, tuple(prefix))
        return ("B", side, tuple(prefix))
    raise AssignmentError(f"descent did not terminate at ({px}, {py})",
                          point=(px, py))


def build_h2_tiling(r: float, window: dict) -> Tiling:
    """Two-coloured tiling at scale r over a window ball about (0; 1).

    Only the slopes and the dilation are computed here: points find their
    tile by analytic descent (:func:`assign_tile`), and the tile list of
    :attr:`Tiling.tiles` is enumerated when it is first read.
    """
    if r <= 0:
        raise UnsupportedError("r must be positive")
    return Tiling(r=r, lambdas=[math.sinh(k * r) for k in range(5)],
                  dilation=_solve_dilation(r), window=dict(window))


def _identity() -> tuple:
    return ((1.0, 0.0), (0.0, 1.0))


def _complex_quotient(ar, ai, br, bi) -> tuple[np.ndarray, np.ndarray]:
    """(ar + i ai) / (br + i bi) on arrays, in CPython's complex division
    (Smith's algorithm), so that it matches the scalar ``/`` bit for bit."""
    big = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(big, bi / br, br / bi)
        denom = np.where(big, br + bi * ratio, br * ratio + bi)
        return (np.where(big, ar + ai * ratio, ar * ratio + ai) / denom,
                np.where(big, ai - ar * ratio, ai * ratio - ar) / denom)


def _per_exponent(table, n: np.ndarray) -> np.ndarray:
    """Rows ``table(k)`` of the scalar function ``table`` at every entry of
    ``n``, evaluated once per exponent k from ``n.min()`` to ``n.max()``.

    The range is narrow: the descent's exponents are floor(log_x(re z))
    +- 1 of points inside the window and of their images, so it spans
    about log(max re z / min re z) / log x integers (at most 263 on the
    radius-11 net at r = 1, against 128,849 entries), and at most about
    1500 / log x for any positive double re z.
    """
    if not len(n):
        return np.zeros(0)
    lo = int(n.min())
    return np.array([table(k) for k in range(lo, int(n.max()) + 1)],
                    dtype=float)[n - lo]


def _assign_tiles(tiling: Tiling, xs: np.ndarray, ys: np.ndarray):
    """:func:`assign_tile` of many points at once, as integer tile codes.

    Returns ``(kind, side, length, prefix)``, one entry per point in each
    array: ``kind`` is 0 for the merged near band "B1m", 1 for a wedge "A"
    and 2 for a scallop "B"; ``side`` is 1 for "R" and 0 for "L" (and in
    the near band); ``length`` is the length of the descent prefix, and
    ``prefix[k]`` holds its k-th entry where the prefix is longer than k
    and 0 elsewhere.

    The descent runs on the rows still descending and replays the scalar
    complex arithmetic on real arrays, so each row follows the scalar path.
    A row whose half-disk distance or slope lies within a relative
    ``_TIE_BAND`` of its threshold is re-decided by :func:`assign_tile`.
    """
    lam1, lam3 = tiling.lambdas[1], tiling.lambdas[3]
    x = tiling.dilation
    logx = math.log(x)
    c0, rho0 = tiling.circle0
    n = len(ys)
    kind = np.zeros(n, dtype=np.int8)
    side = (~(xs < 0)).astype(np.int8)
    length = np.zeros(n, dtype=np.int64)
    prefix: list[np.ndarray] = []
    tied = np.zeros(n, dtype=bool)
    rows = np.arange(n)
    # copies: the descent rewrites z in place
    zr, zi = np.abs(xs), np.array(ys, dtype=float)
    for depth in range(_MAX_DESCENT):
        re, im = zr[rows], zi[rows]
        near = np.zeros(len(rows), dtype=bool)
        hit = np.zeros(len(rows), dtype=bool)
        into = np.zeros(len(rows), dtype=np.int64)
        # the half-disks S_{g-1}, S_g, S_{g+1} about g = floor(log_x(re z));
        # numpy's log may put g one off the scalar guess, but both windows
        # hold the one half-disk that can contain z
        pos = np.flatnonzero(re > 0)
        guess = np.floor(np.log(re[pos]) / logx).astype(np.int64)
        for cand in (guess - 1, guess, guess + 1):
            scale = _per_exponent(lambda k: x ** k, cand)
            dist, lim = np.hypot(re[pos] - scale * c0, im[pos]), scale * rho0
            near[pos] |= np.abs(dist - lim) <= _TIE_BAND * lim
            first = (dist < lim) & ~hit[pos]
            into[pos[first]] = cand[first]
            hit[pos[first]] = True
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = re / im
        near |= ~hit & (~np.isfinite(slope)
                        | (np.abs(slope - lam1) <= _TIE_BAND * lam1)
                        | (np.abs(slope - lam3) <= _TIE_BAND * lam3))
        tied[rows[near]] = True
        # rows outside every half-disk take the kind of their slope band
        stop = ~hit & ~near
        out, s = rows[stop], slope[stop]
        band = s <= lam1
        kind[out] = np.where(band, 0 if depth == 0 else 2,
                             np.where(s <= lam3, 1, 2))
        length[out] = depth - (band & (depth > 0))
        side[out[band & (depth == 0)]] = 0
        # rows inside a half-disk ascend out of it
        go = hit & ~near
        rows, ns = rows[go], into[go]
        if not len(rows):
            break
        a, b, c, d = _per_exponent(
            lambda k: [v for row in _descend_matrix(x, k) for v in row], ns).T
        zr[rows], zi[rows] = _complex_quotient(d * zr[rows] - b, d * zi[rows],
                                               -c * zr[rows] + a, -c * zi[rows])
        prefix.append(np.zeros(n, dtype=np.int64))
        prefix[depth][rows] = ns
    stuck = int(rows[0]) if len(rows) else n
    for j in np.flatnonzero(tied[:stuck]).tolist():
        tid = assign_tile(tiling, float(xs[j]), float(ys[j]))
        code = _KINDS.index(tid[0])
        kind[j], side[j] = code, 0 if code == 0 else "LR".index(tid[1])
        length[j] = 0 if code == 0 else len(tid[2])
        for k in range(len(prefix), int(length[j])):
            prefix.append(np.zeros(n, dtype=np.int64))
        for k in range(int(length[j])):
            prefix[k][j] = tid[2][k]
    if stuck < n:
        px, py = float(xs[stuck]), float(ys[stuck])
        raise AssignmentError(f"descent did not terminate at ({px}, {py})",
                              point=(px, py))
    # entries past a prefix (the dropped last entry of a near-band scallop)
    for k, col in enumerate(prefix):
        col[length <= k] = 0
    return kind, side, length, prefix[:int(length.max(initial=0))]


def _tile_id(kind: int, side: int, prefix: list[int]) -> tuple:
    """The :func:`assign_tile` id of one tile code."""
    if kind == 0:
        return ("B1m",)
    return (_KINDS[kind], "LR"[side], tuple(prefix))


def tiling_to_decomposition(tiling: Tiling, net: SpaceGraph) -> ColoredDecomposition:
    """Assign every net point to its tile; colours: wedges 0, scallops 1.

    Pieces are the tiles met by the net, ordered by (kind, prefix length,
    side, prefix) with the merged near band first.
    """
    if net.model != "h2":
        raise ValueError("tiling decompositions need a half-plane net")
    xs, ys = net._coords()
    kind, side, length, prefix = _assign_tiles(tiling, xs[:, 0], ys)
    keys = [kind, length, side, *prefix]
    # points grouped by tile code, each group in index order
    order = np.lexsort(keys[::-1])
    change = np.zeros(net.n - 1, dtype=bool)
    for col in keys:
        ranked = col[order]
        change |= ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(np.concatenate([[True], change]))
    first = order[starts]
    # each tile's prefix entries, one row of its first point's prefix
    heads = (np.column_stack([col[first] for col in prefix]).tolist() if prefix
             else [[]] * len(first))
    tids = [_tile_id(k, s, e[:m])
            for k, s, m, e in zip(kind[first].tolist(), side[first].tolist(),
                                  length[first].tolist(), heads)]
    return ColoredDecomposition(
        space=net, pieces=PieceView(np.append(starts, net.n), order, net.n),
        colors=[tiling.coloring["B1" if t[0] == "B1m" else t[0]] for t in tids],
        r=tiling.r, d=1, partition=True,
        provenance={"construction": "h2_tiling", "r": tiling.r,
                    "dilation": tiling.dilation,
                    "labels": [repr(t) for t in tids]},
    )


# ---------------------------------------------------------------------------
# the spine walk into the 3-regular tree


def _level(h: np.ndarray) -> np.ndarray:
    """floor(log2 h) of positive heap indices (exact below 2^53), -1 at 0."""
    return np.frexp(h.astype(float))[1].astype(np.int64) - 1


def _walk(n_max: int) -> tuple[SpaceGraph, np.ndarray, int]:
    """The walk's target, the target index of each step of the walk, and
    the step at which the integer 0 sits.

    Spine vertex k has the word 0101.. (k >= 0) or 1010.. (k < 0) of
    length |k|; the depth-|k| binary tree hung below its letter 2 is
    toured depth first, lower child letter first.  A vertex is keyed by
    (k, h): h = 0 on the spine, else the heap index of its tree position
    (root 1, children 2h and 2h + 1).  Target indices follow the order of
    first visit, and the target's words are read off the keys.
    """
    if n_max < 1:
        raise UnsupportedError("n_max must be >= 1")
    # 3*2^(n+2) - 2n - 11 steps; the count only grows with n, and passes
    # any cap by n = 64, so it is taken there at most
    m = min(n_max, 64)
    size = 3 * 2 ** (m + 2) - 2 * m - 11
    if size > PRODUCT_CAP:
        raise SizeCapError(f"walk of n_max {n_max} takes {size} steps, "
                           f"over the cap {PRODUCT_CAP}")
    # closed depth-first tours of the depth-d binary trees, as heap
    # indices: the root, the left tour, the root, the right tour, the root
    # (moving a tour under a child puts the child's bit below the top bit)
    tours = [np.ones(1, dtype=np.int64)]
    for _ in range(n_max):
        h = tours[-1]
        top = np.left_shift(1, _level(h))
        tours.append(np.concatenate([[1], h + top, [1], h + 2 * top, [1]]))
    span = 2 ** (n_max + 1)  # every heap index stays below it
    # each spine vertex's tour, then the steps to that spine vertex and
    # the next; the walk ends at the root hung below spine vertex n_max
    parts = []
    for k in range(-n_max, n_max):
        base = (k + n_max) * span
        parts += [tours[abs(k)] + base, np.array([base, base + span])]
    parts.append(np.array([2 * n_max * span + 1]))
    keys = np.concatenate(parts)
    zero_pos = sum(map(len, parts[:2 * n_max]))
    # target indices in the order of first visit
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    vk, vh = np.divmod(uniq[order], span)
    vk -= n_max
    reach = np.abs(vk)
    below = _level(vh)  # letters below the hung root; -1 on the spine
    depth = reach + 1 + below
    # letter[h]: the last letter of the path from a hung root (letter 2)
    # to heap index h; each bit below the top bit takes the lower (0) or
    # the higher (1) of the two letters that may follow
    letter = np.full(span, 2, dtype=np.int8)
    for t in range(1, n_max + 1):
        h = np.arange(1 << t, 2 << t)
        up = letter[h >> 1]
        letter[h] = np.where(h & 1, _HIGHER_CHILD[up], _LOWER_CHILD[up])
    # each word: |k| spine letters, then letter[] along the path to h
    words = np.full((len(uniq), int(depth.max()) + 1), -1, dtype=np.int8)
    columns = np.arange(words.shape[1])
    spine = (columns % 2).astype(np.int8)[None, :] ^ (vk < 0).astype(np.int8)[:, None]
    on_spine = columns[None, :] < reach[:, None]
    words[on_spine] = spine[on_spine]
    for c in range(int(below.max()) + 1):
        rows = np.flatnonzero(below >= c)
        words[rows, reach[rows] + c] = letter[vh[rows] >> (below[rows] - c)]
    seq = rank[inverse]
    indptr, indices = _csr_from_edges(len(uniq), seq[:-1], seq[1:])
    ks = np.arange(-n_max, n_max + 1)
    at = rank[np.searchsorted(uniq, (ks + n_max) * span)].tolist()
    root_at = rank[np.searchsorted(uniq, (ks + n_max) * span + 1)].tolist()
    target = SpaceGraph(
        model="t3", indptr=indptr, indices=indices, sep=1.0,
        edge_threshold=1.0, _codes=(words, depth),
        window={"kind": "walk_subtree", "n_max": n_max,
                "spine": dict(zip(ks.tolist(), at)),
                "roots": dict(zip(ks.tolist(), root_at))},
    )
    return target, seq, zero_pos


def walk_target(n_max: int) -> SpaceGraph:
    """The target of :func:`tree_walk`, built without its source."""
    return _walk(n_max)[0]


def tree_walk(n_max: int) -> MapRecord:
    """Adjacent-step walk of an integer window through the 3-regular tree.

    Spine vertices carry alternating words, vertex k hangs a depth-|k|
    binary tree off its third direction; the walk closes a depth-first
    tour of each hung tree before stepping to the next spine vertex.
    Every tree vertex is met at most three times.  A walk of more than
    ``PRODUCT_CAP`` steps is refused with :class:`SizeCapError` before
    any array is built.
    """
    target, seq, zero_pos = _walk(n_max)
    lo = -zero_pos
    hi = len(seq) - 1 - zero_pos
    source = generate_net("z", {"lo": lo, "hi": hi})
    return MapRecord(
        source=source, target=target, assignment=seq.tolist(),
        provenance={"construction": "tree_walk", "n_max": n_max,
                    "domain": [lo, hi]},
    )


def walk_value(walk: MapRecord, b: int) -> int:
    """Target index of integer b under the walk."""
    lo = walk.provenance["domain"][0]
    return walk.assignment[b - lo]


# ---------------------------------------------------------------------------
# coordinate-sharing embedding into products of planes


def _distinct_rows(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rep, inv)`` for the distinct float pairs (x[k], y[k]): ``rep``
    holds one row of each, and row k equals row ``rep[inv[k]]``."""
    order = np.lexsort((x, y))
    xo, yo = x[order], y[order]
    new = np.r_[True, (xo[1:] != xo[:-1]) | (yo[1:] != yo[:-1])]
    inv = np.empty(len(x), dtype=np.int64)
    inv[order] = np.cumsum(new) - 1
    return order[new], inv


def brady_farb(source: SpaceGraph, factors: Sequence[SpaceGraph],
               window: Optional[dict] = None) -> MapRecord:
    """Snap (x_1..x_{d-1}; y) onto the tuple of nearest factor net points
    ((x_i; y))_i.  Each factor snaps each distinct projection (x_i; y)
    once, and the source rows share its result.

    The target is the image product: the distinct snapped tuples, as
    factor-index tuples in key order, with the adjacency they induce in
    the l1-product of the factors.  ``window`` = {"kind": "l1_ball",
    "radius": R, "centers": [i...]} is the product window (as in
    :func:`~coarselab.spaces.build_product`) that the image must lie in;
    the first tuple outside it raises :class:`DomainError`.  The target's
    window descriptor is that window (or the full product's), with the
    factors and ``"image": True``.
    """
    d = source.window.get("d", 2)
    if len(factors) != d - 1:
        raise ArityError(f"need {d - 1} plane factors, got {len(factors)}")
    xs, ys = source._coords()
    # the window test and nearest_points decide each row from its own
    # projection (x_i; y) alone: run them once per distinct projection
    groups = [_distinct_rows(xs[:, i], ys) for i in range(len(factors))]
    outside = np.zeros((len(ys), len(factors)), dtype=bool)
    for i, (f, (rep, inv)) in enumerate(zip(factors, groups)):
        fwin = f.window
        if fwin.get("kind") == "ball":
            bx, by = f._coords()
            b = fwin["basepoint"]
            t = _t_values(xs[rep, i:i + 1], ys[rep],
                          np.broadcast_to(bx[b], (len(rep), 1)),
                          np.full(len(rep), by[b]))
            outside[:, i] = ~_within(t, np.full(len(rep), fwin["radius"] + f.sep))[inv]
    if outside.any():
        j, i = np.argwhere(outside)[0]
        raise DomainError(
            f"projection ({float(xs[j, i]):.3f}; {float(ys[j]):.3f}) falls outside"
            f" a radius-{factors[i].window['radius']} factor window")
    snapped = np.column_stack([f.nearest_points(xs[rep, i:i + 1], ys[rep])[inv]
                               for i, (f, (rep, inv)) in
                               enumerate(zip(factors, groups))])
    wdesc = {"kind": "full"}
    if window is not None:
        radius, centers = float(window["radius"]), list(window["centers"])
        # summed left to right from 0, as build_product sums the parts
        total = sum(dv[snapped[:, k]] for k, dv in
                    enumerate(_centre_distances(factors, centers)))
        outside = ~(total <= radius)
        if outside.any():
            c = tuple(snapped[np.argmax(outside)].tolist())
            raise DomainError(f"image tuple {c} outside the product window")
        wdesc = {"kind": "l1_ball", "radius": radius, "centers": centers}
    sizes = [f.n for f in factors]
    keys, rows = np.unique(snapped @ _radix_strides(sizes), return_inverse=True)
    target = _product_space(
        factors, np.column_stack(np.unravel_index(keys, sizes)),
        wdesc | {"factors": list(factors), "image": True})
    return MapRecord(source=source, target=target, assignment=rows.tolist(),
                     provenance={"construction": "brady_farb", "d": d})


def hd_cover_pipeline(d: int, radius: float, r: float, *,
                      source_sep: float = 0.35, factor_sep: float = 1.0,
                      snap_slack: float = 2.5) -> dict:
    """Coloured decomposition of a half-space window, pulled back through
    the plane-product embedding of amplified factor tilings, with every
    intermediate artifact: the source net, tiling, factor nets and
    decompositions, the embedding map, and its target (``"product"``) with
    the product decomposition.  d = 2 degenerates to the plane tiling
    itself.

    The product window is the l1 ball of radius ``radius + snap_slack``
    about the factor basepoints, but only its part the embedding meets is
    built: ``"product"`` is the image product of :func:`brady_farb`, with
    induced adjacency.  Its decomposition keeps every colour-diagonal piece
    of the whole window, restricted to the image (so some are empty), and
    the pulled pieces name their target pieces by those window ids.
    """
    if d < 2:
        raise UnsupportedError("d must be >= 2")
    if d == 2:
        net = generate_net("h2", {"kind": "ball", "radius": radius},
                           sep=factor_sep)
        tiling = build_h2_tiling(r, {"radius": radius})
        decomp = tiling_to_decomposition(tiling, net)
        return {"decomposition": decomp, "net": net, "tiling": tiling,
                "map": None, "product": None, "factors": [net]}
    if d != 3:
        raise UnsupportedError("only d in {2, 3} windows are generated")
    # every factor is the same plane window: build it, its tiling
    # decomposition and its amplification once
    factor = generate_net("h2", {"kind": "ball", "radius": radius},
                          sep=factor_sep)
    tiling = build_h2_tiling(r, {"radius": radius})
    amplified = kolmogorov_amplify(tiling_to_decomposition(tiling, factor))
    factors = [factor] * (d - 1)
    source = generate_net("hd", {"kind": "birad", "radius": radius, "d": d},
                          sep=source_sep, edge_threshold=2 * source_sep)
    emb = brady_farb(source, factors, window={
        "kind": "l1_ball", "radius": radius + snap_slack,
        "centers": [f.window["basepoint"] for f in factors]})
    prod_decomp = product_decomposition(amplified, amplified, emb.target)
    pulled = pullback_decomposition(emb, prod_decomp)
    return {"decomposition": pulled, "net": source, "tiling": tiling,
            "map": emb, "product": emb.target,
            "product_decomposition": prod_decomp,
            "factors": factors, "factor_decompositions": [amplified] * (d - 1)}


# ---------------------------------------------------------------------------
# combs


def build_comb(d: int, extent: int) -> SpaceGraph:
    """Simplicial comb of step d, truncated at ``extent`` along the base
    and every hair; hair roots are implicit in the node payloads."""
    return generate_net("comb", {"d": d, "extent": extent})


# ---------------------------------------------------------------------------
# nerve complexes


@dataclass
class NerveComplex:
    vertices: list[int]
    simplices: set[frozenset[int]]
    coordinates: list[dict[int, float]]
    dimension: int


def nerve_map(space: SpaceGraph, cover: Cover) -> NerveComplex:
    """Barycentric map of a cover: each point weighs the pieces that hold
    it by its graph distance to their complements, normalised to sum 1.

    A shortest path from x in piece P to the nearest point outside P stays
    in P until its last step: the numerator of the entry (P, x) is 1 + its
    distance in the family's entry graph to P's boundary entries (those
    with fewer neighbours in P than in the space), all found by one
    search, or 1 where it reaches none (P holds x's whole component).
    """
    pieces = cover.pieces
    graph = _entry_graph(pieces.ptr, pieces.pts, space.indptr, space.indices)
    boundary = np.diff(graph.indptr) < np.diff(space.indptr)[pieces.pts]
    d = _path_lengths(graph, np.flatnonzero(boundary), min_only=True)
    num = np.where(d < 0, 1, d + 1)  # whole numbers: each point's sum is exact
    weight = num / np.bincount(pieces.pts, weights=num)[pieces.pts]
    # the entries by point, in increasing piece id
    ptr, entry = _group(pieces.pts, np.arange(len(num)), space.n)
    pid, weight = pieces.owners()[entry].tolist(), weight[entry].tolist()
    rows = list(map(slice, ptr[:-1].tolist(), ptr[1:].tolist()))
    return NerveComplex(vertices=list(range(len(pieces))),
                        simplices=set(map(frozenset, map(pid.__getitem__, rows))),
                        coordinates=[dict(zip(pid[r], weight[r])) for r in rows],
                        dimension=int(np.diff(ptr).max()) - 1)


def nerve_lipschitz(space: SpaceGraph, nerve: NerveComplex) -> float:
    """Max l2 displacement of barycentric coordinates over graph edges: one
    pass over the CSR edges (i, j), j > i, with the coordinates read into a
    sparse matrix once."""
    from scipy.sparse import csr_array

    coords = nerve.coordinates
    ptr = np.cumsum([0] + list(map(len, coords)))
    c = csr_array(([v for x in coords for v in x.values()],
                   [k for x in coords for k in x], ptr),
                  shape=(space.n, len(nerve.vertices)))
    i = np.repeat(np.arange(space.n), np.diff(space.indptr))
    up = space.indices > i
    step = c[i[up]] - c[space.indices[up]]
    return float(np.sqrt((step * step).sum(axis=1)).max(initial=0.0))


# ---------------------------------------------------------------------------
# geodesic combs in the half-plane, with exact level-set counting


@dataclass
class GeodesicComb:
    """Spine geodesic with orthogonal hair geodesics every D units.

    The spine is the semicircle of Euclidean radius R about the origin;
    hairs hang inside the dome (each descends monotonically from its
    root to a foot on the x-axis), so every horizontal line meets each
    hair at most once.  ``phase`` shifts the arclength parametrisation.
    """

    R: float
    D: float
    i_range: tuple[int, int]
    phase: float = 0.0

    def hair_heights(self) -> list[tuple[int, float]]:
        """Height of each hair's root point (its maximum inside the dome);
        sin(theta(s)) = sech(s), so the height is R / cosh(s)."""
        out = []
        for i in range(self.i_range[0], self.i_range[1] + 1):
            s = self.phase + i * self.D
            e = math.exp(-abs(s))
            out.append((i, self.R * 2.0 * e / (1.0 + e * e)))
        return out


def comb_level_points(comb: GeodesicComb, c: float,
                      a: float) -> tuple[int, float]:
    """Exact number of comb points at height e^c within the part of the
    comb at heights <= e^a (dome case: the cut sits above the spine apex,
    so that part is connected).  Returns (count, a0) where e^{a0} is the
    top height the component reaches."""
    if math.exp(a) < comb.R:
        raise ValueError("cut below the apex: the region is not connected")
    level = math.exp(c)
    a0 = math.log(comb.R)  # the spine apex is the highest point
    count = 2 if level < comb.R else (1 if level == comb.R else 0)
    for _i, h in comb.hair_heights():
        # hairs descend monotonically from their root height to the axis
        if level <= h:
            count += 1
    return count, a0


def comb_level_bound(comb: GeodesicComb, c: float, a0: float) -> float:
    return 3.0 + 2.0 * math.log(2.0) / comb.D + 2.0 * max(0.0, a0 - c) / comb.D

"""Covers, coloured decompositions, and the algebra between them.

Pieces are plain index sets over a :class:`~coarselab.spaces.SpaceGraph`.
Separation and disjointness are judged in the model metric (the window
is a sample of a continuous space); multiplicity is judged with graph
balls unless a caller asks for the model metric.  Every constructive
operation re-verifies its own postconditions before returning.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import (ArityError, DomainError, PreconditionError,
                     UnsupportedError)
from .spaces import SpaceGraph, _concat_csr, _csr_take

__all__ = [
    "Cover",
    "ColoredDecomposition",
    "NeighborhoodChain",
    "Violation",
    "r_multiplicity",
    "check_disjointness",
    "iterated_neighborhood",
    "greedy_decomposition",
    "kolmogorov_amplify",
    "product_decomposition",
    "pullback_cover",
    "pullback_decomposition",
    "refine_connected",
    "mesh_ball_cover",
]


@dataclass
class Cover:
    """Indexed family of point sets whose union is the whole space."""

    space: SpaceGraph
    pieces: list[frozenset[int]]
    labels: Optional[list[str]] = None

    def __post_init__(self):
        self.pieces = [frozenset(p) for p in self.pieces]
        if any(not p for p in self.pieces):
            raise ValueError("cover pieces must be non-empty")
        covered = set().union(*self.pieces) if self.pieces else set()
        if len(covered) != self.space.n:
            missing = next(i for i in range(self.space.n) if i not in covered)
            raise ValueError(f"cover misses point {missing}")

    def piece_of(self) -> list[list[int]]:
        """For each point, the sorted list of piece ids containing it."""
        ptr, pids = _membership(self.pieces, self.space.n)
        return [pids[a:b].tolist() for a, b in zip(ptr[:-1], ptr[1:])]


@dataclass
class ColoredDecomposition:
    """Pieces with colours 0..d; same-colour pieces claimed r-disjoint."""

    space: SpaceGraph
    pieces: list[frozenset[int]]
    colors: list[int]
    r: float
    d: int
    partition: bool = True
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.pieces = [frozenset(p) for p in self.pieces]
        if len(self.pieces) != len(self.colors):
            raise ValueError("one colour per piece required")
        if any(not 0 <= c <= self.d for c in self.colors):
            raise ValueError("colours must lie in 0..d")
        counts = np.diff(_membership(self.pieces, self.space.n)[0])
        if (counts == 0).any():
            missing = int(np.nonzero(counts == 0)[0][0])
            raise ValueError(f"decomposition misses point {missing}")
        if self.partition and (counts > 1).any():
            dup = int(np.nonzero(counts > 1)[0][0])
            raise ValueError(f"point {dup} lies in several pieces of a partition")

    def color_classes(self) -> list[set[int]]:
        """Union of pieces per colour, as point sets."""
        cls: list[set[int]] = [set() for _ in range(self.d + 1)]
        for piece, c in zip(self.pieces, self.colors):
            cls[c].update(piece)
        return cls

    def as_cover(self) -> Cover:
        return Cover(self.space, list(self.pieces))

    def coverage_counts(self) -> np.ndarray:
        """Number of colour classes (as point sets) containing each point."""
        out = np.zeros(self.space.n, dtype=np.int64)
        for cls in self.color_classes():
            out[list(cls)] += 1
        return out


@dataclass
class NeighborhoodChain:
    """Nested absorption levels of one piece under nearby-piece union."""

    base_piece: int
    s: float
    levels: list[frozenset[int]]
    truncated: bool


@dataclass
class Violation:
    piece_a: int
    piece_b: int
    distance: float


PieceFamily = Union[Cover, ColoredDecomposition]

# rows of one sparse product pass
_ROW_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# mesh ball covers


def mesh_ball_cover(space: SpaceGraph, R: int) -> Cover:
    """Cover by closed graph R-balls around a maximal R-separated vertex
    set, selected greedily in index order.  Maximality makes the centers
    an R-covering, so the R-balls cover the space."""
    if R < 1:
        raise UnsupportedError("R must be >= 1")
    step = _closed_adjacency(space)
    blocked = np.zeros(space.n, dtype=bool)
    centers: list[int] = []
    for lo in range(0, space.n, _ROW_BLOCK):
        # a center blocks everything within R-1 (their distance to it is < R)
        near = _ball_patterns(step, np.arange(lo, min(space.n, lo + _ROW_BLOCK)),
                              R - 1)
        ends = near.indptr.tolist()
        for v in range(lo, lo + near.shape[0]):
            if not blocked[v]:
                centers.append(v)
                blocked[near.indices[ends[v - lo]:ends[v - lo + 1]]] = True
    balls = _ball_patterns(step, np.asarray(centers, dtype=np.int64), R)
    return Cover(space=space, pieces=_frozensets(balls.indptr, balls.indices, space.n),
                 labels=[f"ball:{c}:{R}" for c in centers])


# ---------------------------------------------------------------------------
# multiplicity


def _membership(pieces: list[frozenset[int]], n: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Point-to-piece inversion as CSR: ``pids[ptr[x]:ptr[x + 1]]`` lists,
    in increasing order, the pieces that contain point x."""
    ends = np.cumsum(np.fromiter(map(len, pieces), dtype=np.int64,
                                 count=len(pieces)))
    pts = np.fromiter(itertools.chain.from_iterable(pieces), dtype=np.int64,
                      count=int(ends[-1]) if len(ends) else 0)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pts, minlength=n), out=ptr[1:])
    # the piece of each entry, entries in point order
    return ptr, np.searchsorted(ends, np.argsort(pts, kind="stable"), side="right")


def _frozensets(indptr: np.ndarray, indices: np.ndarray,
                n: int) -> list[frozenset[int]]:
    """CSR rows as frozensets.  Every piece holding a point shares one int
    object for it; a fresh object per entry would make a cover whose
    points lie in many pieces several times larger."""
    ids = list(range(n))
    ends = indptr.tolist()
    return [frozenset(map(ids.__getitem__, indices[a:b].tolist()))
            for a, b in zip(ends[:-1], ends[1:])]


def _closed_adjacency(space: SpaceGraph):
    """A + I of the space graph, as CSR: one step of a graph ball."""
    from scipy.sparse import identity

    return (space._as_csr() + identity(space.n, dtype=np.int8, format="csr")
            ).astype(bool).tocsr()


def _ball_patterns(step, rows: np.ndarray, r: int):
    """CSR rows holding the closed graph r-ball of each point of ``rows``."""
    from scipy.sparse import csr_matrix

    ball = csr_matrix((np.ones(len(rows), dtype=bool), rows,
                       np.arange(len(rows) + 1)), shape=(len(rows), step.shape[0]))
    for _ in range(r):
        ball = _pattern_product(ball, step)
    return ball


def _pattern_product(a, b):
    """Sparsity pattern of ``a @ b``, computed in row blocks.  Patterns
    are boolean: scipy sums booleans with ``or``, so no entry cancels."""
    from scipy.sparse import csr_matrix

    blocks = []
    for lo in range(0, a.shape[0], _ROW_BLOCK):
        part = a[lo:lo + _ROW_BLOCK] @ b
        blocks.append((part.indptr, part.indices))
    indptr, indices = _concat_csr(blocks)
    return csr_matrix((np.ones(len(indices), dtype=bool), indices, indptr),
                      shape=(a.shape[0], b.shape[1]))


def r_multiplicity(cover: PieceFamily, R: float,
                   metric: str = "graph") -> tuple[int, int]:
    """Max number of pieces met by a closed R-ball; returns (count, witness).

    ``metric="graph"`` uses graph balls of integer radius floor(R);
    ``metric="model"`` uses model-metric balls (useful at sub-edge scales).
    """
    if R < 0:
        raise UnsupportedError("R must be >= 0")
    space = cover.space
    pieces = cover.pieces
    if metric == "graph":
        from scipy.sparse import csr_matrix

        # row x of (A + I)^floor(R) M is nonzero at the pieces within
        # graph distance floor(R) of x
        mptr, mpid = _membership(pieces, space.n)
        met = csr_matrix((np.ones(len(mpid), dtype=bool), mpid, mptr),
                         shape=(space.n, len(pieces)))
        hit = np.diff(met.indptr)
        if R >= 1:
            step = _closed_adjacency(space)
            for _ in range(int(math.floor(R)) - 1):
                met = _pattern_product(step, met)
            # of the last product only the row counts are needed
            hit = np.concatenate([np.diff((step[lo:lo + _ROW_BLOCK] @ met).indptr)
                                  for lo in range(0, space.n, _ROW_BLOCK)])
        best = int(hit.argmax())
        return int(hit[best]), best
    if metric != "model":
        raise UnsupportedError(f"unknown metric {metric!r}")
    mptr, mpid = _membership(pieces, space.n)
    npieces = len(pieces)
    met = np.zeros(space.n, dtype=np.int64)
    for rows, indptr, nbr in space.neighbor_blocks(np.arange(space.n), R):
        row = np.repeat(np.arange(len(rows)), np.diff(indptr))
        owner, pid = _csr_take(mptr, mpid, nbr)
        distinct = np.unique(row[owner] * npieces + pid)
        met[rows] = np.bincount(distinct // npieces, minlength=len(rows))
    best = int(met.argmax())
    return int(met[best]), best


# ---------------------------------------------------------------------------
# disjointness


def check_disjointness(decomp: ColoredDecomposition,
                       r: Optional[float] = None) -> list[Violation]:
    """Exhaustively verify same-colour pieces sit >= r apart (model metric,
    default r = decomp.r).

    Scans every point's r-neighbourhood (:meth:`SpaceGraph.neighbor_blocks`)
    for points of a foreign same-colour piece, which finds exactly the
    violating piece pairs in any model.  Each comes with the distance of
    its closest point pair, in piece-pair order.
    """
    if r is None:
        r = decomp.r
    space = decomp.space
    mptr, mpid = _membership(decomp.pieces, space.n)
    colors = np.asarray(decomp.colors, dtype=np.int64)
    npieces = len(decomp.pieces)
    keys, dists = [], []
    for rows, indptr, nbr in space.neighbor_blocks(np.arange(space.n), r):
        x = np.repeat(rows, np.diff(indptr))
        keep = nbr >= x
        x, y = x[keep], nbr[keep]
        # every (piece of x, piece of y) combination of each point pair
        pair, px = _csr_take(mptr, mpid, x)
        sub, py = _csr_take(mptr, mpid, y[pair])
        pair, px = pair[sub], px[sub]
        foe = (colors[px] == colors[py]) & (px != py)
        pair, px, py = pair[foe], px[foe], py[foe]
        d = space.distances(x[pair], y[pair])
        close = d < r
        keys.append(np.minimum(px, py)[close] * npieces
                    + np.maximum(px, py)[close])
        dists.append(d[close])
    # the closest point pair of each piece pair, in piece-pair order
    keys, dists = np.concatenate(keys), np.concatenate(dists)
    order = np.lexsort((dists, keys))
    keys, dists = keys[order], dists[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return [Violation(k // npieces, k % npieces, d) for k, d in
            zip(keys[first].tolist(), dists[first].tolist())]


# ---------------------------------------------------------------------------
# iterated neighbourhoods


def iterated_neighborhood(family: PieceFamily, piece: int, s: float,
                          m: int) -> NeighborhoodChain:
    """Levels N^0..N^m: each next level unions all pieces meeting the
    closed s-neighbourhood of the previous one (model metric)."""
    if m < 0:
        raise UnsupportedError("m must be >= 0")
    if s < 1:
        raise UnsupportedError("s must be >= 1")
    space = family.space
    mptr, mpid = _membership(family.pieces, space.n)
    margins = space.margins()
    thr = max(s, space.edge_threshold)
    level = set(family.pieces[piece])
    levels = [frozenset(level)]
    absorbed = np.zeros(len(family.pieces), dtype=bool)
    absorbed[piece] = True
    truncated = bool(margins[list(level)].min() <= thr)
    for _ in range(m):
        hood = np.unique(space.neighbors(sorted(level), s)[1])
        met = np.unique(_csr_take(mptr, mpid, hood)[1])
        for pid in met[~absorbed[met]].tolist():
            absorbed[pid] = True
            level.update(family.pieces[pid])
        levels.append(frozenset(level))
        if margins[list(level)].min() <= thr:
            truncated = True
    return NeighborhoodChain(base_piece=piece, s=s, levels=levels,
                             truncated=truncated)


# ---------------------------------------------------------------------------
# greedy decomposition from a bounded-multiplicity cover


def greedy_decomposition(cover: Cover, R: float, n: int) -> ColoredDecomposition:
    """Extract an (R, n) coloured decomposition from a cover.

    Requires the cover to have 2R-multiplicity at most n+1 (model balls).
    Colour classes are maximal R-separated collections of whole pieces,
    taken in piece-index order; points still uncovered are patched with
    clipped pieces V \\cap B(x, R), processed in point-index order.
    """
    space = cover.space
    mult, witness = r_multiplicity(cover, 2 * R, metric="model")
    if mult > n + 1:
        raise PreconditionError(
            f"cover has 2R-multiplicity {mult} > n+1 = {n + 1}", witness=witness)

    piece_sets = [set(p) for p in cover.pieces]
    assigned: list[Optional[int]] = [None] * len(piece_sets)  # piece -> colour

    def separated(pid: int, members: list[int]) -> bool:
        return all(
            space.set_distance(piece_sets[pid], piece_sets[q], upper=R) >= R
            for q in members)

    classes: list[list[int]] = []
    for color in range(n + 1):
        members: list[int] = []
        for pid in range(len(piece_sets)):
            if assigned[pid] is None and separated(pid, members):
                assigned[pid] = color
                members.append(pid)
        classes.append(members)

    out_pieces: list[set[int]] = []
    out_colors: list[int] = []
    out_sources: list[int] = []
    class_points: list[set[int]] = []
    for members in classes:
        pts: set[int] = set()
        for pid in members:
            out_pieces.append(set(piece_sets[pid]))
            out_colors.append(len(class_points))
            out_sources.append(pid)
            pts |= piece_sets[pid]
        class_points.append(pts)

    covered = set().union(*class_points) if class_points else set()
    owner = cover.piece_of()
    todo = [x for x in range(space.n) if x not in covered]
    ptr2, near2 = space.neighbors(todo, 2 * R)
    ptr1, near1 = space.neighbors(todo, R)
    for i, x in enumerate(todo):
        if x in covered:
            continue
        vid = owner[x][0]
        ball2 = set(near2[ptr2[i]:ptr2[i + 1]].tolist())
        free = None
        for c, pts in enumerate(class_points):
            if not (ball2 & pts):
                free = c
                break
        if free is None:
            raise PreconditionError(
                f"no colour class avoids the 2R-ball of point {x}", witness=x)
        clipped = piece_sets[vid] & set(near1[ptr1[i]:ptr1[i + 1]].tolist())
        out_pieces.append(clipped)
        out_colors.append(free)
        out_sources.append(vid)
        class_points[free] |= clipped
        covered |= clipped

    decomp = ColoredDecomposition(
        space=space,
        pieces=[frozenset(p) for p in out_pieces],
        colors=out_colors,
        r=R,
        d=n,
        partition=False,
        provenance={"construction": "greedy_decomposition", "R": R, "n": n,
                    "source_pieces": out_sources},
    )
    _verify_greedy(decomp, cover)
    return decomp


def _verify_greedy(decomp: ColoredDecomposition, cover: Cover) -> None:
    bad = check_disjointness(decomp)
    if bad:
        v = bad[0]
        raise PreconditionError(
            f"greedy output violates R-disjointness: pieces {v.piece_a},"
            f" {v.piece_b} at distance {v.distance}", witness=v)
    sources = decomp.provenance["source_pieces"]
    for piece, src in zip(decomp.pieces, sources):
        if not piece <= cover.pieces[src]:
            raise PreconditionError("greedy piece escapes its source piece",
                                    witness=src)


# ---------------------------------------------------------------------------
# colour amplification


def kolmogorov_amplify(decomp: ColoredDecomposition,
                       k: Optional[int] = None) -> ColoredDecomposition:
    """Trade separation for redundancy: (3r, k) in, (r, k+1) out.

    The input's colour classes must cover every point at least
    (k+1)-n times for some n; the output's k+2 classes then cover every
    point at least (k+2)-n times.  Classes 0..k are the old pieces
    fattened by r; the new class collects, per point, the colour sets
    that already contained it away from all fattened others.
    """
    if k is None:
        k = decomp.d
    if k != decomp.d:
        raise ArityError(f"decomposition has top colour {decomp.d}, not {k}")
    space = decomp.space
    r_new = decomp.r / 3.0
    counts = decomp.coverage_counts()
    c_min = int(counts.min())
    if c_min < 1:
        raise PreconditionError("input classes do not cover the space",
                                witness=int(np.argmin(counts)))
    n = (k + 1) - c_min

    # fatten each piece by r_new in the model metric
    indptr, near = space.neighbors(np.arange(space.n), r_new)
    fat_pieces: list[set[int]] = []
    for piece in decomp.pieces:
        fat = set(piece)
        fat.update(_csr_take(indptr, near, sorted(piece))[1].tolist())
        fat_pieces.append(fat)

    fat_class = [set() for _ in range(space.n)]  # colours whose fattening has x
    for pid, c in enumerate(decomp.colors):
        for x in fat_pieces[pid]:
            fat_class[x].add(c)

    out_pieces: list[frozenset[int]] = []
    out_colors: list[int] = []
    trace: list[tuple[str, int]] = []
    for pid, c in enumerate(decomp.colors):
        out_pieces.append(frozenset(fat_pieces[pid]))
        out_colors.append(c)
        trace.append(("fattened", pid))

    # new colour k+1: points whose exact colour set S (|S| = c_min) is clear
    # of every fattened foreign class; split along the pieces of min(S)
    groups: dict[tuple[tuple[int, ...], int], set[int]] = {}
    ptr, pids = _membership(decomp.pieces, space.n)
    for x in range(space.n):
        own = pids[ptr[x]:ptr[x + 1]].tolist()
        S = {decomp.colors[pid] for pid in own}
        if len(S) != c_min or fat_class[x] - S:
            continue
        # the first piece of colour min(S) holding x
        pid = next(pid for pid in own if decomp.colors[pid] == min(S))
        groups.setdefault((tuple(sorted(S)), pid), set()).add(x)
    for (S, pid), pts in sorted(groups.items()):
        out_pieces.append(frozenset(pts))
        out_colors.append(k + 1)
        trace.append(("selected", pid))

    out = ColoredDecomposition(
        space=space, pieces=out_pieces, colors=out_colors, r=r_new, d=k + 1,
        partition=False,
        provenance={"construction": "kolmogorov_amplify", "n": n,
                    "trace": trace, "input_r": decomp.r},
    )
    new_counts = out.coverage_counts()
    need = (k + 2) - n
    if int(new_counts.min()) < need:
        raise PreconditionError(
            f"amplified coverage {int(new_counts.min())} < required {need}",
            witness=int(np.argmin(new_counts)))
    bad = check_disjointness(out)
    if bad:
        v = bad[0]
        raise PreconditionError(
            f"amplified output violates r-disjointness: {v}", witness=v)
    return out


# ---------------------------------------------------------------------------
# products


def product_decomposition(dx: ColoredDecomposition, dy: ColoredDecomposition,
                          product: SpaceGraph) -> ColoredDecomposition:
    """Colour-diagonal product decomposition on an l1-product space."""
    if dx.d != dy.d:
        raise ArityError(f"colour counts differ: {dx.d + 1} vs {dy.d + 1}")
    k = dx.d
    cx = dx.coverage_counts()
    cy = dy.coverage_counts()
    if int(cx.min()) + int(cy.min()) < k + 2:
        raise PreconditionError(
            "factor coverage counts too small for the counting argument",
            witness=(int(cx.min()), int(cy.min())))
    factors = product.window.get("factors")
    if factors is None or len(factors) != 2:
        raise ArityError("product space must have exactly two factors")
    # every same-colour (piece of ix, piece of iy) of each point (ix, iy)
    codes = product._codes
    point, pa = _csr_take(*_membership(dx.pieces, factors[0].n), codes[:, 0])
    sub, pb = _csr_take(*_membership(dy.pieces, factors[1].n), codes[point, 1])
    point, pa = point[sub], pa[sub]
    cx, cy = np.asarray(dx.colors), np.asarray(dy.colors)
    same = cx[pa] == cy[pb]
    point, pa, pb = point[same], pa[same], pb[same]
    # pieces in (colour, pa, pb) order
    order = np.lexsort((point, pb, pa, cx[pa]))
    point, pa, pb = point[order], pa[order], pb[order]
    heads = np.r_[0, np.flatnonzero((np.diff(pa) != 0) | (np.diff(pb) != 0)) + 1]
    pieces = _frozensets(np.r_[heads, len(point)], point, product.n)
    colors = cx[pa[heads]].tolist()
    trace = list(zip(pa[heads].tolist(), pb[heads].tolist()))

    # ColoredDecomposition rejects a product point that no piece covers
    return ColoredDecomposition(
        space=product, pieces=pieces, colors=colors,
        r=min(dx.r, dy.r), d=k, partition=False,
        provenance={"construction": "product_decomposition", "factor_pieces": trace},
    )


# ---------------------------------------------------------------------------
# pullbacks and refinement


def _preimages(f, pieces: list[frozenset[int]]
               ) -> tuple[list[int], list[frozenset[int]]]:
    """Ids of the target pieces with a nonempty preimage under the map
    ``f``, in increasing order, and those preimages."""
    if len(f.assignment) != f.source.n:
        raise DomainError("map is not total on its source window")
    ptr, pids = _membership(pieces, f.target.n)
    src, pid = _csr_take(ptr, pids, np.asarray(f.assignment, dtype=np.int64))
    order = np.argsort(pid, kind="stable")
    src, pid = src[order], pid[order]
    cuts = np.flatnonzero(np.diff(pid)) + 1
    return (pid[np.r_[0, cuts]].tolist(),
            _frozensets(np.r_[0, cuts, len(src)], src, f.source.n))


def pullback_cover(f, cover: Cover) -> Cover:
    """Cover of the map's source by nonempty preimages of target pieces."""
    ids, pieces = _preimages(f, cover.pieces)
    return Cover(space=f.source, pieces=pieces,
                 labels=[f"pre:{pid}" for pid in ids])


def pullback_decomposition(f, decomp: ColoredDecomposition,
                           r: Optional[float] = None) -> ColoredDecomposition:
    """Preimage decomposition with colours carried over.  The preimages of
    a partition under a total map are a partition, so ``partition`` is
    carried over too.  The claimed ``r`` defaults to the target's divided
    by the measured Lipschitz constant."""
    sources, pieces = _preimages(f, decomp.pieces)
    if r is None:
        lip = max(f.measured_lipschitz, 1e-12)
        r = decomp.r / lip
    return ColoredDecomposition(
        space=f.source, pieces=pieces,
        colors=[decomp.colors[pid] for pid in sources], r=r, d=decomp.d,
        partition=decomp.partition,
        provenance={"construction": "pullback", "target_pieces": sources,
                    "target_r": decomp.r,
                    "measured_lipschitz": f.measured_lipschitz},
    )


def refine_connected(cover: Cover, R: float, verify: bool = True) -> Cover:
    """Split every piece into its R-connected components (model metric).

    A closed ball of radius R/2 cannot meet two R-components of one
    piece, so multiplicity at that scale is preserved; this is verified
    on every run unless ``verify`` is disabled.
    """
    if R <= 0:
        raise UnsupportedError("R must be positive")
    space = cover.space
    pieces_out: list[frozenset[int]] = []
    labels: list[str] = []
    for pid, piece in enumerate(cover.pieces):
        for comp_i, comp in enumerate(_components(space, sorted(piece), R)):
            pieces_out.append(frozenset(comp))
            labels.append(f"{pid}.{comp_i}")
    out = Cover(space=space, pieces=pieces_out, labels=labels)
    if verify:
        rho = math.floor(R / 2)
        before, _ = r_multiplicity(cover, rho)
        after, w = r_multiplicity(out, rho)
        if after > before:
            raise PreconditionError(
                f"refinement raised {rho}-multiplicity {before} -> {after}",
                witness=w)
    return out


def _components(space: SpaceGraph, idx: list[int], R: float) -> list[list[int]]:
    if not idx:
        return []
    if space.model == "z":
        vals = sorted((space.points[i].n, i) for i in idx)
        comps: list[list[int]] = []
        cur: list[int] = []
        last = None
        for v, i in vals:
            if last is not None and v - last > R:
                comps.append(cur)
                cur = []
            cur.append(i)
            last = v
        if cur:
            comps.append(cur)
        return comps
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    idx_arr = np.asarray(idx, dtype=np.int64)
    local = np.full(space.n, -1, dtype=np.int64)
    local[idx_arr] = np.arange(len(idx_arr))
    indptr, nbr = space.neighbors(idx_arr, R)
    row = np.repeat(np.arange(len(idx_arr)), np.diff(indptr))
    col = local[nbr]
    inside = col >= 0
    graph = csr_matrix((np.ones(int(inside.sum()), dtype=np.int8),
                        (row[inside], col[inside])),
                       shape=(len(idx_arr), len(idx_arr)))
    ncomp, label = connected_components(graph, directed=False)
    # components in order of their smallest point, members in idx order
    low = np.full(ncomp, space.n, dtype=np.int64)
    np.minimum.at(low, label, idx_arr)
    key = low[label]
    order = np.argsort(key, kind="stable")
    cuts = np.nonzero(np.diff(key[order]))[0] + 1
    return [part.tolist() for part in np.split(idx_arr[order], cuts)]

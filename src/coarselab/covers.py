"""Covers, coloured decompositions, and the algebra between them.

Pieces are index sets over a :class:`~coarselab.spaces.SpaceGraph`, held
as piece-major CSR (:class:`PieceView`) and inverted point-to-piece by each
call that needs it.
Separation and disjointness are judged in the model metric (the window
is a sample of a continuous space); multiplicity is judged with graph
balls unless a caller asks for the model metric.  Every constructive
operation re-verifies its own postconditions before returning.
"""

from __future__ import annotations

import collections.abc
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (ArityError, DomainError, PreconditionError,
                     UnsupportedError)
from .spaces import (GrowthTable, LabelView, RowView, SpaceGraph,
                     _ball_growth, _centre_distances, _concat_csr,
                     _csr_from_rows, _csr_take, _group, _growth_table,
                     _path_lengths, _sorted_lookup, _sorted_rows, _unique)

__all__ = [
    "PieceView",
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


class PieceView(RowView):
    """Read-only sequence of the pieces of a family over ``n`` points, held
    as piece-major CSR: ``pts[ptr[i]:ptr[i + 1]]`` lists the points of
    piece i, sorted and without repeats.

    Reading a piece builds its frozenset (a :class:`RowView` of
    frozensets); none is stored, so the view costs no more memory than its
    arrays.  Rows given unsorted or with repeats are sorted and
    deduplicated once (frozenset semantics); a point outside ``range(n)``
    raises :class:`DomainError`.  A view equals a list, or a view, of
    equal sets.
    """

    __slots__ = ("_n", "_growth")

    def __init__(self, ptr, pts, n: int):
        ptr = np.asarray(ptr, dtype=np.int64)
        pts = np.asarray(pts, dtype=np.int64)
        outside = (pts < 0) | (pts >= n)
        if outside.any():
            k = int(outside.argmax())
            piece = int(np.searchsorted(ptr, k, side="right")) - 1
            raise DomainError(f"piece {piece} holds point {int(pts[k])},"
                              f" outside the {n} points of its space")
        head = np.zeros(len(pts), dtype=bool)
        head[ptr[:-1][ptr[:-1] < len(pts)]] = True
        if not (head[1:] | (pts[1:] > pts[:-1])).all():
            ptr, pts = _sorted_rows(np.repeat(np.arange(len(ptr) - 1), np.diff(ptr)),
                                    pts, len(ptr) - 1, n)
        ptr.flags.writeable = pts.flags.writeable = False
        super().__init__(ptr, pts, frozenset)
        self._n, self._growth = n, None

    def owners(self) -> np.ndarray:
        """The piece of every entry of ``pts``."""
        return np.repeat(np.arange(len(self)), np.diff(self.ptr))

    def inverse(self) -> tuple[np.ndarray, np.ndarray]:
        """Point-to-piece CSR ``(ptr, pids)``: ``pids[ptr[x]:ptr[x + 1]]``
        lists, in increasing order, the pieces that contain point x.
        Computed on every call, by one linear stable grouping of the
        entries by point; none is kept."""
        return _group(self.pts, self.owners(), self._n)

    def growth(self, space: SpaceGraph,
               metric: str = "intrinsic") -> GrowthTable:
        """Growth of every piece in ``space`` around its default centre, in
        the piece's induced subgraph (``metric="intrinsic"``, see
        :func:`_intrinsic_growth`) or inside ambient graph balls
        (``metric="ambient"``, see :func:`_ambient_growth`).  The table of
        a metric is made whole on the first call for ``space`` and kept
        with it."""
        if self._growth is None or self._growth[0] is not space:
            self._growth = (space, {})
        tables = self._growth[1]
        if metric not in tables:
            tables[metric] = _family_growth(space, self.ptr, self.pts, metric)
        return tables[metric]


# pieces per ambient growth search: one bit of a uint64 mask each
_AMBIENT_BLOCK = 64

# an ambient search level pulls once its frontier holds more than this
# share of the CSR's adjacency entries, and pushes below it: on the hd3
# source a pull costs about as much as a push over a tenth of the entries
_AMBIENT_PULL = 0.1


def _family_growth(space: SpaceGraph, ptr: np.ndarray, pts: np.ndarray,
                   metric: str, centres=None) -> GrowthTable:
    """Growth table of the pieces ``pts[ptr[i]:ptr[i + 1]]`` (rows sorted)
    in ``metric`` around ``centres[i]``, by default the default centres."""
    if metric not in ("ambient", "intrinsic"):
        raise UnsupportedError(f"unknown metric {metric!r}")
    make = _intrinsic_growth if metric == "intrinsic" else _ambient_growth
    return make(space, ptr, pts, _default_centres(space, ptr, pts)
                if centres is None else centres)


def _default_centres(space: SpaceGraph, ptr: np.ndarray,
                     pts: np.ndarray) -> np.ndarray:
    """The point of each piece with the largest window margin, the lowest
    index among equals; -1 for an empty piece."""
    order = np.lexsort((pts, -space.margins()[pts],
                        np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))))
    centres = np.full(len(ptr) - 1, -1, dtype=np.int64)
    full = np.diff(ptr) > 0
    centres[full] = pts[order[ptr[:-1][full]]]
    return centres


def _intrinsic_growth(space: SpaceGraph, ptr: np.ndarray, pts: np.ndarray,
                      centres: np.ndarray) -> GrowthTable:
    """Ball counts of every piece ``pts[ptr[i]:ptr[i + 1]]`` (rows sorted)
    in its own induced subgraph, around ``centres[i]``, a point of piece i.

    One unweighted graph search covers the whole family: its nodes are
    the entries (piece, point), and an edge joins two entries of one
    piece whose points are adjacent (:func:`_entry_graph`).  The graph is
    block-diagonal, so the nearest centre of an entry is its own piece's.
    A radius is flagged truncated once a point at that distance comes
    within the edge threshold of the window boundary.
    """
    owner = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
    graph = _entry_graph(ptr, pts, space.indptr, space.indices)
    # rows hold no repeats: one entry per piece is its centre
    dist = _path_lengths(graph, np.flatnonzero(pts == centres[owner]),
                         min_only=True)
    # eccentricity of each piece: its centre is at 0, so the row maximum
    length = np.zeros(len(ptr) - 1, dtype=np.int64)
    np.maximum.at(length, owner, dist + 1)
    edge = space.margins()[pts] <= space.edge_threshold
    return _growth_table(centres, length, (owner, dist),
                         (owner[edge], dist[edge]))


def _ambient_growth(space: SpaceGraph, ptr: np.ndarray, pts: np.ndarray,
                    centres: np.ndarray) -> GrowthTable:
    """Ambient ball counts of every piece ``pts[ptr[i]:ptr[i + 1]]``
    around ``centres[i]``: a row runs to its centre's eccentricity in its
    component, and a radius is flagged truncated once any point at that
    distance, in the piece or not, comes within the edge threshold of the
    window boundary.  One nonempty piece is one csgraph search (one
    centre shares nothing, and deep windows pay per level); families of
    more are searched ``_AMBIENT_BLOCK`` at a time (:func:`_ambient_search`)."""
    if len(centres) == 1 and centres[0] >= 0:
        return _ball_growth(space, int(centres[0]), pts)
    length = np.zeros(len(centres), dtype=np.int64)
    empty = np.zeros((2, 0), dtype=np.int64)
    hit, edge = [empty], [empty]
    for lo in range(0, len(centres), _AMBIENT_BLOCK):
        hi = min(lo + _AMBIENT_BLOCK, len(centres))
        if (centres[lo:hi] >= 0).any():
            a, b = ptr[lo], ptr[hi]
            length[lo:hi], h, e = _ambient_search(
                space, ptr[lo:hi + 1] - a, pts[a:b], centres[lo:hi])
            # (piece, level) rows, the block's pieces counted from lo
            hit.append(h + [[lo], [0]])
            edge.append(e + [[lo], [0]])
    return _growth_table(centres, length, np.hstack(hit), np.hstack(edge))


def _ambient_search(space: SpaceGraph, ptr: np.ndarray, pts: np.ndarray,
                    centres: np.ndarray):
    """One search for at most 64 pieces ``pts[ptr[i]:ptr[i + 1]]`` around
    ``centres[i]``, not all empty: the number of levels of each row, and
    (piece, level) rows of the piece points reached and of the points
    reached within the edge threshold of the window boundary.

    One level-synchronous search serves every centre (multi-source BFS
    with one bit per source): each point holds a uint64 mask of the
    centres that have reached it.  Each level picks a direction
    (direction-optimizing BFS; Beamer, Asanovic & Patterson, SC 2012).
    While the frontier's adjacency entries are at most a share
    ``_AMBIENT_PULL`` of the CSR's, the level pushes: it expands only the
    points that some centre reached at the level before.  Otherwise it
    pulls: every point ORs the masks of all its neighbours, in one gather
    and one reduction over the CSR.  The two give the same level sets: a
    bit that a neighbour held before the last level has reached the
    point already.
    """
    k = len(centres)
    full = centres >= 0
    bit = np.left_shift(np.uint64(1), np.arange(k, dtype=np.uint64))
    member = np.zeros(space.n, dtype=np.uint64)
    np.bitwise_or.at(member, pts, np.repeat(bit, np.diff(ptr)))
    seen = np.zeros(space.n, dtype=np.uint64)
    np.bitwise_or.at(seen, centres[full], bit[full])
    slot = np.zeros(space.n, dtype=np.int64)
    indptr, indices = space.indptr, space.indices
    edge = space.margins() <= space.edge_threshold
    front = _unique(centres[full])
    mask = seen[front]
    # a pull reduces the rows of nonzero degree only: reduceat misreads
    # empty rows
    nonempty = np.flatnonzero(np.diff(indptr))
    limit = _AMBIENT_PULL * len(indices)
    # per level: the centres still reaching new points, those reaching
    # the window edge, and the piece points reached
    alive, touched, hits = [], [], []
    while len(front):
        alive.append(np.bitwise_or.reduce(mask))
        touched.append(np.bitwise_or.reduce(mask[edge[front]]))
        hit = mask & member[front]
        hits.append(hit[hit != 0])
        start = indptr[front]
        size = indptr[front + 1] - start
        end = np.cumsum(size)
        total = int(end[-1])
        if limit < total:
            # pull: every point ORs the masks of its neighbours
            new = np.zeros_like(seen)
            new[nonempty] = np.bitwise_or.reduceat(seen[indices],
                                                   indptr[nonempty])
            new &= ~seen
            seen |= new
            front = np.flatnonzero(new)
            mask = new[front]
            continue
        # push: the frontier's masks to its neighbours
        nbr = indices[np.arange(total) + np.repeat(start - end + size, size)]
        before = seen[nbr]
        new = np.repeat(mask, size) & ~before
        keep = np.flatnonzero(new)
        nbr, before = nbr[keep], before[keep]
        np.bitwise_or.at(seen, nbr, new[keep])
        # one entry of each point (the one the scatter kept), no sort
        at = np.arange(len(nbr))
        slot[nbr] = at
        first = slot[nbr] == at
        front = nbr[first]
        mask = seen[front] & ~before[first]

    def unpack(words) -> np.ndarray:
        # (len(words), k) bits of each word, the lowest first
        octets = np.asarray(words, dtype="<u8").view(np.uint8).reshape(-1, 8)
        return np.unpackbits(octets, axis=1, bitorder="little")[:, :k] == 1

    # a centre reaches new points at every level up to its last: the
    # levels of its row
    length = unpack(alive).sum(axis=0)
    entry, piece = np.nonzero(unpack(np.concatenate(hits)))
    level = np.repeat(np.arange(len(hits)), [len(h) for h in hits])[entry]
    return (length, np.stack([piece, level]),
            np.array(np.nonzero(unpack(touched).T)))


def _entry_graph(ptr: np.ndarray, pts: np.ndarray, indptr: np.ndarray,
                 indices: np.ndarray):
    """Entry graph of the pieces ``pts[ptr[i]:ptr[i + 1]]`` (rows sorted),
    as scipy CSR: a node per entry (piece, point), in the order of ``pts``,
    and an edge between two entries of one piece whose points are adjacent
    in the point-adjacency CSR ``(indptr, indices)``."""
    from scipy.sparse import csr_matrix

    m, n = len(pts), len(indptr) - 1
    # the lookups run over every adjacency needle at once: they are held
    # in int32, and each is freed as soon as it is read
    owner = np.repeat(np.arange(len(ptr) - 1, dtype=np.int32), np.diff(ptr))
    entry, nbr = _csr_take(indptr, indices, pts)
    entry = entry.astype(np.int32)
    # each neighbour's entry in the entry's piece, if any (one at most)
    sub, at = _csr_take(*_group(pts, np.arange(m, dtype=np.int32), n), nbr)
    del nbr
    entry = entry[sub]
    del sub
    keep = owner[at] == owner[entry]
    gptr, gidx = _csr_from_rows(entry[keep], at[keep], m)
    return csr_matrix((np.ones(len(gidx), dtype=np.int8), gidx,
                       gptr.astype(np.int32)), shape=(m, m))


def _piece_view(pieces, n: int) -> PieceView:
    """The pieces of a family over n points as a :class:`PieceView`: a view
    is kept, any other sequence of point iterables is read once."""
    if isinstance(pieces, PieceView):
        return pieces if pieces._n == n else PieceView(pieces.ptr, pieces.pts, n)
    rows = [p if isinstance(p, collections.abc.Sized) else list(p) for p in pieces]
    flat = np.array(list(itertools.chain.from_iterable(rows)))
    if len(flat) and flat.dtype.kind not in "iu":
        raise TypeError(f"piece points must be integers, not {flat.dtype}")
    ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)),
              out=ptr[1:])
    return PieceView(ptr, flat.astype(np.int64), n)


def _point_counts(pieces: PieceView) -> tuple[np.ndarray, Optional[int]]:
    """How many pieces hold each point, and the least point none holds
    (None if every point is held)."""
    counts = np.bincount(pieces.pts, minlength=pieces._n)
    return counts, (int(np.argmin(counts)) if (counts == 0).any() else None)


@dataclass
class Cover:
    """Indexed family of point sets whose union is the whole space.
    ``pieces`` is a :class:`PieceView`; any sequence of point iterables
    is accepted and normalised once.  ``labels``, if given, is a sequence
    of one string per piece: the constructions here give a
    :class:`~coarselab.spaces.LabelView`, which formats each label on
    read."""

    space: SpaceGraph
    pieces: Sequence[frozenset[int]]
    labels: Optional[Sequence[str]] = None

    def __post_init__(self):
        self.pieces = _piece_view(self.pieces, self.space.n)
        if (np.diff(self.pieces.ptr) == 0).any():
            raise ValueError("cover pieces must be non-empty")
        missing = _point_counts(self.pieces)[1]
        if missing is not None:
            raise ValueError(f"cover misses point {missing}")

    def piece_of(self) -> list[list[int]]:
        """For each point, the sorted list of piece ids containing it."""
        ptr, pids = self.pieces.inverse()
        return [pids[a:b].tolist() for a, b in zip(ptr[:-1], ptr[1:])]


@dataclass
class ColoredDecomposition:
    """Pieces with colours 0..d; same-colour pieces claimed r-disjoint.
    ``pieces`` is held as for :class:`Cover`."""

    space: SpaceGraph
    pieces: Sequence[frozenset[int]]
    colors: list[int]
    r: float
    d: int
    partition: bool = True
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.pieces = _piece_view(self.pieces, self.space.n)
        if len(self.pieces) != len(self.colors):
            raise ValueError("one colour per piece required")
        if any(not 0 <= c <= self.d for c in self.colors):
            raise ValueError("colours must lie in 0..d")
        counts, missing = _point_counts(self.pieces)
        if missing is not None:
            raise ValueError(f"decomposition misses point {missing}")
        if self.partition and (counts > 1).any():
            dup = int(np.argmax(counts > 1))
            raise ValueError(f"point {dup} lies in several pieces of a partition")

    def _colour_hits(self) -> np.ndarray:
        """(n, d + 1) booleans: whether colour class c holds point x."""
        hit = np.zeros((self.space.n, self.d + 1), dtype=bool)
        colors = np.asarray(self.colors, dtype=np.int64)
        hit[self.pieces.pts, colors[self.pieces.owners()]] = True
        return hit

    def color_classes(self) -> list[set[int]]:
        """Union of pieces per colour, as point sets."""
        return [set(np.flatnonzero(col).tolist()) for col in self._colour_hits().T]

    def as_cover(self) -> Cover:
        return Cover(self.space, self.pieces)

    def coverage_counts(self) -> np.ndarray:
        """Number of colour classes (as point sets) containing each point."""
        return self._colour_hits().sum(axis=1)


@dataclass
class NeighborhoodChain:
    """Nested absorption levels of one piece under nearby-piece union;
    level m is piece m of ``levels``."""

    base_piece: int
    s: float
    levels: PieceView
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
    flags = memoryview(blocked)  # Python bools, read without numpy scalars
    centers: list[int] = []
    for lo in range(0, space.n, _ROW_BLOCK):
        # a center blocks everything within R-1 (their distance to it is < R)
        near = _ball_patterns(step, np.arange(lo, min(space.n, lo + _ROW_BLOCK)),
                              R - 1)
        ends = near.indptr.tolist()
        for v in range(lo, lo + near.shape[0]):
            if not flags[v]:
                centers.append(v)
                blocked[near.indices[ends[v - lo]:ends[v - lo + 1]]] = True
    balls = _ball_patterns(step, np.asarray(centers, dtype=np.int64), R)
    balls.sort_indices()
    return Cover(space=space, pieces=PieceView(balls.indptr, balls.indices, space.n),
                 labels=LabelView(f"ball:{{}}:{R}", centers))


# ---------------------------------------------------------------------------
# multiplicity


def _closed_adjacency(space: SpaceGraph):
    """A + I of the space graph, as CSR: one step of a graph ball."""
    from scipy.sparse import identity

    return (space._csr + identity(space.n, dtype=np.int8, format="csr")
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

    ``metric="graph"`` uses graph balls of integer radius floor(R), grown
    one sparse product at a time until they stop growing (at the latest at
    radius n - 1); ``metric="model"`` uses model-metric balls (useful at
    sub-edge scales).  R must be finite and >= 0, or
    :class:`UnsupportedError` is raised before any work.
    """
    if not 0 <= R < math.inf:
        raise UnsupportedError(f"R must be finite and >= 0, got {R}")
    space = cover.space
    pieces = cover.pieces
    if metric == "graph":
        from scipy.sparse import csr_matrix

        # row x of (A + I)^floor(R) M is nonzero at the pieces within
        # graph distance floor(R) of x
        mptr, mpid = pieces.inverse()
        met = csr_matrix((np.ones(len(mpid), dtype=bool), mpid, mptr),
                         shape=(space.n, len(pieces)))
        hit = np.diff(met.indptr)
        # no graph distance passes n - 1
        rounds = min(math.floor(R), space.n - 1)
        if rounds >= 1:
            step = _closed_adjacency(space)
            for _ in range(rounds - 1):
                grown = _pattern_product(step, met)
                # balls only grow: a product that adds no entry is a
                # fixpoint, and so is every later one
                if grown.nnz == met.nnz:
                    hit = np.diff(met.indptr)
                    break
                met = grown
            else:
                # of the last product only the row counts are needed
                hit = np.concatenate([np.diff((step[lo:lo + _ROW_BLOCK] @ met).indptr)
                                      for lo in range(0, space.n, _ROW_BLOCK)])
        best = int(hit.argmax())
        return int(hit[best]), best
    if metric != "model":
        raise UnsupportedError(f"unknown metric {metric!r}")
    mptr, mpid = pieces.inverse()
    npieces = len(pieces)
    met = np.zeros(space.n, dtype=np.int64)
    for rows, indptr, nbr in space.neighbor_blocks(np.arange(space.n), R):
        row = np.repeat(np.arange(len(rows)), np.diff(indptr))
        owner, pid = _csr_take(mptr, mpid, nbr)
        distinct = _unique(row[owner] * npieces + pid)
        met[rows] = np.bincount(distinct // npieces, minlength=len(rows))
    best = int(met.argmax())
    return int(met[best]), best


# ---------------------------------------------------------------------------
# disjointness


def check_disjointness(decomp: ColoredDecomposition,
                       r: Optional[float] = None) -> list[Violation]:
    """Exhaustively verify same-colour pieces sit >= r apart (model metric,
    default r = decomp.r).  Each violating piece pair comes with the
    distance of its closest point pair, in piece-pair order."""
    a, b, d = _close_pairs(decomp.space, decomp.pieces, decomp.colors,
                           decomp.r if r is None else r)
    return list(map(Violation, a.tolist(), b.tolist(), d.tolist()))


def _close_pairs(space: SpaceGraph, pieces: PieceView, colors, r: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs a < b of distinct same-colour pieces less than r apart
    (model metric), in increasing order, with the distance of each pair's
    closest points.  Scans every point pair within r, each unordered pair
    once (:meth:`SpaceGraph.pair_blocks`), and every point with itself (a
    point held by two same-colour pieces puts them 0 apart), for points of
    two same-colour pieces, which finds exactly these pairs in any model.
    A negative or NaN r is refused with :class:`UnsupportedError`."""
    if not r >= 0:
        raise UnsupportedError(f"r must be >= 0, got {r}")
    mptr, mpid = pieces.inverse()
    colors = np.asarray(colors, dtype=np.int64)
    npieces = len(pieces)
    keys, dists = [], []
    points = np.arange(space.n)
    for x, y in itertools.chain([(points, points)], space.pair_blocks(r)):
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
    return keys[first] // npieces, keys[first] % npieces, dists[first]


# ---------------------------------------------------------------------------
# iterated neighbourhoods


def iterated_neighborhood(family: PieceFamily, piece: int, s: float,
                          m: int) -> NeighborhoodChain:
    """Levels N^0..N^m, as one family: each next level unions all pieces
    meeting the closed s-neighbourhood of the previous one (model metric)."""
    if m < 0:
        raise UnsupportedError("m must be >= 0")
    if s < 1:
        raise UnsupportedError("s must be >= 1")
    space, view = family.space, family.pieces
    mptr, mpid = view.inverse()
    level = np.zeros(space.n, dtype=bool)
    level[view.row(piece)] = True
    levels = [view.row(piece)]
    absorbed = np.zeros(len(view), dtype=bool)
    absorbed[piece] = True
    for _ in range(m):
        hood = _unique(space.neighbors(np.flatnonzero(level), s)[1])
        met = _unique(_csr_take(mptr, mpid, hood)[1])
        new = met[~absorbed[met]]
        absorbed[new] = True
        level[_csr_take(view.ptr, view.pts, new)[1]] = True
        levels.append(np.flatnonzero(level))
    # the levels are nested: the last holds the points of every level
    truncated = bool(space.margins()[level].min()
                     <= max(s, space.edge_threshold))
    levels = PieceView(np.cumsum([0] + list(map(len, levels))),
                       np.concatenate(levels), space.n)
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
    space, view = cover.space, cover.pieces
    mult, witness = r_multiplicity(cover, 2 * R, metric="model")
    if mult > n + 1:
        raise PreconditionError(
            f"cover has 2R-multiplicity {mult} > n+1 = {n + 1}", witness=witness)

    # close[cptr[p]:cptr[p + 1]]: the pieces less than R from piece p
    npieces = len(view)
    a, b, _ = _close_pairs(space, view, np.zeros(npieces), R)
    cptr, close = _sorted_rows(np.r_[a, b], np.r_[b, a], npieces, npieces)
    colour = np.full(npieces, -1)
    for c in range(n + 1):
        member = np.zeros(npieces, dtype=bool)
        for pid in np.flatnonzero(colour < 0).tolist():
            member[pid] = not member[close[cptr[pid]:cptr[pid + 1]]].any()
        colour[member] = c
    # the whole pieces, by colour and then index
    whole = np.flatnonzero(colour >= 0)
    whole = whole[np.argsort(colour[whole], kind="stable")]
    _, pts = _csr_take(view.ptr, view.pts, whole)
    sizes = np.diff(view.ptr)[whole].tolist()
    # classes[x, c]: whether colour class c holds point x
    classes = np.zeros((space.n, n + 1), dtype=bool)
    classes[pts, np.repeat(colour[whole], sizes)] = True

    covered = classes.any(axis=1)
    todo = np.flatnonzero(~covered)
    ptr2, near2 = space.neighbors(todo, 2 * R)
    ptr1, near1 = space.neighbors(todo, R)
    mptr, mpid = view.inverse()
    rows, colours, sources = [pts], colour[whole].tolist(), whole.tolist()
    for i, x in enumerate(todo.tolist()):
        if covered[x]:
            continue
        vid = int(mpid[mptr[x]])
        free = np.flatnonzero(~classes[near2[ptr2[i]:ptr2[i + 1]]].any(axis=0))
        if not len(free):
            raise PreconditionError(
                f"no colour class avoids the 2R-ball of point {x}", witness=x)
        clipped = np.intersect1d(view.row(vid), near1[ptr1[i]:ptr1[i + 1]],
                                 assume_unique=True)
        rows.append(clipped)
        sizes.append(len(clipped))
        colours.append(int(free[0]))
        sources.append(vid)
        classes[clipped, free[0]] = True
        covered[clipped] = True

    decomp = ColoredDecomposition(
        space=space,
        pieces=PieceView(np.cumsum([0] + sizes), np.concatenate(rows), space.n),
        colors=colours,
        r=R,
        d=n,
        partition=False,
        provenance={"construction": "greedy_decomposition", "R": R, "n": n,
                    "source_pieces": sources},
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
    # every entry (piece, x) must be an entry (source piece, x) of the cover
    n, src = decomp.space.n, np.asarray(decomp.provenance["source_pieces"])
    owner = src[decomp.pieces.owners()]
    held = _sorted_lookup(cover.pieces.owners() * n + cover.pieces.pts,
                          owner * n + decomp.pieces.pts) >= 0
    if not held.all():
        raise PreconditionError("greedy piece escapes its source piece",
                                witness=int(owner[held.argmin()]))


# ---------------------------------------------------------------------------
# colour amplification


def kolmogorov_amplify(decomp: ColoredDecomposition) -> ColoredDecomposition:
    """Trade separation for redundancy: (3r, k) in, (r, k+1) out, k = d.

    The input's colour classes must cover every point at least
    (k+1)-n times for some n; the output's k+2 classes then cover every
    point at least (k+2)-n times.  Classes 0..k are the old pieces
    fattened by r; the new class collects, per point, the colour sets
    that already contained it away from all fattened others.
    """
    k, space = decomp.d, decomp.space
    r_new = decomp.r / 3.0
    counts = decomp.coverage_counts()
    c_min = int(counts.min())
    if c_min < 1:
        raise PreconditionError("input classes do not cover the space",
                                witness=int(np.argmin(counts)))
    n = (k + 1) - c_min

    # fatten each piece by r_new in the model metric
    view, colors = decomp.pieces, np.asarray(decomp.colors, dtype=np.int64)
    indptr, near = space.neighbors(np.arange(space.n), r_new)
    entry, nbr = _csr_take(indptr, near, view.pts)
    owner = view.owners()
    fat_ptr, fat_pts = _sorted_rows(np.r_[owner, owner[entry]],
                                    np.r_[view.pts, nbr], len(view), space.n)
    fat_hit = np.zeros((space.n, k + 1), dtype=bool)
    fat_hit[fat_pts, np.repeat(colors, np.diff(fat_ptr))] = True

    # new colour k+1: points whose exact colour set S (|S| = c_min) is clear
    # of every fattened foreign class, i.e. the fattened classes holding
    # them are S itself; grouped by (sorted S, the first piece of colour
    # min(S) holding the point), in that order
    own_hit = decomp._colour_hits()
    size = own_hit.sum(axis=1)
    xs = np.flatnonzero((size == c_min) & (fat_hit.sum(axis=1) == size))
    sets = np.nonzero(own_hit[xs])[1].reshape(len(xs), c_min)
    at, pid = _csr_take(*view.inverse(), xs)
    match = colors[pid] == sets[at, 0]
    at, pid = at[match], pid[match]
    pid = pid[np.r_[True, at[1:] != at[:-1]]] if len(at) else pid
    order = np.lexsort((xs, pid, *sets.T[::-1]))
    xs, pid, sets = xs[order], pid[order], sets[order]
    head = np.ones(len(xs), dtype=bool)
    head[1:] = (pid[1:] != pid[:-1]) | (sets[1:] != sets[:-1]).any(axis=1)
    heads = np.flatnonzero(head)
    out_pieces = PieceView(np.r_[fat_ptr, fat_ptr[-1] + np.r_[heads, len(xs)][1:]],
                           np.r_[fat_pts, xs], space.n)
    out_colors = list(decomp.colors) + [k + 1] * len(heads)
    trace = ([("fattened", p) for p in range(len(view))]
             + [("selected", p) for p in pid[heads].tolist()])

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
    """Colour-diagonal product decomposition on an l1-product space.

    The pieces are the same-colour pairs (pa, pb) that meet the product's
    window, in (colour, pa, pb) order, each holding the product points
    (ix, iy) with ix in pa and iy in pb.  A pair meets an l1 window of
    radius R exactly when min_pa d_a + min_pb d_b <= R (d the factor
    distances to the centres; float addition is monotone), so the pieces
    are enumerated per piece, not per point.  On an image product (a
    subset of the window, see :func:`~coarselab.constructions.brady_farb`)
    pieces that miss the subset stay, empty, and keep the window's ids.
    """
    if dx.d != dy.d:
        raise ArityError(f"colour counts differ: {dx.d + 1} vs {dy.d + 1}")
    k = dx.d
    cx = dx.coverage_counts()
    cy = dy.coverage_counts()
    if int(cx.min()) + int(cy.min()) < k + 2:
        raise PreconditionError(
            "factor coverage counts too small for the counting argument",
            witness=(int(cx.min()), int(cy.min())))
    window = product.window
    factors = window.get("factors")
    if factors is None or len(factors) != 2:
        raise ArityError("product space must have exactly two factors")
    views = [_piece_view(dc.pieces, f.n) for dc, f in zip((dx, dy), factors)]
    cx, cy = np.asarray(dx.colors), np.asarray(dy.colors)

    # the window's pieces: every same-colour pair of nonempty pieces whose
    # nearest points to the centres (summed from 0, as build_product sums
    # the parts) lie within the radius; a piece's id is the rank of its
    # key (colour, pa, pb)
    held = [np.diff(v.ptr) > 0 for v in views]
    meet = (cx[:, None] == cy[None, :]) & held[0][:, None] & held[1][None, :]
    if window["kind"] == "l1_ball":
        low = []
        for v, dv, rows in zip(views, _centre_distances(factors, window["centers"]),
                               held):
            m = np.full(len(v), np.inf)
            m[rows] = np.minimum.reduceat(dv[v.pts], v.ptr[:-1][rows])
            low.append(m)
        meet &= low[0][:, None] + low[1][None, :] <= window["radius"]
    nx, ny = meet.shape
    pa, pb = np.nonzero(meet)
    keys = np.sort((cx[pa] * nx + pa) * ny + pb)
    pa, pb = keys // ny % nx, keys % ny

    # every same-colour (piece of ix, piece of iy) of each point (ix, iy)
    codes = product._codes
    point, qa = _csr_take(*views[0].inverse(), codes[:, 0])
    sub, qb = _csr_take(*views[1].inverse(), codes[point, 1])
    point, qa = point[sub], qa[sub]
    same = cx[qa] == cy[qb]
    point, qa, qb = point[same], qa[same], qb[same]
    pid = _sorted_lookup(keys, (cx[qa] * nx + qa) * ny + qb)
    if (pid < 0).any():
        raise DomainError(f"product point {int(point[np.argmax(pid < 0)])}"
                          " lies outside its window")
    ptr = np.r_[0, np.cumsum(np.bincount(pid, minlength=len(keys)))]

    # ColoredDecomposition rejects a product point that no piece covers
    return ColoredDecomposition(
        space=product,
        pieces=PieceView(ptr, point[np.lexsort((point, pid))], product.n),
        colors=cx[pa].tolist(), r=min(dx.r, dy.r), d=k, partition=False,
        provenance={"construction": "product_decomposition",
                    "factor_pieces": list(zip(pa.tolist(), pb.tolist()))},
    )


# ---------------------------------------------------------------------------
# pullbacks and refinement


def _preimages(f, pieces) -> tuple[list[int], PieceView]:
    """Ids of the target pieces with a nonempty preimage under the map
    ``f``, in increasing order, and those preimages."""
    if len(f.image) != f.source.n:
        raise DomainError("map is not total on its source window")
    pieces = _piece_view(pieces, f.target.n)
    src, pid = _csr_take(*pieces.inverse(), f.image)
    ptr, src = _group(pid, src, len(pieces))
    hit = np.flatnonzero(np.diff(ptr))
    return hit.tolist(), PieceView(np.r_[ptr[hit], len(src)], src, f.source.n)


def pullback_cover(f, cover: Cover) -> Cover:
    """Cover of the map's source by nonempty preimages of target pieces."""
    ids, pieces = _preimages(f, cover.pieces)
    return Cover(space=f.source, pieces=pieces, labels=LabelView("pre:{}", ids))


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
    Component ``i`` of piece ``pid`` is labelled ``pid.i``, in order of
    (piece, smallest point).

    A closed ball of radius R/2 cannot meet two R-components of one
    piece, so multiplicity at that scale is preserved; this is verified
    on every run unless ``verify`` is disabled.
    """
    if R <= 0:
        raise UnsupportedError("R must be positive")
    space = cover.space
    owner, comps = _components(space, cover.pieces, R)
    index = np.arange(len(owner)) - np.searchsorted(owner, owner)
    out = Cover(space=space, pieces=comps,
                labels=LabelView("{}.{}", owner, index))
    if verify:
        rho = math.floor(R / 2)
        before, _ = r_multiplicity(cover, rho)
        after, w = r_multiplicity(out, rho)
        if after > before:
            raise PreconditionError(
                f"refinement raised {rho}-multiplicity {before} -> {after}",
                witness=w)
    return out


def _components(space: SpaceGraph, pieces: PieceView,
                R: float) -> tuple[np.ndarray, PieceView]:
    """The R-connected components (model metric) of every piece, in one
    pass: the piece of each component, and the components, in order of
    (piece, smallest point).  Entries run piece-major with rows sorted, so
    a component's first entry is its smallest point."""
    row, pts, n = pieces.owners(), pieces.pts, space.n
    if space.model == "z":
        # z codes increase with the index: each row runs in coordinate order
        cut = (row[1:] != row[:-1]) | (np.diff(space._codes[pts]) > R)
        heads = np.r_[0, np.flatnonzero(cut) + 1]
        return row[heads], PieceView(np.r_[heads, len(pts)], pts, n)
    from scipy.sparse.csgraph import connected_components

    # link each entry (piece, x) to the entries (piece, y), y within R of x
    members = np.flatnonzero(np.bincount(pts, minlength=n))
    near_ptr, near = space.neighbors(members, R)
    graph = _entry_graph(pieces.ptr, pts, *_csr_from_rows(
        np.repeat(members, np.diff(near_ptr)), near, n))
    ncomp, label = connected_components(graph, directed=False)
    first = np.unique(label, return_index=True)[1]
    rank = np.empty(ncomp, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(ncomp)
    ptr, grouped = _group(rank[label], pts, ncomp)
    return row[np.sort(first)], PieceView(ptr, grouped, n)

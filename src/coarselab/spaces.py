"""Finite bounded-degree graph windows onto model geometries.

A :class:`SpaceGraph` is an immutable snapshot of a net inside one of the
supported models: the upper half-plane/half-space, the 3-regular tree,
the integer line, combs, l1-products, and explicit small metric graphs.
Points carry model coordinates; the graph carries exact shortest-path
queries; the window descriptor remembers how the region was generated so
that boundary effects (truncation) can be flagged.
"""

from __future__ import annotations

import collections.abc
import contextlib
import gc
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (ArityError, DataError, EmptySpaceError,
                     PreconditionError, SizeCapError, UnsupportedError)

__all__ = [
    "HalfPlane",
    "HalfSpace",
    "TreeAddress",
    "ZPoint",
    "CombNode",
    "TuplePoint",
    "ModelPoint",
    "ArrayView",
    "PointView",
    "RowView",
    "LabelView",
    "SpaceGraph",
    "GrowthReport",
    "generate_net",
    "ball",
    "build_product",
    "metric_graph",
    "growth_report",
]

# Stratified half-space nets: layer k sits at height y_k = exp(k*h) with
# h = _LAYER_STEP*sep, and its points at x = j*w*y_k for integer columns j
# (each x-coordinate of a half-space point is such a multiple), with
# w = 2*sinh(_X_STEP_SCALE*sep): exactly 2*sep of hyperbolic distance
# within a layer (arcosh(1+2*sinh(u)^2) = 2u).  The whole stream is then
# pairwise >= sep apart, so greedy insertion keeps every candidate and the
# net density stays near one point per 2*sep^2 of area.  The range-query
# engine (_StratifiedGrid) keys every point by its integer (k, j...) and
# relies on this layout.
_LAYER_STEP = 1.0  # vertical layer spacing, in units of sep
_X_STEP_SCALE = 1.0  # horizontal step = 2*sinh(_X_STEP_SCALE*sep) * y

# candidate pairs one engine pass may test: bounds transient arrays to a
# few MB whatever the number of query rows
_CANDIDATE_BUDGET = 1 << 18
# relative slack of the grid engine's column ranges (see _StratifiedGrid)
_GUARD = 1e-12

# point pairs one distance-kernel pass evaluates
_DISTANCE_BLOCK = 1 << 16

# points or rows one pass over a point or row view builds
_VIEW_BLOCK = 1 << 14

PRODUCT_CAP = 2_000_000

# letters of a tree word
_TREE_LETTERS = frozenset((0, 1, 2))

# the two child letters after a letter: (lower, higher) of the other two
_LOWER_CHILD = np.array([1, 0, 0], dtype=np.int8)
_HIGHER_CHILD = np.array([2, 2, 1], dtype=np.int8)


# ---------------------------------------------------------------------------
# model points


@dataclass(frozen=True, slots=True)
class HalfPlane:
    """Point (x, y) of the upper half-plane, y > 0."""

    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise ValueError(f"half-plane point needs y > 0, got y={self.y}")


@dataclass(frozen=True, slots=True)
class HalfSpace:
    """Point (x_1..x_{d-1}; y) of upper half-space, y > 0."""

    xs: tuple[float, ...]
    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise ValueError(f"half-space point needs y > 0, got y={self.y}")


@dataclass(frozen=True, slots=True)
class TreeAddress:
    """Reduced word over {0,1,2}: no letter repeats its predecessor."""

    word: tuple[int, ...]

    def __post_init__(self):
        w = self.word
        if _TREE_LETTERS.issuperset(w) and not any(map(operator.eq, w, w[1:])):
            return
        # name the first offending letter
        for i, a in enumerate(w):
            if a not in (0, 1, 2):
                raise ValueError(f"tree letters must be 0/1/2, got {a}")
            if i and a == w[i - 1]:
                raise ValueError(f"word not reduced at position {i}: {w}")


@dataclass(frozen=True, slots=True)
class ZPoint:
    n: int


@dataclass(frozen=True, slots=True)
class CombNode:
    """Comb vertex: base position plus offsets along successive hairs.

    ``offsets[i] >= 1`` is the position along the generation-(i+1) hair;
    the hair of generation i+1 is rooted at the node with offsets[:i+1]
    truncated, except that generation-(g+1) hairs never attach at roots.
    """

    base: int
    offsets: tuple[int, ...] = ()

    def __post_init__(self):
        if any(o < 1 for o in self.offsets):
            raise ValueError(f"hair offsets must be >= 1, got {self.offsets}")

    @property
    def level(self) -> int:
        return len(self.offsets)


@dataclass(frozen=True, slots=True)
class TuplePoint:
    parts: tuple["ModelPoint", ...]


ModelPoint = Union[HalfPlane, HalfSpace, TreeAddress, ZPoint, CombNode, TuplePoint]


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for a bulk build of point
    objects, and restore the setting it found on the way out, also on an
    error.

    Points hold only numbers and tuples of numbers, so they form no
    cycles, yet building hundreds of thousands of them sets off full
    collections that walk every tracked object.  Callers hold the pause
    within one call, never across a generator's ``yield``.  It is not
    thread-aware: a thread that toggles the collector meanwhile can have
    its setting overridden.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class ArrayView(collections.abc.Sequence):
    """Read-only sequence whose items are built from arrays on every read.

    A subclass sets the length ``_len`` and defines ``_build(idx)``, an
    iterable of the items at the integer array ``idx``: a lazy one (a
    ``map``) where the items allow, so that iteration, which reads
    ``_VIEW_BLOCK`` indices per pass, holds one built item at a time.  No
    item is stored, so a view costs no more memory than its arrays.
    Indices may be negative (:class:`IndexError` out of range), and a
    slice reads as a list.  A view equals a list, or a view, of equal
    items.
    """

    __slots__ = ("_len",)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(np.arange(self._len)[i])
        return self.take([range(self._len)[i]])[0]

    def __iter__(self):
        for lo in range(0, self._len, _VIEW_BLOCK):
            yield from self._build(np.arange(lo, min(self._len, lo + _VIEW_BLOCK)))

    def take(self, idx) -> list:
        """The items at the indices ``idx`` (negative ones count from the
        end), built in one pass."""
        return list(self._build(np.asarray(idx, dtype=np.int64)))

    def __eq__(self, other):
        if not isinstance(other, (list, ArrayView)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


class PointView(ArrayView):
    """The n points of a net held as arrays, built by ``take`` (the net's
    :meth:`SpaceGraph._take`) as a list of the points at an index array."""

    __slots__ = ("_build",)

    def __init__(self, n: int, take):
        self._len, self._build = n, take


class RowView(ArrayView):
    """The rows ``pts[ptr[i]:ptr[i + 1]]`` of a CSR, each built by ``make``
    (``tuple`` or ``frozenset``) from the list of its entries.  A view
    with the same ``make`` compares by its arrays."""

    __slots__ = ("ptr", "pts", "_make")

    def __init__(self, ptr: np.ndarray, pts: np.ndarray, make):
        self.ptr, self.pts, self._make = ptr, pts, make
        self._len = len(ptr) - 1

    def _build(self, idx):
        # one list of the entries from the lowest row read to the highest,
        # sliced per row: a block of consecutive rows lists only its own
        a, b = self.ptr[:-1][idx], self.ptr[1:][idx]
        lo = a.min(initial=len(self.pts))
        flat = self.pts[lo:b.max(initial=lo)].tolist()
        return map(self._make, map(flat.__getitem__,
                                   map(slice, (a - lo).tolist(), (b - lo).tolist())))

    def __eq__(self, other):
        if isinstance(other, RowView) and other._make is self._make:
            return (np.array_equal(self.ptr, other.ptr)
                    and np.array_equal(self.pts, other.pts))
        return super().__eq__(other)

    def row(self, i: int) -> np.ndarray:
        """The entries of row i, as an array."""
        i = range(len(self))[i]
        return self.pts[self.ptr[i]:self.ptr[i + 1]]


class LabelView(ArrayView):
    """The strings ``fmt.format(*fields[:, i])``, one for each column i of
    a read-only 2-D integer array ``fields`` that holds a row per
    replacement field of ``fmt``."""

    __slots__ = ("fmt", "fields")

    def __init__(self, fmt: str, *columns):
        self.fmt = fmt
        self.fields = np.array(columns, dtype=np.int64)
        self.fields.flags.writeable = False
        self._len = self.fields.shape[1]

    def _build(self, idx):
        return map(self.fmt.format, *self.fields[:, idx].tolist())


def _prefix_tuples(cells: np.ndarray, lengths: np.ndarray) -> list[tuple]:
    """The first ``lengths[i]`` entries of each row i of ``cells``, as
    tuples."""
    flat = cells[np.arange(cells.shape[1]) < lengths[:, None]].tolist()
    ends = np.cumsum(lengths).tolist()
    return [tuple(flat[a:b]) for a, b in zip([0] + ends[:-1], ends)]


def _acosh1p_array(t: np.ndarray) -> np.ndarray:
    # acosh(1 + t) elementwise: numpy's arccosh can differ from math.acosh
    # in the last bit, so math.acosh runs as a C-level map; 1 + t clamped
    # at 1 gives acosh 0 wherever t <= 0 (NaN stays NaN)
    return np.fromiter(map(math.acosh, np.maximum(1.0 + t, 1.0).tolist()),
                       float, len(t))


def _squares(v: np.ndarray) -> np.ndarray:
    # v ** 2 elementwise through libm pow, as Python's ``**`` squares a
    # float (numpy's square is v * v, which can differ in the last bit);
    # pow runs once per distinct value (-0.0 and 0.0 square alike)
    u, inv = np.unique(v, return_inverse=True)
    return np.fromiter(map(float.__pow__, u.tolist(), repeat(2)), float,
                       len(u))[inv.reshape(-1)]


# ---------------------------------------------------------------------------
# growth report


def _path_lengths(graph, indices, limit: Optional[int] = None,
                  **kw) -> np.ndarray:
    """The one BFS: an unweighted csgraph search of a symmetric scipy
    graph from ``indices``; -1 where unreachable or over ``limit``."""
    from scipy.sparse.csgraph import dijkstra

    lim = np.inf if limit is None else float(limit)
    # every adjacency is symmetric: a directed search reads the same
    # graph without scipy's transpose
    d = dijkstra(graph, directed=True, unweighted=True, indices=indices,
                 limit=lim, **kw)
    out = np.full(d.shape, -1, dtype=np.int64)
    finite = np.isfinite(d)
    out[finite] = d[finite].astype(np.int64)
    return out


@dataclass
class GrowthReport:
    """Ball cardinalities around a center, with boundary-truncation flags."""

    center: int
    radii: list[int]
    counts: list[int]
    truncated: list[bool]

    def untruncated(self, r_min: int = 0) -> tuple[list[int], list[int]]:
        rs, cs = [], []
        for r, c, t in zip(self.radii, self.counts, self.truncated):
            if not t and r >= r_min:
                rs.append(r)
                cs.append(c)
        return rs, cs


@dataclass(frozen=True)
class GrowthTable:
    """Ball counts of a family of sets, as ragged arrays: set i around
    ``centres[i]`` has radii 0..k-1, with cumulative counts
    ``counts[rptr[i]:rptr[i + 1]]`` and cumulative truncation flags
    ``truncated[rptr[i]:rptr[i + 1]]``; an empty set has centre -1 and
    no radii.  Made by :func:`_growth_table`."""

    centres: np.ndarray
    rptr: np.ndarray
    counts: np.ndarray
    truncated: np.ndarray

    def report(self, i: int, r_max: Optional[int] = None) -> GrowthReport:
        """The growth report of set i, read up to radius ``r_max``; a
        negative ``r_max`` raises :class:`UnsupportedError`."""
        i = range(len(self.centres))[i]
        if r_max is not None and r_max < 0:
            raise UnsupportedError("radius must be >= 0")
        lo, hi = int(self.rptr[i]), int(self.rptr[i + 1])
        if lo == hi:
            raise DataError("empty subset")
        if r_max is not None:
            hi = min(hi, lo + r_max + 1)
        return GrowthReport(center=int(self.centres[i]),
                            radii=list(range(hi - lo)),
                            counts=self.counts[lo:hi].tolist(),
                            truncated=self.truncated[lo:hi].tolist())


def _growth_table(centres: np.ndarray, length: np.ndarray,
                  hit: Sequence[np.ndarray],
                  edge: Sequence[np.ndarray]) -> GrowthTable:
    """The one table builder: set i has radii 0..``length[i]`` - 1;
    ``hit`` and ``edge`` are (set, radius) index arrays, one pair per
    counted point and per point within the edge threshold of the window
    boundary, a radius of -1 where the point was not reached.  A radius
    counts the hits at or below it, and is truncated once an edge pair
    lies at or below it."""
    rptr = np.zeros(len(length) + 1, dtype=np.int64)
    np.cumsum(length, out=rptr[1:])

    def within_rows(pairs: Sequence[np.ndarray]) -> np.ndarray:
        # cumulative sums of the pairs at each radius, restarted per set
        sets, radii = pairs
        at = (rptr[sets] + radii)[radii >= 0]
        total = np.cumsum(np.bincount(at, minlength=rptr[-1]))
        return total - np.repeat(np.r_[0, total][rptr[:-1]], length)

    return GrowthTable(centres=centres, rptr=rptr, counts=within_rows(hit),
                       truncated=within_rows(edge) > 0)


# ---------------------------------------------------------------------------
# the range-query engine of half-plane and half-space nets


def _grid_steps(sep: float) -> tuple[float, float]:
    """Layer spacing h and relative column width w of a stratified net."""
    return sep * _LAYER_STEP, 2.0 * math.sinh(_X_STEP_SCALE * sep)


def _t_values(xa: np.ndarray, ya: np.ndarray, xb: np.ndarray,
              yb: np.ndarray) -> np.ndarray:
    """cosh(d) - 1 of row-aligned (or broadcast) point pairs: the summed
    squared x-differences (each ``v * v``, left to right) plus dy * dy,
    over 2 * ya * yb; x-coordinates are on the last axis."""
    dx2 = (xa[..., 0] - xb[..., 0]) ** 2
    for c in range(1, xa.shape[-1]):
        dx2 = dx2 + (xa[..., c] - xb[..., c]) ** 2
    dy = ya - yb
    return (dx2 + dy * dy) / (2.0 * ya * yb)


def _t_exact(hd: bool, xa: np.ndarray, ya: np.ndarray, xb: np.ndarray,
             yb: np.ndarray) -> np.ndarray:
    """The t of the model distance ``acosh(1 + t)``: :func:`_t_values`,
    except that half-space (``hd``) points square x-differences with
    ``**`` (libm pow), which can differ from numpy's x*x in the last bit.
    """
    if not hd:
        return _t_values(xa, ya, xb, yb)
    dx = xa - xb
    dx2 = _squares(dx[:, 0])
    for c in range(1, dx.shape[1]):
        dx2 = dx2 + _squares(dx[:, c])
    dy = ya - yb
    return (dx2 + dy * dy) / (2.0 * ya * yb)


def _within(t: np.ndarray, radius: np.ndarray, exact_t=None) -> np.ndarray:
    """Mask of ``acosh(1 + t) <= radius``, decided exactly as the model
    distance of :func:`_acosh1p_array`.

    numpy's arccosh can differ from ``math.acosh`` in the last bit, so
    entries whose 1 + t lies within a relative 1e-9 of cosh(radius) are
    decided by :func:`_acosh1p_array` itself, on ``exact_t(band)`` (the t
    of the entries ``band`` in the exact arithmetic) where that is given.  Each
    distinct (t, radius) pair of the band is decided once: on a stratified
    net every same-layer neighbour pair lies exactly 2*sep apart, so the
    band holds many entries but few values.
    """
    u = 1.0 + t
    with np.errstate(over="ignore"):
        c = np.cosh(radius)
    keep = u <= c
    band = np.nonzero(np.abs(u / c - 1.0) <= 1e-9)[0]
    if len(band):
        tb = t[band] if exact_t is None else exact_t(band)
        rb = radius[band]
        order = np.lexsort((rb, tb))
        tb, rb = tb[order], rb[order]
        new = np.r_[True, (tb[1:] != tb[:-1]) | (rb[1:] != rb[:-1])]
        first = np.flatnonzero(new)
        verdict = _acosh1p_array(tb[first]) <= rb[first]
        keep[band[order]] = verdict[np.cumsum(new) - 1]
    return keep


def _radii(radius, m: int) -> np.ndarray:
    """``radius``, a scalar or one value per query row, as m radii;
    :class:`UnsupportedError` unless each is >= 0 (NaN is not)."""
    r = np.asarray(radius, dtype=float)
    if r.ndim > 1 or (r.ndim == 1 and len(r) != m):
        raise UnsupportedError(
            f"radius must be a scalar or one value per query row ({m})")
    if not (r >= 0).all():
        raise UnsupportedError(f"query radius must be >= 0, got {radius}")
    return np.broadcast_to(r, (m,))


def _query_rows(xs, ys, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Query rows ``(xs[i]; ys[i])`` as float arrays; :class:`UnsupportedError`
    unless each is a finite point of the half space with ``cols``
    x-coordinates."""
    qx, qy = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if qy.ndim != 1 or qx.shape != (len(qy), cols):
        raise UnsupportedError(
            f"query rows need {cols} x-coordinate(s) and one y each")
    if not (np.isfinite(qx).all() and np.isfinite(qy).all() and (qy > 0).all()):
        raise UnsupportedError("query points must be finite, with y > 0")
    return qx, qy


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, offset) pairs enumerating range(counts[i]) for every i."""
    owner = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - starts[owner]


def _unique(a: np.ndarray, inverse: bool = False):
    """``np.unique(a)`` of a 1-d integer array by sort and mask, with
    ``a``'s position in it when ``inverse``; numpy's own hashes plain
    integer calls, about 20x slower at 100k."""
    order = np.argsort(a) if inverse else None
    s = np.sort(a) if order is None else a[order]
    first = np.empty(len(s), dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    if not inverse:
        return s[first]
    back = np.empty(len(a), dtype=np.int64)
    back[order] = np.cumsum(first) - 1
    return s[first], back


def _csr_take(indptr: np.ndarray, indices: np.ndarray,
              sel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries of the CSR rows ``sel``, as (position in sel, value) arrays."""
    sel = np.asarray(sel, dtype=np.int64)
    # entry j of the output, in row k, is indices[j + shift[k]]: row k
    # starts at indptr[sel[k]] there and at ends[k] - counts[k] here
    shift = indptr[sel + 1]
    counts = shift - indptr[sel]
    shift -= np.cumsum(counts)
    at = np.repeat(shift, counts)
    del shift
    at += np.arange(len(at))
    values = indices[at]
    del at  # at most two entry-sized arrays are alive at once
    return np.repeat(np.arange(len(sel)), counts), values


def _csr_from_rows(row: np.ndarray, indices: np.ndarray,
                   n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the entries ``indices``, already grouped by their ``row``."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return indptr, indices


def _transpose(ptr: np.ndarray, idx: np.ndarray, ncols: int,
               data: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Transpose of the CSR ``(ptr, idx)`` over the columns ``range(ncols)``:
    int64 CSR ``(tptr, rows)``, each column's rows in increasing order, or
    given ``data``, the entries' data in that order instead of their rows.
    The one point-to-piece inversion: scipy's linear CSR -> CSC pass."""
    from scipy.sparse._sparsetools import csr_tocsc

    carried = np.zeros(len(idx), dtype=bool) if data is None else data
    # the native pass checks no index: one out of range would write outside
    if (ptr[0] != 0 or ptr[-1] != len(idx) or (np.diff(ptr) < 0).any()
            or len(carried) != len(idx)
            or len(idx) and not (0 <= idx.min() and idx.max() < ncols)):
        raise ValueError(f"not a CSR over {ncols} columns")
    tptr = np.empty(ncols + 1, dtype=np.int64)
    rows = np.empty(len(idx), dtype=np.int64)
    out = np.empty_like(carried)
    csr_tocsc(len(ptr) - 1, ncols, ptr, idx, carried, tptr, rows, out)
    return tptr, rows if data is None else out


def _sorted_rows(row: np.ndarray, pts: np.ndarray, nrows: int,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR of rows 0..nrows-1 holding the entries ``pts[k]`` (< n) of rows
    ``row[k]``, given in any order: rows sorted, repeats dropped."""
    key = row * n  # one key array, summed, sorted and reduced in place
    key += pts
    key.sort()
    key = key[np.r_[True, key[1:] != key[:-1]]] if len(key) else key
    row = key // n
    key %= n
    return _csr_from_rows(row, key, nrows)


def _csr_from_edges(n: int, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency CSR of the undirected graph on n points with the edges
    ``(a[k], b[k])``: loops dropped, each row sorted and without repeats."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    keep = a != b
    return _sorted_rows(np.r_[a[keep], b[keep]], np.r_[b[keep], a[keep]], n, n)


def _csr_from_pairs(n: int, blocks) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency CSR of the graph on n points whose edges are the pairs
    ``(a[k], b[k])`` of the self-join blocks ``(a, b)``, of which there may
    be none."""
    pairs, empty = list(blocks), [np.zeros(0, dtype=np.int64)]
    return _csr_from_edges(n, np.concatenate(empty + [a for a, _ in pairs]),
                           np.concatenate(empty + [b for _, b in pairs]))


def _concat_csr(blocks) -> tuple[np.ndarray, np.ndarray]:
    ptrs, parts, total = [np.zeros(1, dtype=np.int64)], [], 0
    for indptr, indices in blocks:
        ptrs.append(indptr[1:] + total)
        parts.append(indices)
        total += len(indices)
    if not parts:
        return ptrs[0], np.zeros(0, dtype=np.int64)
    return np.concatenate(ptrs), np.concatenate(parts)


class _StratifiedGrid:
    """Batched model-metric range queries on a stratified half-space net.

    Every point is keyed by its integer (layer, column[, column2]); the keys
    are sorted once.  A query row (x; y) meets layer k (height y_k) in the
    disk |x' - x|^2 <= bound2 = 2*y*y_k*(cosh r - 1) - (y_k - y)^2, and the
    engine tests exactly the columns inside it: ``ceil`` of its low end to
    ``floor`` of its high end (for two x-coordinates, the x_1 columns, then
    in each the x_2 columns of the chord it leaves).  A key row is every
    key column but the last: a layer in h2, a (layer, x_1 column) pair in
    hd.  Each window's run of keys (one key row, a column range) is read in
    O(1) from the row table (:meth:`_runs`).  An occupied row whose
    columns run from c to c' has the slots t = 0 .. c' - c + 1, and slot t
    holds the sorted position of the row's first key at a column >= c + t,
    counted from the points, so a cell may hold several.  The table has
    (sum of the row spans) + (occupied rows) + 1 entries: n + rows + 1
    when each row's cells are contiguous, as on every net (128,877 on the
    128,849-point radius-11 h2 net).  Three entries per key row clip a
    window to its row's slots; an empty row's clip lands on the slot that
    holds the position where its keys would start.  A candidate is kept
    only if it passes the exact test ``acosh(1 + t) <= r`` (see
    :func:`_within`).  The self-join (:meth:`pair_blocks`) queries each
    net point only for the points after it in key order.

    The disks are drawn for cosh(r) * (1 + 1e-8), and only layers with
    bound2 >= 0 are kept.  This loses no point that passes the test:
    ``_within`` accepts only 1 + t <= cosh(r) * (1 + 1e-9), and the drawn
    disk exceeds that one by 2*y*y_k*cosh(r)*9e-9 in bound2, about 1e6
    times the rounding of bound2.  In columns that margin is at least about
    4.5e-9 / w (6e-9 columns on the hd birad-7 source, 2.5e-9 on the
    radius-11 h2 net), against about 1e-11 columns of rounding in
    (centre +- half) / step, which grows with the column index.  So that no
    window is large enough to tip that balance, each half width is also
    widened by ``_GUARD`` times the magnitudes involved, about a thousand
    times the rounding of the subtraction, the division and the points' own
    positions j * step.  The self-join of the hd birad-7 source tests
    exactly its 101,419 edges; that of the radius-11 h2 net tests 281,993
    pairs for 281,705 edges.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, sep: float, hd: bool):
        self.xs, self.ys, self.hd = xs, ys, hd
        self.h, self.w = _grid_steps(sep)
        layer = np.rint(np.log(ys) / self.h).astype(np.int64)
        cols = np.rint(xs / (self.w * np.exp(layer * self.h))[:, None])
        keys = np.column_stack([layer, cols.astype(np.int64)])
        self.lo = keys.min(axis=0)
        self.hi = keys.max(axis=0)
        span = self.hi - self.lo + 1
        self.strides = np.cumprod(np.r_[span[1:], 1][::-1])[::-1]
        key = (keys - self.lo) @ self.strides
        self.order = np.argsort(key, kind="stable")
        self.keys = key[self.order]
        # the height y_k = exp(k * h) of each layer k
        self.heights = np.exp(np.arange(self.lo[0], self.hi[0] + 1) * self.h)
        # the row table (see the class docstring): an occupied key row's
        # slots start at ``at``, and slot s holds the number of sorted
        # keys at slots below s
        line, col = np.divmod(self.keys, span[-1])
        starts = np.flatnonzero(np.r_[True, line[1:] != line[:-1]])
        ends = np.r_[starts[1:], len(col)]
        occupied, cmin = line[starts], col[starts]
        size = col[ends - 1] - cmin + 2
        at = np.cumsum(size) - size
        slot = np.repeat(at - cmin, ends - starts) + col
        self.table = np.zeros(at[-1] + size[-1] + 1, dtype=np.int64)
        np.cumsum(np.bincount(slot, minlength=len(self.table) - 1),
                  out=self.table[1:])
        # an empty row clips to the first slot of the next occupied row,
        # or to the last slot, which holds n
        nrows = int(np.prod(span[:-1]))
        lo = np.full(nrows, len(self.table) - 1, dtype=np.int64)
        lo[occupied] = at
        self.row_lo = np.minimum.accumulate(lo[::-1])[::-1]
        self.row_hi = self.row_lo.copy()
        self.row_hi[occupied] = at + size - 1
        self.row_shift = np.zeros(nrows, dtype=np.int64)
        self.row_shift[occupied] = at - cmin

    def query(self, qx, qy, radius) -> tuple[np.ndarray, np.ndarray]:
        return _concat_csr(b[2:] for b in self.query_blocks(qx, qy, radius))

    def query_blocks(self, qx, qy, radius):
        """Yield ``(lo, hi, indptr, indices)`` for consecutive query rows
        [lo, hi), each block testing at most about _CANDIDATE_BUDGET pairs."""
        qx, qy = _query_rows(qx, qy, self.xs.shape[1])
        rad = _radii(radius, len(qy))
        for lo, hi, row, cand in self._blocks(qx, qy, rad, None):
            yield lo, hi, *_csr_from_rows(row, cand, hi - lo)

    def pair_blocks(self, radius):
        """The self-join: blocks ``(a, b)`` of the net point pairs a < b
        within ``radius``.  Each row is queried only for the points after
        it in key order, so each unordered pair is tested once."""
        rad = _radii(radius, len(self.ys))
        rank = np.empty_like(self.order)  # the sorted position of each point
        rank[self.order] = np.arange(len(rank))
        for lo, _, row, cand in self._blocks(self.xs, self.ys, rad, rank):
            a = row + lo
            yield np.minimum(a, cand), np.maximum(a, cand)

    def _blocks(self, qx, qy, rad, pos):
        # consecutive query rows [lo, hi) and the (row, candidate) pairs
        # found for them, rows grouped in order and each row's candidates
        # sorted; ``pos`` (the rows' sorted positions) limits each row to
        # the points after it
        if not len(qy):
            return
        step = max(1, _CANDIDATE_BUDGET // self._candidates_per_row(rad.max()))
        for lo in range(0, len(qy), step):
            hi = min(len(qy), lo + step)
            yield lo, hi, *self._query(qx[lo:hi], qy[lo:hi], rad[lo:hi],
                                       None if pos is None else pos[lo:hi])

    def _candidates_per_row(self, r: float) -> int:
        # rough upper bound: the ball spans 2r/h layers, and reaches at most
        # sqrt(2 e^(r+h) (cosh r - 1)) / w columns either side in each
        r = min(float(r), 40.0)
        layers = 2.0 * r / self.h + 1.0
        cols = 2.0 * math.sqrt(2.0 * math.exp(r + self.h)
                               * (math.cosh(r) - 1.0)) / self.w + 1.0
        return int(min(layers * cols ** (len(self.lo) - 1), len(self.ys))) + 1

    def distances(self, qx, qy, row, cand) -> np.ndarray:
        """Model distances of query row ``row[k]`` to net point ``cand[k]``,
        entry by entry."""
        t = _t_values(qx[row], qy[row], self.xs[cand], self.ys[cand])
        return np.arccosh(np.maximum(1.0, 1.0 + t))

    def _columns(self, c, centre, half, step):
        # inclusive range of the columns of coordinate c inside
        # [centre +- half], widened by the guard (see the class docstring)
        lo, hi = self.lo[c + 1], self.hi[c + 1]
        half = half + _GUARD * (np.abs(centre) + half)
        first = np.clip(np.ceil((centre - half) / step), lo, hi + 1)
        last = np.clip(np.floor((centre + half) / step), lo - 1, hi)
        return first.astype(np.int64), last.astype(np.int64)

    def _runs(self, line, first, last):
        """Sorted positions [a, b) of the keys in key row ``line`` at
        columns ``first`` to ``last`` (inclusive, relative to the lowest
        column; empty when first > last), read from the row table."""
        lo, hi, shift = self.row_lo[line], self.row_hi[line], self.row_shift[line]
        a = self.table[np.minimum(np.maximum(first + shift, lo), hi)]
        b = self.table[np.minimum(np.maximum(last + 1 + shift, lo), hi)]
        return a, b

    def _query(self, qx, qy, r, pos):
        m, dim = qx.shape
        with np.errstate(over="ignore", invalid="ignore"):
            # the disks are drawn for cosh(r) * (1 + 1e-8), past all that
            # _within accepts (see the class docstring)
            cosh_r = np.cosh(r) * (1.0 + 1e-8)
            lq = np.log(qy)
            k_first = np.clip(np.floor((lq - r) / self.h), self.lo[0], self.hi[0] + 1)
            k_last = np.clip(np.ceil((lq + r) / self.h), self.lo[0] - 1, self.hi[0])
            if pos is not None:
                # the points after a row in key order start at its layer
                k_first = np.maximum(k_first, self.keys[pos] // self.strides[0]
                                     + self.lo[0])
            row, off = _expand(np.maximum(k_last - k_first + 1, 0).astype(np.int64))
            # the window's key row: its layer, then (hd) its x_1 column
            line = (k_first[row] - self.lo[0]).astype(np.int64) + off
            y, yk = qy[row], self.heights[line]
            bound2 = 2.0 * y * yk * (cosh_r[row] - 1.0) - (yk - y) ** 2
            live = bound2 >= 0
            row, line, yk, bound2 = row[live], line[live], yk[live], bound2[live]
            step = self.w * yk
            first, last = self._columns(0, qx[row, 0], np.sqrt(bound2), step)
            if dim == 2:
                sub, off = _expand(np.maximum(last - first + 1, 0))
                row, step, line = row[sub], step[sub], line[sub]
                j = first[sub] + off
                # what the x_1 offset leaves of the disk, the offset
                # shrunk by the same guard
                x1, c1 = j * step, qx[row, 0]
                dx = np.maximum(np.abs(x1 - c1)
                                - _GUARD * (np.abs(x1) + np.abs(c1)), 0.0)
                rem = np.maximum(bound2[sub] - dx * dx, 0.0)
                line = line * (self.hi[1] - self.lo[1] + 1) + j - self.lo[1]
                first, last = self._columns(1, qx[row, 1], np.sqrt(rem), step)
        a, b = self._runs(line, first - self.lo[dim], last - self.lo[dim])
        if pos is not None:
            a = np.maximum(a, pos[row] + 1)
        sub, off = _expand(np.maximum(b - a, 0))
        row = row[sub]
        cand = self.order[a[sub] + off]
        t = _t_values(qx[row], qy[row], self.xs[cand], self.ys[cand])
        keep = _within(t, r[row], lambda b: _t_exact(
            self.hd, qx[row[b]], qy[row[b]], self.xs[cand[b]], self.ys[cand[b]]))
        row, cand = row[keep], cand[keep]
        # rows arrive grouped in order; sort each row's indices
        n = len(self.ys)
        return row, np.sort(row * n + cand) - row * n


# ---------------------------------------------------------------------------
# distance kernels: model distances of row-aligned index pairs (a[k], b[k]),
# the one arithmetic of each model


def _pack_words(words: np.ndarray) -> np.ndarray:
    """uint64 codes of a padded int8 word matrix (see :func:`_net_t3`),
    one row per 32 letter columns: two bits a letter, the first letter
    highest, and ``-1 & 3`` for padding (and the tail of the last row).
    Two words share their letters up to the first bit where their codes
    differ, clipped to the shorter word.  Filled one letter column at a
    time, so no uint64 copy of the whole matrix is made."""
    m, width = words.shape
    letters = words.view(np.uint8)
    codes = np.empty((-(-width // 32), m), dtype=np.uint64)
    for c, acc in enumerate(codes):
        acc[:] = 0
        for k in range(32 * c, 32 * c + 32):
            acc <<= 2
            acc |= letters[:, k] & 3 if k < width else 3
    return codes


def _tree_distance(codes: np.ndarray, depth: np.ndarray) -> Callable[[int, int], float]:
    """Scalar kernel of packed words (see :func:`_pack_words`): each word
    one Python int, its code rows joined first row highest."""
    ints = codes[0].tolist()
    for row in codes[1:]:
        ints = [high << 64 | low for high, low in zip(ints, row.tolist())]
    letters, depth, n = 32 * len(codes), depth.tolist(), len(depth)

    def distance(i: int, j: int) -> float:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"point index out of range: {i}, {j}")
        la, lb = depth[i], depth[j]
        short = la if la < lb else lb
        common = letters - ((ints[i] ^ ints[j]).bit_length() + 1) // 2
        return float(la + lb - 2 * (common if common < short else short))
    return distance


def _tree_kernel(codes: np.ndarray, depth: np.ndarray):
    """Kernel of packed words (see :func:`_pack_words`)."""
    def tree(a, b):
        # mark each differing letter at the low bit of its pair: the marks
        # sit at even bits only, so the float of the mask never rounds up
        # to the next power of two, and frexp gives the highest mark's bit
        # length exactly.  A row adds the next row's count only when it
        # shares all 32 letters.
        lcp = 0
        for row in codes[::-1]:
            x = row[a] ^ row[b]
            marks = (x | x >> 1) & 0x5555555555555555
            shared = (64 - np.frexp(marks.astype(float))[1]) // 2
            lcp = np.where(shared == 32, 32 + lcp, shared)
        # words that differ share at most the shorter one; equal words
        # share every row, clipped to their depth
        da = depth[a]
        return (da + depth[b] - 2 * np.minimum(lcp, da)).astype(float)
    return tree


def _comb_kernel(path: np.ndarray, tail: np.ndarray):
    """Kernel of a comb path matrix and its suffix sums (see
    :func:`_net_comb`)."""
    def comb(a, b):
        # climb each path to the first mismatching column k (forced at
        # the padding column), then step between the two entries there
        pa, pb = path[a], path[b]
        mismatch = pa != pb
        mismatch[:, -1] = True
        k = mismatch.argmax(axis=1)
        rows = np.arange(len(k))
        return (tail[a, k] + np.abs(pa[rows, k] - pb[rows, k])
                + tail[b, k]).astype(float)
    return comb


def _kernel_blocks(distances, n: int, idx: np.ndarray, radius: float):
    """:meth:`SpaceGraph.neighbor_blocks` of n points, each tested with
    the kernel ``distances``, about _CANDIDATE_BUDGET pairs per block."""
    radius = _radii(radius, 1)[0]
    step = max(1, _CANDIDATE_BUDGET // n)
    for lo in range(0, len(idx), step):
        rows = idx[lo:lo + step]
        near = (distances(np.repeat(rows, n), np.tile(np.arange(n), len(rows)))
                <= radius).reshape(len(rows), n)
        yield rows, *_csr_from_rows(*np.nonzero(near), len(rows))


def _kernel_pairs(distances, n: int, radius: float):
    """The self-join of n points under the kernel ``distances``: blocks
    ``(a, b)`` of the pairs a < b within ``radius``, in increasing order,
    each row tested against the later points only, about
    _CANDIDATE_BUDGET pairs per block."""
    radius = _radii(radius, 1)[0]
    lo = 0
    while lo < n - 1:
        hi = min(n - 1, lo + max(1, _CANDIDATE_BUDGET // (n - 1 - lo)))
        own, off = _expand(n - 1 - np.arange(lo, hi))
        a = own + lo
        b = a + 1 + off
        near = distances(a, b) <= radius
        yield a[near], b[near]
        lo = hi


# ---------------------------------------------------------------------------
# the space graph


@dataclass
class SpaceGraph:
    """Immutable net graph, built whole from its arrays.

    The adjacency is read-only CSR: the neighbours of point i, sorted, are
    ``indices[indptr[i]:indptr[i + 1]]``; edges join points at model
    distance <= ``edge_threshold``.  The points are held as integer codes
    (``_codes``) or, on half-plane/half-space nets, as the coordinate
    arrays of the range-query grid (``_grid``); :attr:`points` derives the
    point objects from them.  All queries are read-only.
    """

    model: str
    indptr: np.ndarray
    indices: np.ndarray
    sep: float
    edge_threshold: float
    window: dict
    n: int = field(init=False, default=0)
    degree_bound: int = field(init=False, default=0)
    _grid: object = field(default=None, repr=False)
    # integer codes, set when the net is built: z values and metric graph
    # vertices, product factor indices, t3 (words, depth), comb (path, tail)
    _codes: object = field(default=None, repr=False)

    def __post_init__(self):
        self.indptr.flags.writeable = self.indices.flags.writeable = False
        self.n = len(self.indptr) - 1
        if not self.n:
            # a product window holds its factor graphs: name it without them
            shown = {k: v for k, v in self.window.items() if k != "factors"}
            raise EmptySpaceError(f"window produced no points: {shown}")
        self.degree_bound = int(np.diff(self.indptr).max(initial=0))

    # -- basic queries ----------------------------------------------------

    @property
    def adj(self) -> RowView:
        """The sorted neighbour tuples, as a :class:`RowView` of the CSR
        arrays: each tuple is built when it is read, and none is kept."""
        return RowView(self.indptr, self.indices, tuple)

    @property
    def points(self) -> Sequence[ModelPoint]:
        """The point objects, built from the arrays on every read and never
        kept: a fresh list on integer windows and metric graphs, elsewhere
        a :class:`PointView` that builds each point when it is read."""
        if self.model in ("z", "metric_graph"):
            return self._take(np.arange(self.n))
        return PointView(self.n, self._take)

    def _take(self, idx: np.ndarray) -> list:
        """The points at the indices ``idx``, built from the arrays with
        the cyclic collector paused (see :func:`_collector_paused`)."""
        with _collector_paused():
            if self.model in ("z", "metric_graph"):
                # ZPoint(n) for each code, with no Python __init__ call
                pts = list(map(object.__new__, repeat(ZPoint, len(idx))))
                collections.deque(map(ZPoint.n.__set__, pts,
                                      self._codes[idx].tolist()), maxlen=0)
                return pts
            if self.model == "t3":
                words, depth = self._codes
                return list(map(TreeAddress,
                                _prefix_tuples(words[idx], depth[idx])))
            if self.model == "comb":
                path = self._codes[0][idx]
                return list(map(CombNode, path[:, 0].tolist(), _prefix_tuples(
                    path[:, 1:], np.count_nonzero(path[:, 1:], axis=1))))
            if self.model == "product":
                parts = [f._take(self._codes[idx, k])
                         for k, f in enumerate(self.window["factors"])]
                return list(map(TuplePoint, zip(*parts)))
            xs, ys = self._coords()
            if xs.shape[1] == 1:
                return list(map(HalfPlane, xs[idx, 0].tolist(),
                                ys[idx].tolist()))
            return list(map(HalfSpace, map(tuple, xs[idx].tolist()),
                            ys[idx].tolist()))

    def index_of(self, p: ModelPoint) -> int:
        """Index of the point ``p``; :class:`KeyError` if the net lacks it."""
        if self.model in ("z", "metric_graph"):
            # integer nets hold increasing integers: no point dictionary
            ns = self._codes
            i = int(np.searchsorted(ns, p.n)) if isinstance(p, ZPoint) else self.n
            if i < self.n and ns[i] == p.n:
                return i
            raise KeyError(p)
        return self._index[p]

    @cached_property
    def _index(self) -> dict:
        # the frozen point classes hash and compare by their fields
        return {q: i for i, q in enumerate(self.points)}

    @cached_property
    def model_distance(self) -> Callable[[int, int], float]:
        """Model distance of points i and j, bit-identical to
        :meth:`distances`: a t3 call goes straight to the packed-word
        kernel (see :func:`_pack_words`), any other is one pair of it."""
        if self.model == "t3":
            return _tree_distance(self._tree_codes, self._codes[1])
        return lambda i, j: float(self.distances([i], [j])[0])

    @cached_property
    def _tree_codes(self) -> np.ndarray:
        return _pack_words(self._codes[0])

    # -- graph metric -----------------------------------------------------

    @cached_property
    def _csr(self):
        from scipy.sparse import csr_matrix

        data = np.ones(len(self.indices), dtype=np.int8)
        return csr_matrix((data, self.indices.astype(np.int32), self.indptr),
                          shape=(self.n, self.n))

    def graph_distances(self, center: int, limit: Optional[int] = None) -> np.ndarray:
        """Shortest-path distances from center; -1 where unreachable/over limit."""
        if not 0 <= center < self.n:
            raise IndexError(f"point index out of range: {center}")
        return _path_lengths(self._csr, center, limit)

    # -- row-aligned model distances --------------------------------------

    def distances(self, i: Sequence[int], j: Sequence[int]) -> np.ndarray:
        """Model distances of the point pairs ``(i[k], j[k])``.

        Bit-identical to :meth:`model_distance` pair by pair; rows are
        evaluated in blocks of at most ``_DISTANCE_BLOCK``.
        """
        i = np.asarray(i, dtype=np.int64).reshape(-1)
        j = np.asarray(j, dtype=np.int64).reshape(-1)
        if len(i) != len(j):
            raise ValueError(f"index arrays differ in length: {len(i)}, {len(j)}")
        out = np.empty(len(i))
        if not len(i):
            return out
        if min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= self.n:
            raise IndexError("point index out of range")
        kernel = self._distance_kernel()
        for lo in range(0, len(i), _DISTANCE_BLOCK):
            hi = lo + _DISTANCE_BLOCK
            out[lo:hi] = kernel(i[lo:hi], j[lo:hi])
        return out

    @cached_property
    def _dist_matrix(self) -> np.ndarray:
        # the path metric of a metric graph, its model metric
        from scipy.sparse.csgraph import dijkstra

        return dijkstra(self._csr, directed=False, unweighted=True)

    def _distance_kernel(self):
        if self.model == "metric_graph":
            return lambda a, b: self._dist_matrix[a, b]
        if self.model in ("h2", "hd"):
            xs, ys, hd = *self._coords(), self.model == "hd"
            return lambda a, b: _acosh1p_array(
                _t_exact(hd, xs[a], ys[a], xs[b], ys[b]))
        if self.model == "z":
            ns = self._codes
            return lambda a, b: np.abs(ns[a] - ns[b]).astype(float)
        if self.model == "product":
            # each factor evaluates each distinct index pair once; the
            # factor distances are summed left to right from 0
            codes, fs = self._codes, self.window["factors"]

            def part(a, b, k, f):
                keys, back = _unique(codes[a, k] * f.n + codes[b, k],
                                     inverse=True)
                return f.distances(keys // f.n, keys % f.n)[back]
            return lambda a, b: sum(part(a, b, k, f) for k, f in enumerate(fs))
        if self.model == "t3":
            return _tree_kernel(self._tree_codes, self._codes[1])
        if self.model == "comb":
            return _comb_kernel(*self._codes)
        raise UnsupportedError(f"no distance kernel for model {self.model!r}")

    # -- model-metric range queries ---------------------------------------

    def neighbor_blocks(self, idx: Sequence[int], radius: float):
        """Model-metric neighbourhoods of the points ``idx``, in bounded blocks.

        Yields ``(rows, indptr, indices)`` for consecutive slices ``rows`` of
        ``idx``: CSR lists whose row i holds, sorted, the points within
        ``radius`` of ``rows[i]``, itself included.  Half-plane and
        half-space nets use the grid engine; other models test every point
        against each row, with :meth:`distances`, about _CANDIDATE_BUDGET
        pairs per block.  For every pair within a radius, use
        :meth:`pair_blocks`, which tests each pair once.  A negative or NaN
        radius is refused with :class:`UnsupportedError`.
        """
        idx = np.asarray(idx, dtype=np.int64).reshape(-1)
        if len(idx) and (idx.min() < 0 or idx.max() >= self.n):
            raise IndexError("point index out of range")
        if self.model in ("h2", "hd"):
            grid = self._grid
            for lo, hi, indptr, indices in grid.query_blocks(
                    grid.xs[idx], grid.ys[idx], radius):
                yield idx[lo:hi], indptr, indices
            return
        yield from _kernel_blocks(self.distances, self.n, idx, radius)

    def pair_blocks(self, radius: float):
        """The self-join: blocks ``(a, b)`` of the point pairs a < b within
        model distance ``radius``, each unordered pair tested once.

        Half-plane and half-space nets query each grid row for the points
        after it in key order; other models test each point against the
        later points with :meth:`distances`.  Both hold about
        _CANDIDATE_BUDGET tested pairs per block.  A negative or NaN radius
        is refused with :class:`UnsupportedError`.
        """
        if self.model in ("h2", "hd"):
            return self._grid.pair_blocks(radius)
        return _kernel_pairs(self.distances, self.n, radius)

    def neighbors(self, idx: Sequence[int], radius: float
                  ) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices)`` of the points within ``radius`` of each
        point of ``idx``, rows sorted (see :meth:`neighbor_blocks`)."""
        return _concat_csr((p, i) for _, p, i in self.neighbor_blocks(idx, radius))

    def coords_within(self, xs, ys, radius) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices)`` of the net points within model distance
        ``radius`` (a scalar or one value per row) of each query row
        ``(xs[i]; ys[i])``, rows sorted; ``xs`` has one column per
        x-coordinate.  Half-plane/half-space nets only.  Rows that are not
        finite points of the half space, and negative or NaN radii, are
        refused with :class:`UnsupportedError`."""
        return self._grid.query(xs, ys, radius)

    def nearest_points(self, xs, ys) -> np.ndarray:
        """Index of the net point nearest to each query row ``(xs[i]; ys[i])``.

        Distances within 1e-12 tie and go to the lower index: the key is
        ``(round(d, 12), index)``.  The search radius starts at ``sep`` and
        doubles, for the rows that found nothing, up to 40 times.  A row
        is decided from the candidates of the query that found it, unless
        its best + 1e-9 passes that query's radius: then it is queried
        again at best + 1e-9.  Rows are refused as in :meth:`coords_within`.
        """
        grid = self._grid
        qx, qy = _query_rows(xs, ys, grid.xs.shape[1])
        out = np.full(len(qy), -1, dtype=np.int64)
        todo = np.arange(len(qy))
        radius = self.sep
        for _ in range(40):
            if not len(todo):
                return out
            indptr, cand = grid.query(qx[todo], qy[todo], radius)
            size = np.diff(indptr)
            hit = size > 0
            if hit.any():
                found = todo[hit]
                row = np.repeat(found, size[hit])
                d = grid.distances(qx, qy, row, cand)
                reach = np.minimum.reduceat(d, indptr[:-1][hit]) + 1e-9
                # only points within best + 1e-11 can tie with the best
                # under the rounded key.  The first ball holds them all
                # where best + 1e-9 <= radius; other rows are queried
                # again at best + 1e-9
                far = reach > radius
                if far.any():
                    keep = np.repeat(~far, size[hit])
                    again = found[far]
                    indptr, more = grid.query(qx[again], qy[again], reach[far])
                    more_row = np.repeat(again, np.diff(indptr))
                    row, cand = np.r_[row[keep], more_row], np.r_[cand[keep], more]
                    d = np.r_[d[keep], grid.distances(qx, qy, more_row, more)]
                self._pick_nearest(qx, qy, row, cand, d, out)
            todo = todo[~hit]
            radius *= 2.0
        if len(todo):
            raise EmptySpaceError("nearest-point query found nothing")
        return out

    def _pick_nearest(self, qx: np.ndarray, qy: np.ndarray, row: np.ndarray,
                      cand: np.ndarray, d: np.ndarray, out: np.ndarray) -> None:
        # the candidates of each query row at distances d, grouped by row
        # and holding every point within best + 1e-11: write the row's
        # nearest point to out[row].  A candidate more than 1e-11 above
        # the row minimum cannot win under the rounded key
        head = np.r_[True, row[1:] != row[:-1]]
        group = np.cumsum(head) - 1
        near = d <= np.minimum.reduceat(d, np.flatnonzero(head))[group] + 1e-11
        ties = np.bincount(group[near])[group]
        alone = near & (ties == 1)
        out[row[alone]] = cand[alone]
        tied = near & (ties > 1)
        if not tied.any():
            return
        # a tied row takes the least (round(d, 12), index), with the exact
        # distances and Python's round (numpy's rounds differently)
        row, cand = row[tied], cand[tied]
        d = self._distances_from(qx[row], qy[row], cand).tolist()
        key = np.fromiter(map(round, d, repeat(12)), float, len(d))
        order = np.lexsort((cand, key, row))
        row, cand = row[order], cand[order]
        first = np.r_[True, row[1:] != row[:-1]]
        out[row[first]] = cand[first]

    def _distances_from(self, qx: np.ndarray, qy: np.ndarray,
                        idx: np.ndarray) -> np.ndarray:
        """Model distances from the query rows ``(qx[k]; qy[k])`` to the
        net points ``idx[k]``, in the arithmetic of :meth:`distances`, the
        query first."""
        xs, ys = self._coords()
        return _acosh1p_array(_t_exact(self.model == "hd", qx, qy, xs[idx],
                                       ys[idx]))

    def _coords(self) -> tuple[np.ndarray, np.ndarray]:
        # (xs, y) arrays of half-plane/half-space nets
        return self._grid.xs, self._grid.ys

    def margins(self) -> np.ndarray:
        """Cached model-metric distance from each point to the window
        boundary; ``inf`` where the window has none.

        Ball and product windows read it from :meth:`distances`; birad
        windows sum ``acosh(1 + (x * x + (y - 1) ** 2) / (2 * y))`` over
        the x-coordinates, left to right, the ``** 2`` through libm pow.
        """
        return self._margins

    @cached_property
    def _margins(self) -> np.ndarray:
        w, n = self.window, self.n
        kind = w.get("kind")
        if kind == "ball":
            return w["radius"] - self.distances(np.arange(n),
                                                np.full(n, w["basepoint"]))
        if kind == "birad":
            # window {sum_i d_i(proj_i, o_i) <= radius} of half-space nets;
            # the sum grows at rate <= 2 per unit moved (vertical moves count
            # in every projection), so half the budget bounds the distance
            # to the boundary from below.  (y - 1)**2 squares through libm
            # pow, as Python's ``**`` does.
            xs, ys = self._coords()
            dy2 = _squares(ys - 1.0)
            total = np.zeros(n)
            for c in range(xs.shape[1]):
                total = total + _acosh1p_array(
                    (xs[:, c] * xs[:, c] + dy2) / (2.0 * ys))
            return (w["radius"] - total) / 2.0
        if self.model == "product" and kind in ("l1_ball", "full"):
            codes, fs = self._codes, w["factors"]
            out = np.full(n, math.inf)
            if kind == "l1_ball":
                # the centre distances summed left to right from 0
                out = w["radius"] - sum(
                    dv[codes[:, k]] for k, dv in
                    enumerate(_centre_distances(fs, w["centers"])))
            for k, f in enumerate(fs):
                out = np.minimum(out, f.margins()[codes[:, k]])
            return out
        if kind == "range":  # integer interval
            return np.minimum(self._codes - w["lo"], w["hi"] - self._codes
                              ).astype(float)
        if kind == "tree_ball":
            return (w["radius"] - self._codes[1]).astype(float)
        if kind == "comb_extent":
            return (w["extent"] - np.abs(self._codes[0]).max(axis=1)).astype(float)
        return np.full(n, math.inf)

    def set_distance(self, a: Iterable[int], b: Iterable[int]) -> float:
        """Min model distance between two point sets: the least value of
        :meth:`distances` over every pair."""
        ia, ib = np.fromiter(a, dtype=np.int64), np.fromiter(b, dtype=np.int64)
        if not len(ia) or not len(ib):
            return math.inf
        return self._extreme_distance(ia, ib, np.min)

    def set_diameter(self, idx: Iterable[int]) -> float:
        """Max model distance within a point set: the greatest value of
        :meth:`distances` over every pair."""
        ia = np.fromiter(idx, dtype=np.int64)
        if len(ia) < 2:
            return 0.0
        if self.model == "z":
            ns = self._codes[ia]
            return float(ns.max() - ns.min())
        return self._extreme_distance(ia, ia, np.max)

    def _extreme_distance(self, ia: np.ndarray, ib: np.ndarray, best) -> float:
        """``best`` (``np.min`` or ``np.max``) of :meth:`distances` over
        ia x ib, in blocks of about _DISTANCE_BLOCK pairs."""
        hyperbolic = self.model in ("h2", "hd")
        if hyperbolic:
            xs, ys = self._coords()
            xb, yb = xs[ib][None], ys[ib][None]
        step = max(1, _DISTANCE_BLOCK // len(ib))
        found = []
        for lo in range(0, len(ia), step):
            a = ia[lo:lo + step]
            if hyperbolic:
                # the distance rises with t, and numpy's t is within a few
                # ulp of the exact one: only pairs whose numpy t lies
                # within a relative 1e-9 of the extreme can attain it
                t = _t_values(xs[a][:, None], ys[a][:, None], xb, yb)
                e = best(t)
                row, col = np.nonzero(np.abs(t - e) <= 1e-9 * e)
                a, b = a[row], ib[col]
            else:
                a, b = np.repeat(a, len(ib)), np.tile(ib, len(a))
            found.append(best(self.distances(a, b)))
        return float(best(found))


# ---------------------------------------------------------------------------
# operations


def ball(space: SpaceGraph, center: int, r: int) -> tuple[frozenset[int], bool]:
    """Exact closed graph-metric ball; flags truncation at the window edge.

    Truncated means some frontier vertex (graph distance exactly r) lies
    within ``edge_threshold`` of the window boundary, so a larger window
    could add points at radius r+1 that this one cannot see.
    """
    if r < 0:
        raise UnsupportedError("radius must be >= 0")
    dist = space.graph_distances(center, limit=r)  # -1 beyond r
    truncated = (space.margins()[dist == r] <= space.edge_threshold).any()
    return frozenset(np.flatnonzero(dist >= 0).tolist()), bool(truncated)


def growth_report(space: SpaceGraph, center: int,
                  r_max: Optional[int] = None) -> GrowthReport:
    """Ball-count table of the whole space around ``center``,
    truncation-flagged per radius (:func:`_ball_growth`).  Flags are
    cumulative: once a frontier touches the boundary, all larger radii
    stay flagged.  A negative ``r_max`` raises :class:`UnsupportedError`.
    """
    if r_max is not None and r_max < 0:
        raise UnsupportedError("radius must be >= 0")
    return _ball_growth(space, center, slice(None), r_max).report(0)


def _ball_growth(space: SpaceGraph, center: int, counted,
                 r_max: Optional[int] = None) -> GrowthTable:
    """One-row table of the points ``counted`` (index array or slice) in
    graph balls around ``center``, by one csgraph search cut off at
    ``r_max``; any point reached, counted or not, can flag truncation."""
    dist = space.graph_distances(center, limit=r_max)
    hit = dist[counted]
    edge = dist[space.margins() <= space.edge_threshold]
    return _growth_table(np.array([center]), np.array([dist.max() + 1]),
                         (np.zeros_like(hit), hit),
                         (np.zeros_like(edge), edge))


# -- net generation ---------------------------------------------------------


def generate_net(model: str, window: dict, sep: float = 1.0,
                 edge_threshold: Optional[float] = None) -> SpaceGraph:
    """Deterministic net of a model region; edges join the points at
    model distance <= edge_threshold.

    Discrete models (z, t3, comb) default to edge_threshold = sep, which
    reproduces their native graphs; their points lie >= 1 apart, so below
    1 there are no edges.  z keeps every ceil(sep)-th integer; t3 keeps
    the greedy sep-separated subsequence of its breadth-first words (the
    whole ball at sep <= 1); comb keeps every integer point and refuses
    sep > 1 and edge_threshold >= 2 with :class:`UnsupportedError`.
    Half-space models (h2, hd) space their points sep apart, default to
    3*sep and require edge_threshold >= 2*sep so the interior stays
    connected.
    """
    if not sep > 0:
        raise UnsupportedError("sep must be positive")
    if model == "z":
        return _net_z(window, sep, edge_threshold)
    if model == "t3":
        return _net_t3(window, sep, edge_threshold)
    if model == "h2":
        return _net_halfspace(window, sep, edge_threshold, dim=2)
    if model == "hd":
        d = int(window["d"])
        if d not in (2, 3):
            # the grid engine keys at most two x-coordinates
            raise UnsupportedError(
                f"hd nets are generated for d in {{2, 3}}, got d={d}")
        return _net_halfspace(window, sep, edge_threshold, dim=d)
    if model == "comb":
        return _net_comb(window, sep, edge_threshold)
    raise UnsupportedError(f"unknown model: {model}")


def _greedy_select(n: int, sep: float, distances) -> np.ndarray:
    """Indices of the greedy maximal sep-separated subsequence of a stream
    of n points: point i is kept unless a kept earlier point lies within
    sep of it.  ``distances`` is a distance kernel of the stream."""
    kept = np.empty(n, dtype=np.int64)
    m = 0
    for i in range(n):
        if not m or distances(np.full(m, i), kept[:m]).min() >= sep:
            kept[m] = i
            m += 1
    return kept[:m]


def _net_z(window: dict, sep: float, edge_threshold: Optional[float]) -> SpaceGraph:
    lo, hi = int(window["lo"]), int(window["hi"])
    if hi < lo:
        raise EmptySpaceError(f"empty integer window [{lo}, {hi}]")
    thr = sep if edge_threshold is None else edge_threshold
    # integers step >= ceil(sep) apart are sep-separated by construction
    step = max(1, int(math.ceil(sep)))
    cap = window.get("cap", PRODUCT_CAP)
    size = (hi - lo) // step + 1
    if size > cap:
        raise SizeCapError(f"integer window of {size} points exceeds cap {cap}")
    ns = np.arange(lo, hi + 1, step, dtype=np.int64)
    # the neighbours of each integer form one run around it
    first = np.searchsorted(ns, ns - thr, side="left")
    end = np.searchsorted(ns, ns + thr, side="right")
    row, off = _expand(np.maximum(end - first, 0))
    nbr = first[row] + off
    keep = nbr != row
    indptr, indices = _csr_from_rows(row[keep], nbr[keep], len(ns))
    base = int(np.argmin(np.abs(ns - (lo + hi) // 2)))
    return SpaceGraph(model="z", indptr=indptr, indices=indices, sep=sep,
                      edge_threshold=thr, _codes=ns,
                      window={"kind": "range", "lo": lo, "hi": hi,
                              "basepoint": base})


def _net_t3(window: dict, sep: float, edge_threshold: Optional[float]) -> SpaceGraph:
    """Word i is row i of a padded int8 word matrix: its letters, then -1
    past its ``depth``, with one all-padding column."""
    radius = int(window["radius"])
    if radius < 0:
        raise EmptySpaceError("negative tree radius")
    cap = window.get("cap", PRODUCT_CAP)
    # 3*2^R - 2 words; the count only grows with R, and passes any cap by
    # R = 64, so it is taken there at most
    size = 3 * 2 ** min(radius, 64) - 2
    if size > cap:
        raise SizeCapError(f"tree ball of radius {radius} exceeds cap {cap}")
    thr = sep if edge_threshold is None else edge_threshold
    # breadth first, each depth in lexicographic order: word i >= 1 is a
    # child of word parent[i], the lower of the two at even i
    idx = np.arange(size)
    parent = np.maximum((idx - 2) // 2, 0)
    depth = np.repeat(np.arange(radius + 1), np.r_[1, 3 * 2 ** np.arange(radius)])
    words = np.full((size, radius + 1), -1, dtype=np.int8)
    if radius:
        words[1:4, 0] = (0, 1, 2)
    for k in range(2, radius + 1):
        child = np.arange(3 * 2 ** (k - 1) - 2, 3 * 2 ** k - 2)
        up = parent[child]
        words[child, :k - 1] = words[up, :k - 1]
        last = words[up, k - 2]
        words[child, k - 1] = np.where(child & 1, _HIGHER_CHILD[last],
                                       _LOWER_CHILD[last])
    if sep > 1.0:
        kept = _greedy_select(size, sep, _tree_kernel(_pack_words(words), depth))
        depth = depth[kept]
        words = words[kept, :int(depth.max()) + 1]
    n = len(depth)
    if thr < 1.0:  # distinct words lie at least 1 apart
        indptr, indices = _csr_from_edges(n, [], [])
    elif sep <= 1.0 and thr < 2.0:
        # edges are exactly parent/child word pairs
        indptr, indices = _csr_from_edges(n, idx[1:], parent[1:])
    else:
        indptr, indices = _csr_from_pairs(
            n, _kernel_pairs(_tree_kernel(_pack_words(words), depth), n, thr))
    return SpaceGraph(model="t3", indptr=indptr, indices=indices, sep=sep,
                      edge_threshold=thr, _codes=(words, depth),
                      window={"kind": "tree_ball", "radius": radius,
                              "basepoint": 0})


def _net_comb(window: dict, sep: float, edge_threshold: Optional[float]) -> SpaceGraph:
    """Point i is row i of an int32 path matrix: its base, its hair
    offsets (>= 1), zeros, and one more all-zero column.  Generation g
    holds (2e+1)*e^g nodes in lexicographic order; its row p hangs at
    offset p % e + 1 below row p // e of generation g - 1."""
    d = int(window["d"])
    extent = int(window["extent"])
    if d < 1 or extent < 1:
        raise UnsupportedError("comb needs d >= 1 and extent >= 1")
    cap = window.get("cap", PRODUCT_CAP)
    # 2e+1 base nodes, each generation of hairs multiplying by e
    sizes = [(2 * extent + 1) * extent ** g for g in range(d)]
    if sum(sizes) > cap:
        raise SizeCapError(f"comb size {sum(sizes)} exceeds cap {cap}")
    thr = sep if edge_threshold is None else edge_threshold
    if sep > 1.0:
        raise UnsupportedError(f"comb sep {sep} > 1 is not supported")
    if thr >= 2.0:
        raise UnsupportedError(f"comb edge_threshold {thr} >= 2 is not supported")
    starts = np.cumsum([0] + sizes)
    path = np.zeros((starts[-1], d + 1), dtype=np.int32)
    path[:sizes[0], 0] = np.arange(-extent, extent + 1)
    # along the base, then from each node to its parent: along its own
    # hair, or the hair's root one generation down
    a, b = [np.arange(2 * extent)], [np.arange(1, 2 * extent + 1)]
    for g in range(1, d):
        rows, ups = slice(starts[g], starts[g + 1]), slice(starts[g - 1], starts[g])
        path[rows, :g] = np.repeat(path[ups, :g], extent, axis=0)
        path[rows, g] = np.tile(np.arange(1, extent + 1), sizes[g - 1])
        row = np.arange(starts[g], starts[g + 1])
        a.append(row)
        b.append(np.where(path[rows, g] > 1, row - 1,
                          np.repeat(np.arange(starts[g - 1], starts[g]), extent)))
    a, b = np.concatenate(a), np.concatenate(b)
    if thr < 1.0:  # distinct points lie at least 1 apart
        a, b = a[:0], b[:0]
    indptr, indices = _csr_from_edges(len(path), a, b)
    # tail[i, k]: the sum of path[i, k + 1:], what point i climbs to
    # reach column k
    tail = np.zeros_like(path)
    for k in range(d - 1, -1, -1):
        tail[:, k] = tail[:, k + 1] + path[:, k + 1]
    return SpaceGraph(model="comb", indptr=indptr, indices=indices, sep=sep,
                      edge_threshold=thr, _codes=(path, tail),
                      window={"kind": "comb_extent", "d": d, "extent": extent,
                              "basepoint": extent})


def _net_halfspace(window: dict, sep: float, edge_threshold: Optional[float],
                   dim: int) -> SpaceGraph:
    """Stratified net of a half-space region.

    Layers sit at y = exp(k*sep); within a layer the grid step is
    2*sinh(sep)*y (see ``_LAYER_STEP``), so the whole stream is pairwise
    >= sep apart and greedy insertion keeps every candidate (with
    ``window["greedy_check"]`` set, a stream it would thin is refused with
    :class:`PreconditionError`).  A window of more than ``window["cap"]``
    points (default ``PRODUCT_CAP``) is refused with :class:`SizeCapError`
    before any point is built.
    """
    thr = 3.0 * sep if edge_threshold is None else edge_threshold
    if thr < 2.0 * sep:
        raise PreconditionError(
            f"edge_threshold {thr} < 2*sep {2 * sep}: net may disconnect")
    kind = window.get("kind", "ball")
    if kind not in ("ball", "birad"):
        raise UnsupportedError(f"half-space windows are of kind 'ball' or "
                               f"'birad', got {kind!r}")
    radius = float(window["radius"])
    if radius <= 0:
        raise EmptySpaceError("window radius must be positive")
    model = "h2" if dim == 2 else "hd"
    # a full counting pass, which raises past the cap, then the build
    if not sum(1 for _ in _halfspace_layers(window, radius, sep, dim)):
        raise EmptySpaceError(f"window produced no points: {window}")
    cols, heights = [], []
    for y, step, xs, m in _halfspace_layers(window, radius, sep, dim):
        if dim > 2:
            # each x_1 column holds the x_2 columns -m..m
            owner, off = _expand(2 * m + 1)
            xs = np.column_stack([xs[owner], (off - m[owner]) * step])
        cols.append(xs.reshape(len(xs), dim - 1))
        heights.append(np.full(len(xs), y))
    xs, ys = np.concatenate(cols), np.concatenate(heights)
    # basepoint: the net point (0,..,0;1), which every window contains
    base = int(np.flatnonzero((ys == 1.0) & (xs == 0.0).all(axis=1))[0])
    grid = _StratifiedGrid(xs, ys, sep, model == "hd")
    indptr, indices = _csr_from_pairs(len(ys), grid.pair_blocks(thr + 1e-12))
    space = SpaceGraph(model=model, indptr=indptr, indices=indices, sep=sep,
                       edge_threshold=thr, _grid=grid,
                       window={"kind": kind, "radius": radius, "basepoint": base,
                               "d": dim})
    if window.get("greedy_check"):
        # the stream is sep-separated by construction; this guard proves it
        dropped = np.ones(space.n, dtype=bool)
        dropped[_greedy_select(space.n, sep, space.distances)] = False
        if dropped.any():
            i = int(dropped.argmax())
            raise PreconditionError(
                f"net point {i} ({space.points[i]}) lies within sep {sep} of an "
                "earlier point; the window cannot be built as a sep-net", witness=i)
    return space


def _halfspace_layers(window: dict, radius: float, sep: float, dim: int):
    """Nonempty layers of a stratified half-space window, bottom up.

    Yields ``(y, step, xs, m)``: the layer height and grid step, its x(_1)
    columns and, per column, the half width m of its run of x_2 columns
    (0 in the plane).  The points are counted as the layers are made, and
    :class:`SizeCapError` is raised once they pass ``window["cap"]``
    (default ``PRODUCT_CAP``), before a layer's arrays are allocated.
    """
    kind = window.get("kind", "ball")
    cap = window.get("cap", PRODUCT_CAP)
    h, w = _grid_steps(sep)
    kmax = int(math.floor(radius / h))
    try:
        cosh_r = math.cosh(radius)
    except OverflowError:
        raise SizeCapError(f"window radius {radius} overflows cosh(radius); "
                           f"the window exceeds the cap {cap}") from None
    size = 0
    for k in range(-kmax, kmax + 1):
        y = math.exp(k * h)
        # horizontal budget at height y inside a hyperbolic ball about (0;1)
        bound2 = 2.0 * y * (cosh_r - 1.0) - (y - 1.0) ** 2
        if bound2 <= 0:
            continue
        step = w * y
        jmax = int(math.floor(math.sqrt(bound2) / step))
        # columns |j| < jfull hold a point each; a birad column needs budget
        # left for x_2 = 0, which lies |k*h| from (0;1)
        jfull = jmax
        if dim > 2 and kind == "birad":
            rest = (2.0 * y * (math.cosh(radius - abs(k * h)) - 1.0)
                    - (y - 1.0) ** 2)
            jfull = min(jmax, int(math.sqrt(max(rest, 0.0)) / step))
        if size + 2 * jfull - 1 > cap:
            raise SizeCapError(f"window of radius {radius} holds more than "
                               f"{cap} points (the cap)")
        # no column past jfull + 1 holds a point; one more covers rounding
        jr = min(jmax, jfull + 2)
        xs = step * np.arange(-jr, jr + 1)
        if dim == 2:
            m = np.where(xs * xs <= bound2, 0, -1)
        elif kind == "ball":
            rem = bound2 - xs * xs
            m = np.where(rem < 0, -1, np.floor(np.sqrt(np.maximum(rem, 0.0))
                                               / step)).astype(np.int64)
        else:  # birad: sum of per-plane distances to (0;1) stays <= radius
            daxis = np.arccosh(1.0 + np.maximum(
                0.0, (xs * xs + (y - 1.0) ** 2) / (2.0 * y)))
            m = np.searchsorted(daxis[jr:], radius - daxis, side="right") - 1
        keep = m >= 0
        size += int((2 * m[keep] + 1).sum())
        if size > cap:
            raise SizeCapError(f"window of radius {radius} holds more than "
                               f"{cap} points (the cap)")
        if keep.any():
            yield y, step, xs[keep], m[keep]


# -- products ---------------------------------------------------------------


def build_product(spaces: Sequence[SpaceGraph], window: Optional[dict] = None,
                  cap: int = PRODUCT_CAP) -> SpaceGraph:
    """l1-product of nets, restricted to a product window.

    window = None takes the full cartesian product (subject to ``cap``);
    window = {"kind": "l1_ball", "radius": R, "centers": [i...]} keeps
    tuples whose summed factor distances to the centers are <= R.  A
    single factor is always taken whole.  Points are the factor-index
    tuples ``_codes`` in lexicographic order; two are adjacent when they
    differ in one factor, by an edge of that factor.
    """
    if not spaces:
        raise UnsupportedError("need at least one factor")
    if window is None or len(spaces) == 1:
        size = math.prod(s.n for s in spaces)
        if size > cap:
            raise SizeCapError(f"product size {size} exceeds cap {cap}")
        codes = np.column_stack(np.unravel_index(np.arange(size),
                                                 [s.n for s in spaces]))
        wdesc = {"kind": "full", "factors": list(spaces)}
    else:
        radius = float(window["radius"])
        centers = list(window["centers"])
        dists = _centre_distances(spaces, centers)
        # one factor at a time: a prefix keeps its running sum ``used``,
        # summed left to right from 0, as the product kernel sums the parts
        codes, used = np.zeros((1, 0), dtype=np.int64), np.zeros(1)
        for dv in dists:
            row, col = _masked_pairs(
                len(used), len(dv),
                lambda lo, hi: used[lo:hi, None] + dv <= radius, cap)
            codes = np.column_stack([codes[row], col])
            used = used[row] + dv[col]
        del row, col, used  # not held through the adjacency pass, the peak
        wdesc = {"kind": "l1_ball", "radius": radius, "centers": centers,
                 "factors": list(spaces)}

    return _product_space(spaces, codes, wdesc)


def _product_space(spaces: Sequence[SpaceGraph], codes: np.ndarray,
                   window: dict) -> SpaceGraph:
    """The l1-product graph on the factor-index tuples ``codes`` (rows in
    key order): two tuples are adjacent when they differ in one factor, by
    an edge of that factor, so a subset of a product gets the induced
    adjacency."""
    indptr, indices = _product_adjacency(spaces, codes)
    return SpaceGraph(model="product", indptr=indptr, indices=indices,
                      sep=min(s.sep for s in spaces),
                      edge_threshold=max(s.edge_threshold for s in spaces),
                      window=window, _codes=codes)


def _centre_distances(spaces: Sequence[SpaceGraph],
                      centers: Sequence[int]) -> list[np.ndarray]:
    """Model distance from every point of each factor to its centre; a
    count of centres other than of factors is refused first."""
    if len(centers) != len(spaces):
        raise ArityError(f"{len(centers)} window centres for "
                         f"{len(spaces)} factors")
    return [s.distances(np.arange(s.n), np.full(s.n, c))
            for s, c in zip(spaces, centers)]


def _masked_pairs(rows: int, cols: int, mask,
                  cap: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) of the true entries of a rows x cols mask, row-major.

    ``mask(lo, hi)`` gives rows [lo, hi), evaluated in blocks of about
    _CANDIDATE_BUDGET entries.  The number of entries, counted block by
    block, is checked against ``cap`` before any is kept.
    """
    step = max(1, _CANDIDATE_BUDGET // max(1, cols))
    size = sum(int(np.count_nonzero(mask(lo, lo + step)))
               for lo in range(0, rows, step))
    if size > cap:
        raise SizeCapError(f"product size {size} exceeds cap {cap}")
    row, col = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    at = 0
    for lo in range(0, rows, step):
        r, c = np.nonzero(mask(lo, lo + step))
        row[at:at + len(r)], col[at:at + len(r)] = r + lo, c
        at += len(r)
    return row, col


def _radix_strides(sizes: Sequence[int]) -> np.ndarray:
    """Strides of the mixed-radix key ``codes @ strides`` of factor-index
    tuples: lexicographic order of the tuples is the order of the keys."""
    if math.prod(sizes) > np.iinfo(np.int64).max:
        raise UnsupportedError(f"product of factor sizes {list(sizes)} "
                               "overflows a 64-bit key")
    return np.array([math.prod(sizes[f + 1:]) for f in range(len(sizes))],
                    dtype=np.int64)


def _sorted_lookup(keys: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Position of each of ``want`` in the sorted ``keys``; -1 if absent."""
    at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    return np.where(keys[at] == want, at, -1)


def _product_adjacency(spaces: Sequence[SpaceGraph],
                       codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency CSR of the product points ``codes`` (factor adjacency is
    symmetric and loop-free, as every net's is)."""
    n = len(codes)
    strides = _radix_strides([s.n for s in spaces])
    key = codes @ strides
    step = max(1, _CANDIDATE_BUDGET // max(1, sum(s.degree_bound for s in spaces)))
    blocks = []
    for lo in range(0, n, step):
        block = codes[lo:lo + step]
        rows, cols = [], []
        for f, s in enumerate(spaces):
            row, nb = _csr_take(s.indptr, s.indices, block[:, f])
            at = _sorted_lookup(key, key[lo + row] + (nb - block[row, f]) * strides[f])
            rows.append(row[at >= 0])
            cols.append(at[at >= 0])
        blocks.append(_sorted_rows(np.concatenate(rows), np.concatenate(cols),
                                   len(block), n))
    return _concat_csr(blocks)


# -- explicit metric graphs (for oracles and small experiments) -------------


def metric_graph(n: int, edges: Iterable[tuple[int, int]]) -> SpaceGraph:
    """Small explicit graph whose model metric is its own path metric."""
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    indptr, indices = _csr_from_edges(n, pairs[:, 0], pairs[:, 1])
    return SpaceGraph(model="metric_graph", indptr=indptr, indices=indices,
                      sep=1.0, edge_threshold=1.0, window={"kind": "explicit"},
                      _codes=np.arange(n))

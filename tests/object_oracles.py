"""Object-based reference builders, kept as oracles for the array code.

``point_distance`` computes a model distance from two point objects, with
Python floats and integers; every distance kernel of ``SpaceGraph``, and
the one-pair ``model_distance``, must equal it bit for bit.  A metric
graph's distances come from one deque BFS (``graph_distance_oracle``).
The t3 ball and comb loops build the model point objects one by one and
look parents up in dictionaries; the greedy decomposition holds every
piece as a Python set and compares pieces pairwise with ``set_distance``;
intrinsic and ambient growth run one deque BFS per set over the adjacency
tuples; the tile enumeration multiplies one Möbius matrix pair at a time;
the hd cover builds the whole l1 product window and looks the snapped
tuples up in it; ``points.csv`` is written from the point objects one row
at a time; the nerve map runs one deque BFS per piece from its complement
list, and its Lipschitz constant walks the adjacency tuples edge by edge.
The stratified grid's runs of keys are found by binary search, and tile
assignment's per-exponent values through ``np.unique``.  Distortion pairs
are drawn one ``randrange`` at a time, their first occurrences found
through ``np.unique``, and the distortion buckets filled by one mask per
bucket.  They are slow and simple, and the array code must reproduce them
exactly (see ``test_array_core.py``, ``test_distortion_kernels.py``,
``test_growth_table.py``, ``test_image_product.py``,
``test_output_sized.py``, ``test_piece_csr.py`` and
``test_row_table.py``).
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Optional

import numpy as np

from coarselab.constructions import (MapRecord, TileRecord, Tiling,
                                     _descend_matrix, build_h2_tiling,
                                     tiling_to_decomposition)
from coarselab.covers import (ColoredDecomposition, Cover, PieceView,
                              kolmogorov_amplify, pullback_decomposition,
                              r_multiplicity)
from coarselab.errors import DomainError, PreconditionError
from coarselab.spaces import (CombNode, GrowthReport, HalfPlane, HalfSpace,
                              ModelPoint, SpaceGraph, TreeAddress, TuplePoint,
                              ZPoint, _csr_from_edges, _csr_take,
                              _radix_strides, _sorted_lookup, build_product,
                              generate_net)


def _acosh1p(t: float) -> float:
    # acosh(1 + t) with clamping for tiny negative rounding noise
    if t <= 0.0:
        return 0.0
    return math.acosh(1.0 + t)


def _word_distance(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    m = min(len(u), len(v))
    k = 0
    while k < m and u[k] == v[k]:
        k += 1
    return len(u) + len(v) - 2 * k


def _comb_distance(p: CombNode, q: CombNode) -> int:
    if p.base != q.base:
        return sum(p.offsets) + abs(p.base - q.base) + sum(q.offsets)
    u, v = p.offsets, q.offsets
    m = min(len(u), len(v))
    k = 0
    while k < m and u[k] == v[k]:
        k += 1
    if k < len(u) and k < len(v):
        # diverge along a shared hair at generation k+1
        return sum(u[k + 1 :]) + abs(u[k] - v[k]) + sum(v[k + 1 :])
    return sum(u[k:]) + sum(v[k:])


def point_distance(p: ModelPoint, q: ModelPoint) -> float:
    """Continuous-model distance between two points of the same variant."""
    if isinstance(p, HalfPlane) and isinstance(q, HalfPlane):
        dx = p.x - q.x
        dy = p.y - q.y
        return _acosh1p((dx * dx + dy * dy) / (2.0 * p.y * q.y))
    if isinstance(p, HalfSpace) and isinstance(q, HalfSpace):
        dx2 = sum((a - b) ** 2 for a, b in zip(p.xs, q.xs))
        dy = p.y - q.y
        return _acosh1p((dx2 + dy * dy) / (2.0 * p.y * q.y))
    if isinstance(p, TreeAddress) and isinstance(q, TreeAddress):
        return float(_word_distance(p.word, q.word))
    if isinstance(p, ZPoint) and isinstance(q, ZPoint):
        return float(abs(p.n - q.n))
    if isinstance(p, CombNode) and isinstance(q, CombNode):
        return float(_comb_distance(p, q))
    if isinstance(p, TuplePoint) and isinstance(q, TuplePoint):
        if len(p.parts) != len(q.parts):
            raise ValueError("product points of different arity")
        return sum(point_distance(a, b) for a, b in zip(p.parts, q.parts))
    raise TypeError(f"incomparable points: {type(p).__name__} vs {type(q).__name__}")


def query_point(model: str, xs, y: float) -> ModelPoint:
    """The half-plane (``model`` "h2") or half-space point with the
    x-coordinates ``xs`` and height ``y``."""
    xs = tuple(float(x) for x in xs)
    return HalfPlane(xs[0], float(y)) if model == "h2" else HalfSpace(xs, float(y))


# the CSR arrays adjacency() last read, and the tuples it derived
_last_adjacency: list = [None, None, None]


def adjacency(space: SpaceGraph) -> list[tuple[int, ...]]:
    """The sorted neighbour tuples of every point, derived from the CSR
    arrays: what ``space.adj`` must equal, read once by each oracle call.
    The tuples of the last arrays read are kept, so that oracles called
    piece by piece on one net derive them once; callers only read them."""
    last = _last_adjacency
    if last[0] is not space.indptr or last[1] is not space.indices:
        ends, flat = space.indptr.tolist(), space.indices.tolist()
        last[:] = space.indptr, space.indices, [
            tuple(flat[a:b]) for a, b in zip(ends, ends[1:])]
    return last[2]


def graph_distance_oracle(space: SpaceGraph, i: int, j: int) -> float:
    """Path distance of points i and j, by one deque BFS over the
    adjacency tuples from i; ``inf`` where j is not reached."""
    adj = adjacency(space)
    dist = {i: 0}
    dq = deque([i])
    while dq and j not in dist:
        v = dq.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                dq.append(w)
    return float(dist.get(j, math.inf))


def distance_oracle(space: SpaceGraph, i: int, j: int, pts=None) -> float:
    """Model distance of points i and j of any net: the BFS path distance
    on an explicit metric graph, ``point_distance`` on every other model.
    ``pts``, the net's points as a list, spares callers that read many
    pairs a point view's rebuilding of each point."""
    if space.model == "metric_graph":
        return graph_distance_oracle(space, i, j)
    pts = space.points if pts is None else pts
    return point_distance(pts[i], pts[j])


def intrinsic_growth_oracle(space: SpaceGraph, subset, center: Optional[int] = None,
                            r_max: Optional[int] = None) -> GrowthReport:
    """Ball counts of a point set in its induced subgraph, by one deque BFS
    over the adjacency tuples from ``center`` (default: the subset point
    with the largest margin, the lowest index among equals)."""
    return _deque_growth(space, subset, center, r_max, intrinsic=True)


def ambient_growth_oracle(space: SpaceGraph, subset, center: Optional[int] = None,
                          r_max: Optional[int] = None) -> GrowthReport:
    """Counts of a point set inside ambient graph balls, by one deque BFS
    over the adjacency tuples from ``center`` (default as above).  Rows
    run to the centre's eccentricity in its component, and every point
    reached, in the set or not, can flag its radius truncated."""
    return _deque_growth(space, subset, center, r_max, intrinsic=False)


def _deque_growth(space: SpaceGraph, subset, center: Optional[int],
                  r_max: Optional[int], intrinsic: bool) -> GrowthReport:
    subset = sorted(subset)
    margins = space.margins()
    if center is None:
        center = max(subset, key=lambda i: (margins[i], -i))
    sset = set(subset)
    adj = adjacency(space)
    dist = {center: 0}
    dq = deque([center])
    while dq:
        v = dq.popleft()
        if r_max is not None and dist[v] >= r_max:
            continue
        for w in adj[v]:
            if (w in sset or not intrinsic) and w not in dist:
                dist[w] = dist[v] + 1
                dq.append(w)
    by_r: dict[int, list[int]] = {}
    for v, d in dist.items():
        by_r.setdefault(d, []).append(v)
    radii, counts, trunc = [], [], []
    running, hit = 0, False
    for r in range(max(dist.values()) + 1):
        at = by_r.get(r, [])
        if at and min(margins[v] for v in at) <= space.edge_threshold:
            hit = True
        running += sum(v in sset for v in at)
        radii.append(r)
        counts.append(running)
        trunc.append(hit)
    return GrowthReport(center=center, radii=radii, counts=counts,
                        truncated=trunc)


def _nearest_source_distances(adj: list[tuple[int, ...]],
                              sources) -> list[int]:
    """Distance of every point from the nearest of ``sources``, by one
    deque BFS over the adjacency tuples ``adj``; -1 where none is
    reached."""
    dist = [-1] * len(adj)
    dq = deque(sources)
    for s in sources:
        dist[s] = 0
    while dq:
        v = dq.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                dq.append(w)
    return dist


def nerve_oracle(space: SpaceGraph, cover: Cover) -> list[dict[int, float]]:
    """Barycentric coordinates of a cover, piece by piece: the numerator of
    point x in piece P is its graph distance to the complement of P, by a
    deque BFS from the complement list, or 1 where x reaches no point
    outside P (P holds x's whole component, or is the whole space)."""
    n, adj = space.n, adjacency(space)
    numerators: list[dict[int, float]] = [dict() for _ in range(n)]
    for pid, piece in enumerate(cover.pieces):
        d = _nearest_source_distances(
            adj, [i for i in range(n) if i not in piece])
        for x in piece:
            numerators[x][pid] = float(d[x]) if d[x] >= 0 else 1.0
    return [{pid: v / sum(num.values()) for pid, v in num.items()}
            for num in numerators]


def nerve_lipschitz_oracle(space: SpaceGraph, coordinates) -> float:
    """Max l2 displacement of the barycentric ``coordinates`` over the
    graph edges, one edge at a time over the adjacency tuples."""
    worst = 0.0
    for i, nbrs in enumerate(adjacency(space)):
        ci = coordinates[i]
        for j in nbrs:
            if j < i:
                continue
            cj = coordinates[j]
            keys = set(ci) | set(cj)
            disp = math.sqrt(sum((ci.get(k, 0.0) - cj.get(k, 0.0)) ** 2
                                 for k in keys))
            worst = max(worst, disp)
    return worst


def _mobius_mul(m1: tuple, m2: tuple) -> tuple:
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _image_circle(m: tuple) -> tuple[float, float]:
    # image of the right half-plane boundary (the y-axis) under m is the
    # circle through m(0) and m(inf) centred on the real axis
    (a, b), (c, d) = m
    z0 = b / d if d != 0 else math.inf
    zinf = a / c if c != 0 else math.inf
    if not (math.isfinite(z0) and math.isfinite(zinf)):
        return math.inf, 0.0
    return abs(zinf - z0) / 2.0, (z0 + zinf) / 2.0


def tiles_oracle(tiling: Tiling) -> list[TileRecord]:
    """The tiles of ``tiling``, enumerated child by child with scalar
    Möbius products."""
    x = tiling.dilation
    radius = float(tiling.window.get("radius", 8.0))
    resolution = float(tiling.window.get("resolution", math.exp(-radius / 2.0)))
    x_extent = math.sinh(radius) * 1.05 + 2.0
    c0, rho0 = tiling.circle0
    logx = math.log(x)
    ball_c, ball_r = math.cosh(radius), math.sinh(radius)

    def meets_window(c: float, rho: float) -> bool:
        return math.hypot(c, ball_c) <= rho + ball_r + resolution

    ident = ((1.0, 0.0), (0.0, 1.0))
    tiles = [TileRecord("B1", ident, 0, False)]
    for mirrored in (False, True):
        tiles.append(TileRecord("A", ident, 0, mirrored))
        tiles.append(TileRecord("B", ident, 0, mirrored))
    stack = []
    n_hi = int(math.floor(math.log(x_extent) / logx)) + 1
    n_lo = int(math.ceil(math.log(max(resolution / rho0, 1e-300)) / logx)) - 1
    for mirrored in (False, True):
        for n in range(n_lo, n_hi + 1):
            rho = x ** n * rho0
            if meets_window(x ** n * c0, rho):
                stack.append((_descend_matrix(x, n), rho, 1, mirrored))
    while stack:
        m, rho, depth, mirrored = stack.pop()
        if 2.0 * rho < resolution or depth > 60:
            continue
        tiles.append(TileRecord("A", m, depth, mirrored))
        tiles.append(TileRecord("B", m, depth, mirrored))
        for n in range(n_lo, n_hi + 1):
            child = _mobius_mul(m, _descend_matrix(x, n))
            crho, cc = _image_circle(child)
            if crho >= resolution / 2.0 and meets_window(cc, crho):
                stack.append((child, crho, depth + 1, mirrored))
    return tiles


def greedy_select_oracle(points, sep: float) -> list[int]:
    """Indices of the greedy maximal sep-separated subsequence."""
    chosen: list[int] = []
    for i, cand in enumerate(points):
        if all(point_distance(cand, points[j]) >= sep for j in chosen):
            chosen.append(i)
    return chosen


def edges_brute(pts, thr: float) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency CSR of the point pairs within ``thr``, testing every pair."""
    pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
             if point_distance(pts[i], pts[j]) <= thr]
    return _csr_from_edges(len(pts), [i for i, _ in pairs], [j for _, j in pairs])


def net_t3_oracle(radius: int, sep: float = 1.0,
                  thr: Optional[float] = None) -> tuple[list, np.ndarray, np.ndarray]:
    """Points and adjacency CSR of a t3 ball, built word by word."""
    thr = sep if thr is None else thr
    pts: list[TreeAddress] = [TreeAddress(())]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            letters = (0, 1, 2) if not w else tuple(a for a in (0, 1, 2) if a != w[-1])
            for a in letters:
                nxt.append(w + (a,))
        pts.extend(TreeAddress(w) for w in nxt)
        frontier = nxt
    if sep > 1.0:
        pts = [pts[i] for i in greedy_select_oracle(pts, sep)]
    if sep <= 1.0 and 1.0 <= thr < 2.0:
        # edges are exactly parent/child word pairs
        index = {p.word: i for i, p in enumerate(pts)}
        parent = [index[p.word[:-1]] for p in pts[1:]]
        indptr, indices = _csr_from_edges(len(pts), range(1, len(pts)), parent)
    else:
        indptr, indices = edges_brute(pts, thr)
    return pts, indptr, indices


def words_oracle(pts: list[TreeAddress]) -> tuple[np.ndarray, np.ndarray]:
    """Padded int8 word matrix (-1 beyond each word, with one all-padding
    column) and depths of tree addresses."""
    depth = np.array([len(p.word) for p in pts], dtype=np.int64)
    words = np.full((len(pts), int(depth.max()) + 1), -1, dtype=np.int8)
    for i, p in enumerate(pts):
        words[i, :len(p.word)] = p.word
    return words, depth


def net_comb_oracle(d: int, extent: int) -> tuple[list, np.ndarray, np.ndarray]:
    """Points and native adjacency CSR of a comb, built node by node."""
    pts: list[CombNode] = [CombNode(b) for b in range(-extent, extent + 1)]
    layer = pts
    for _ in range(d - 1):
        nxt = []
        for node in layer:
            for o in range(1, extent + 1):
                nxt.append(CombNode(node.base, node.offsets + (o,)))
        pts = pts + nxt
        # next generation of hairs attaches along the new hairs only
        layer = nxt
    return (pts, *comb_edges_oracle(pts))


def comb_edges_oracle(pts: list[CombNode]) -> tuple[np.ndarray, np.ndarray]:
    index = {(p.base, p.offsets): i for i, p in enumerate(pts)}
    a, b = [], []
    for i, p in enumerate(pts):
        if p.offsets:
            # parent along own hair, or the hair's root one generation down
            *head, last = p.offsets
            if last > 1:
                j = index[(p.base, tuple(head) + (last - 1,))]
            else:
                j = index[(p.base, tuple(head))]
        else:
            j = index.get((p.base + 1, ()))
            if j is None:
                continue
        a.append(i)
        b.append(j)
    return _csr_from_edges(len(pts), a, b)


def greedy_decomposition_oracle(cover: Cover, R: float, n: int) -> ColoredDecomposition:
    """The set-based greedy extraction, with pairwise piece distances."""
    space = cover.space
    mult, witness = r_multiplicity(cover, 2 * R, metric="model")
    if mult > n + 1:
        raise PreconditionError(
            f"cover has 2R-multiplicity {mult} > n+1 = {n + 1}", witness=witness)

    piece_sets = [set(p) for p in cover.pieces]
    assigned: list[Optional[int]] = [None] * len(piece_sets)  # piece -> colour

    def separated(pid: int, members: list[int]) -> bool:
        return all(space.set_distance(piece_sets[pid], piece_sets[q]) >= R
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
    verify_greedy_oracle(decomp, cover)
    return decomp


def verify_greedy_oracle(decomp: ColoredDecomposition, cover: Cover) -> None:
    space, pieces = decomp.space, list(decomp.pieces)
    for a in range(len(pieces)):
        for b in range(a + 1, len(pieces)):
            if decomp.colors[a] != decomp.colors[b]:
                continue
            d = space.set_distance(pieces[a], pieces[b])
            if d < decomp.r:
                raise PreconditionError(
                    f"greedy output violates R-disjointness: pieces {a},"
                    f" {b} at distance {d}", witness=(a, b, d))
    sources = decomp.provenance["source_pieces"]
    for piece, src in zip(pieces, sources):
        if not piece <= cover.pieces[src]:
            raise PreconditionError("greedy piece escapes its source piece",
                                    witness=src)


def product_decomposition_oracle(dx: ColoredDecomposition,
                                 dy: ColoredDecomposition,
                                 product: SpaceGraph) -> ColoredDecomposition:
    """Colour-diagonal pieces enumerated per point: every same-colour
    (piece of ix, piece of iy) of each product point (ix, iy), grouped, in
    (colour, pa, pb) order.  A pair is a piece when it holds a point."""
    fx, fy = product.window["factors"]
    codes = product._codes
    point, pa = _csr_take(*PieceView(dx.pieces.ptr, dx.pieces.pts, fx.n).inverse(),
                          codes[:, 0])
    sub, pb = _csr_take(*PieceView(dy.pieces.ptr, dy.pieces.pts, fy.n).inverse(),
                        codes[point, 1])
    point, pa = point[sub], pa[sub]
    cx, cy = np.asarray(dx.colors), np.asarray(dy.colors)
    same = cx[pa] == cy[pb]
    point, pa, pb = point[same], pa[same], pb[same]
    order = np.lexsort((point, pb, pa, cx[pa]))
    point, pa, pb = point[order], pa[order], pb[order]
    heads = np.r_[0, np.flatnonzero((np.diff(pa) != 0) | (np.diff(pb) != 0)) + 1]
    return ColoredDecomposition(
        space=product, pieces=PieceView(np.r_[heads, len(point)], point, product.n),
        colors=cx[pa[heads]].tolist(), r=min(dx.r, dy.r), d=dx.d,
        partition=False,
        provenance={"construction": "product_decomposition",
                    "factor_pieces": list(zip(pa[heads].tolist(),
                                              pb[heads].tolist()))})


def full_product_pipeline(radius: float, r: float, *, source_sep: float = 0.35,
                          factor_sep: float = 1.0, snap_slack: float = 2.5) -> dict:
    """``hd_cover_pipeline(3, ...)`` through the whole l1 product window:
    ``build_product`` materialises every tuple of the window, the product
    decomposition enumerates its pieces point by point, and each snapped
    source tuple is looked up among the window's keys (the first one
    missing raises :class:`DomainError`)."""
    factors = [generate_net("h2", {"kind": "ball", "radius": radius},
                            sep=factor_sep) for _ in range(2)]
    tiling = build_h2_tiling(r, {"radius": radius})
    amplified = [kolmogorov_amplify(tiling_to_decomposition(tiling, f))
                 for f in factors]
    product = build_product(
        factors,
        window={"kind": "l1_ball", "radius": radius + snap_slack,
                "centers": [f.window["basepoint"] for f in factors]})
    prod_decomp = product_decomposition_oracle(amplified[0], amplified[1], product)
    source = generate_net("hd", {"kind": "birad", "radius": radius, "d": 3},
                          sep=source_sep, edge_threshold=2 * source_sep)
    xs, ys = source._coords()
    snapped = np.column_stack([f.nearest_points(xs[:, i:i + 1], ys)
                               for i, f in enumerate(factors)])
    strides = _radix_strides([f.n for f in factors])
    rows = _sorted_lookup(product._codes @ strides, snapped @ strides)
    if (rows < 0).any():
        c = tuple(snapped[np.argmax(rows < 0)].tolist())
        raise DomainError(f"image tuple {c} outside the product window")
    emb = MapRecord(source=source, target=product, assignment=rows.tolist(),
                    provenance={"construction": "brady_farb", "d": 3})
    return {"decomposition": pullback_decomposition(emb, prod_decomp),
            "map": emb, "product": product, "product_decomposition": prod_decomp}


def _point_row_oracle(i: int, p) -> list[str]:
    if isinstance(p, HalfPlane):
        return [str(i), "h2", repr(p.x), repr(p.y)]
    if isinstance(p, HalfSpace):
        return [str(i), "hd", *[repr(x) for x in p.xs], repr(p.y)]
    if isinstance(p, TreeAddress):
        return [str(i), "t3", "".join(map(str, p.word))]
    if isinstance(p, ZPoint):
        return [str(i), "z", str(p.n)]
    if isinstance(p, CombNode):
        return [str(i), "comb", str(p.base), "/".join(map(str, p.offsets))]
    if isinstance(p, TuplePoint):
        cells = ["|".join(_point_row_oracle(0, part)[1:]) for part in p.parts]
        return [str(i), "prod", *cells]
    raise TypeError(f"unexportable point {p!r}")


def points_csv_oracle(space: SpaceGraph) -> str:
    """``points.csv`` written from every point object, row by row."""
    lines = ["index,kind,coords"]
    for i, p in enumerate(space.points):
        row = _point_row_oracle(i, p)
        lines.append(",".join(row[:2]) + "," + ";".join(row[2:]))
    return "\n".join(lines) + "\n"


def grid_runs_oracle(grid, line, first, last) -> tuple[np.ndarray, np.ndarray]:
    """Sorted positions [a, b) of a stratified grid's keys in key row
    ``line`` at columns ``first`` to ``last`` (relative to the lowest
    column), by two binary searches of the window's end keys in the sorted
    keys: the lookup the grid's row table replaces."""
    width = grid.hi[-1] - grid.lo[-1] + 1
    return (np.searchsorted(grid.keys, line * width + first, side="left"),
            np.searchsorted(grid.keys, line * width + last, side="right"))


def per_exponent_oracle(table, n: np.ndarray) -> np.ndarray:
    """Rows ``table(k)`` at every entry of ``n``, evaluated once per
    distinct k through ``np.unique``."""
    u, inv = np.unique(n, return_inverse=True)
    return np.array([table(k) for k in u.tolist()], dtype=float)[inv]


def sample_pairs_oracle(n: int, cap: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``cap`` distinct pairs a < b of range(n), drawn two ``randrange(n)``
    at a time from ``random.Random(seed)``, skipping a == b and repeats."""
    rng = random.Random(seed)
    seen, out = set(), []
    while len(out) < cap:
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        key = a * n + b if a < b else b * n + a
        if key not in seen:
            seen.add(key)
            out.append(key)
    keys = np.array(out, dtype=np.int64)
    return keys // n, keys % n


def first_occurrences_oracle(key: np.ndarray) -> np.ndarray:
    """Increasing positions of the first occurrence of each value of
    ``key``, from ``np.unique``'s first indices."""
    return np.sort(np.unique(key, return_index=True)[1])


def buckets_oracle(edges: np.ndarray, ds: np.ndarray, dt: np.ndarray) -> list:
    """(lo, hi, min, mean, max) of ``dt`` over the samples with
    lo <= ds < hi, one mask per pair of consecutive ``edges``, for each
    bucket that holds any."""
    buckets = []
    for a, b in zip(edges, edges[1:]):
        m = (ds >= a) & (ds < b)
        if m.any():
            buckets.append((float(a), float(b), float(dt[m].min()),
                            float(dt[m].mean()), float(dt[m].max())))
    return buckets

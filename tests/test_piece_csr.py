"""Oracles for covers and decompositions held as piece-major CSR.

The frozenset implementations the arrays replaced live here as oracles:
the chained point-to-piece inversion, the set-based validation, colour
classes and coverage counts, the per-piece component split (and so
``refine_connected``), the preimage helper and the per-point colour
amplification.  ``PieceView`` reads are checked against lists of
frozensets, the nerve map against the per-piece complement searches of
``object_oracles``, and the pair sampler against its one-draw-at-a-time
loop there.
"""

from __future__ import annotations

import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import analysis, covers, spaces
from coarselab.constructions import (MapRecord, nerve_lipschitz, nerve_map,
                                     tree_walk)
from coarselab.covers import (ColoredDecomposition, Cover, PieceView,
                              kolmogorov_amplify, pullback_cover,
                              pullback_decomposition, refine_connected)
from coarselab.errors import DomainError, PreconditionError, UnsupportedError
from coarselab.spaces import generate_net, metric_graph
from object_oracles import (nerve_lipschitz_oracle, nerve_oracle,
                            sample_pairs_oracle)

SPACES = {
    "z": lambda: generate_net("z", {"lo": -30, "hi": 30}),
    "z-step2": lambda: generate_net("z", {"lo": -20, "hi": 21}, sep=2.0),
    "h2": lambda: generate_net("h2", {"kind": "ball", "radius": 6.0}, sep=0.8,
                               edge_threshold=1.6),
    "walk": lambda: tree_walk(5).target,
    "graph": lambda: metric_graph(12, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6),
                                       (7, 8), (8, 9), (3, 9)]),
}
_cache: dict = {}


def space(name):
    """The named test space, built once."""
    if name not in _cache:
        _cache[name] = SPACES[name]()
    return _cache[name]


# -- the frozenset implementations -------------------------------------------


def membership_oracle(pieces, n):
    """The chained inversion: ``pids[ptr[x]:ptr[x + 1]]`` are the pieces
    holding x, in increasing order."""
    ends = np.cumsum([len(p) for p in pieces], dtype=np.int64)
    pts = np.fromiter(itertools.chain.from_iterable(pieces), dtype=np.int64,
                      count=int(ends[-1]) if len(ends) else 0)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pts, minlength=n), out=ptr[1:])
    return ptr, np.searchsorted(ends, np.argsort(pts, kind="stable"), side="right")


def cover_error(pieces, n):
    """The message the set-based ``Cover`` raised, or None."""
    pieces = [frozenset(p) for p in pieces]
    if any(not p for p in pieces):
        return "cover pieces must be non-empty"
    covered = set().union(*pieces) if pieces else set()
    if len(covered) != n:
        return f"cover misses point {next(i for i in range(n) if i not in covered)}"
    return None


def decomposition_error(pieces, colors, d, partition, n):
    """The message the set-based ``ColoredDecomposition`` raised, or None."""
    pieces = [frozenset(p) for p in pieces]
    if len(pieces) != len(colors):
        return "one colour per piece required"
    if any(not 0 <= c <= d for c in colors):
        return "colours must lie in 0..d"
    counts = np.diff(membership_oracle(pieces, n)[0])
    if (counts == 0).any():
        return f"decomposition misses point {int(np.nonzero(counts == 0)[0][0])}"
    if partition and (counts > 1).any():
        dup = int(np.nonzero(counts > 1)[0][0])
        return f"point {dup} lies in several pieces of a partition"
    return None


def color_classes_oracle(dec):
    cls = [set() for _ in range(dec.d + 1)]
    for piece, c in zip(dec.pieces, dec.colors):
        cls[c].update(piece)
    return cls


def coverage_counts_oracle(dec):
    out = np.zeros(dec.space.n, dtype=np.int64)
    for cls in color_classes_oracle(dec):
        out[list(cls)] += 1
    return out


def components_oracle(space, idx, R):
    """The per-piece split: R-components of the sorted point list ``idx``,
    in order of their smallest point (on z, of their coordinate)."""
    if not idx:
        return []
    if space.model == "z":
        pts = space.points
        vals = sorted((pts[i].n, i) for i in idx)
        comps, cur, last = [], [], None
        for v, i in vals:
            if last is not None and v - last > R:
                comps.append(cur)
                cur = []
            cur.append(i)
            last = v
        return comps + [cur]
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
    low = np.full(ncomp, space.n, dtype=np.int64)
    np.minimum.at(low, label, idx_arr)
    key = low[label]
    order = np.argsort(key, kind="stable")
    cuts = np.nonzero(np.diff(key[order]))[0] + 1
    return [part.tolist() for part in np.split(idx_arr[order], cuts)]


def refine_oracle(cover, R):
    pieces, labels = [], []
    for pid, piece in enumerate(cover.pieces):
        for i, comp in enumerate(components_oracle(cover.space, sorted(piece), R)):
            pieces.append(frozenset(comp))
            labels.append(f"{pid}.{i}")
    return pieces, labels


def preimages_oracle(f, pieces):
    """The shared pullback helper over frozensets."""
    ptr, pids = membership_oracle(pieces, f.target.n)
    owner, pid = covers._csr_take(ptr, pids, np.asarray(f.assignment))
    order = np.argsort(pid, kind="stable")
    src, pid = owner[order], pid[order]
    cuts = np.flatnonzero(np.diff(pid)) + 1
    parts = np.split(src, cuts)
    return pid[np.r_[0, cuts]].tolist(), [frozenset(p.tolist()) for p in parts]


def amplify_oracle(decomp):
    """The per-point colour amplification: (pieces, colours, trace)."""
    space, k = decomp.space, decomp.d
    c_min = int(coverage_counts_oracle(decomp).min())
    indptr, near = space.neighbors(np.arange(space.n), decomp.r / 3.0)
    fat_pieces = []
    for piece in decomp.pieces:
        fat = set(piece)
        fat.update(covers._csr_take(indptr, near, sorted(piece))[1].tolist())
        fat_pieces.append(fat)
    fat_class = [set() for _ in range(space.n)]
    for pid, c in enumerate(decomp.colors):
        for x in fat_pieces[pid]:
            fat_class[x].add(c)
    pieces = [frozenset(p) for p in fat_pieces]
    colors = list(decomp.colors)
    trace = [("fattened", pid) for pid in range(len(pieces))]
    groups = {}
    ptr, pids = membership_oracle(list(decomp.pieces), space.n)
    for x in range(space.n):
        own = pids[ptr[x]:ptr[x + 1]].tolist()
        S = {decomp.colors[pid] for pid in own}
        if len(S) != c_min or fat_class[x] - S:
            continue
        pid = next(pid for pid in own if decomp.colors[pid] == min(S))
        groups.setdefault((tuple(sorted(S)), pid), set()).add(x)
    for (S, pid), pts in sorted(groups.items()):
        pieces.append(frozenset(pts))
        colors.append(k + 1)
        trace.append(("selected", pid))
    return pieces, colors, trace


# -- random families ------------------------------------------------------


def random_pieces(rng, n, count, overlap=True, spread=None):
    """``count`` random point sets over range(n) that cover it, as lists
    with repeats and in shuffled order."""
    spread = spread or n
    pieces = []
    for _ in range(count):
        lo = rng.randrange(n)
        size = rng.randint(1, max(1, spread // 3))
        pieces.append([min(n - 1, lo + rng.randrange(spread)) for _ in range(size)])
    covered = set(itertools.chain.from_iterable(pieces))
    rest = [x for x in range(n) if x not in covered]
    if rest:
        pieces.append(rest)
    if not overlap:
        owner = {}
        for pid, p in enumerate(pieces):
            for x in p:
                owner.setdefault(x, pid)
        pieces = [[x for x in p if owner[x] == pid] for pid, p in enumerate(pieces)]
        pieces = [p for p in pieces if p]
    for p in pieces:
        p.extend(p[: rng.randint(0, len(p))])
        rng.shuffle(p)
    return pieces


families = st.tuples(st.sampled_from(sorted(SPACES)), st.integers(0, 10 ** 6),
                     st.integers(1, 12), st.booleans())


# -- the view -------------------------------------------------------------


def test_view_normalises_rows_and_reads_like_a_list(monkeypatch):
    view = PieceView([0, 3, 3, 6], [4, 1, 4, 2, 0, 4], 5)
    assert view.ptr.tolist() == [0, 2, 2, 5] and view.pts.tolist() == [1, 4, 0, 2, 4]
    sets = [frozenset({1, 4}), frozenset(), frozenset({0, 2, 4})]
    assert view == sets and sets == view and view != sets[:2]
    assert not view == [frozenset({1, 4}), frozenset(), frozenset({0, 2})]
    assert view == PieceView([0, 2, 2, 5], [1, 4, 0, 2, 4], 5)
    # sorted rows with repeats are deduplicated too
    assert PieceView([0, 3, 5], [1, 1, 2, 0, 0], 3).pts.tolist() == [1, 2, 0]
    assert view != PieceView([0, 2, 5], [1, 4, 0, 2, 4], 5)
    assert view[-1] == sets[2] and view[-3] == sets[0]
    assert view[1:] == sets[1:] and view[::-2] == sets[::-2]
    assert frozenset({0, 2, 4}) in view and frozenset({0}) not in view
    assert len(view) == 3 and view.row(-1).tolist() == [0, 2, 4]
    for i in (3, -4):
        with pytest.raises(IndexError):
            view[i]
    with pytest.raises(ValueError):
        view.pts[0] = 3
    # every read builds a fresh set
    assert view[0] is not view[0]
    monkeypatch.setattr(spaces, "_VIEW_BLOCK", 2)
    assert list(view) == sets
    big = PieceView(np.arange(0, 22, 2), np.arange(20) % 7, 7)
    assert list(big) == [frozenset({i % 7, (i + 1) % 7}) for i in range(0, 20, 2)]


@settings(max_examples=40, deadline=None)
@given(families)
def test_view_matches_frozensets(case):
    name, seed, count, overlap = case
    sp = space(name)
    rng = random.Random(seed)
    raw = random_pieces(rng, sp.n, count, overlap)
    cov = Cover(sp, raw)
    sets = [frozenset(p) for p in raw]
    assert cov.pieces == sets and sets == cov.pieces
    assert [cov.pieces.row(i).tolist() for i in range(len(sets))] == list(map(sorted, sets))
    # a family built from a view shares its arrays; from its sets, equal ones
    assert Cover(sp, cov.pieces).pieces is cov.pieces
    assert Cover(sp, sets).pieces == cov.pieces


# -- inversion, classes, counts and validation ----------------------------


@settings(max_examples=60, deadline=None)
@given(families, st.integers(0, 3))
def test_inversion_and_counts_match_frozensets(case, d):
    name, seed, count, overlap = case
    sp = space(name)
    rng = random.Random(seed)
    raw = random_pieces(rng, sp.n, count, overlap)
    sets = [frozenset(p) for p in raw]
    ptr, pids = membership_oracle(sets, sp.n)
    cov = Cover(sp, raw)
    got = cov.pieces.inverse()
    assert got[0].tolist() == ptr.tolist() and got[1].tolist() == pids.tolist()
    again = cov.pieces.inverse()  # computed again, equal
    assert all(np.array_equal(x, y) for x, y in zip(again, got))
    assert cov.piece_of() == [pids[a:b].tolist() for a, b in zip(ptr[:-1], ptr[1:])]
    colors = [rng.randint(0, d) for _ in sets]
    dec = ColoredDecomposition(sp, raw, colors, r=1.0, d=d, partition=False)
    assert dec.color_classes() == color_classes_oracle(dec)
    counts = dec.coverage_counts()
    assert counts.dtype == np.int64
    assert counts.tolist() == coverage_counts_oracle(dec).tolist()
    assert dec.as_cover().pieces == sets


@settings(max_examples=80, deadline=None)
@given(families, st.integers(0, 2), st.booleans(), st.integers(0, 3))
def test_validation_messages_match_frozensets(case, d, partition, damage):
    name, seed, count, overlap = case
    sp = space(name)
    rng = random.Random(seed)
    raw = random_pieces(rng, sp.n, count, overlap)
    colors = [rng.randint(0, d) for _ in raw]
    if damage == 1:  # drop a point from every piece
        gone = rng.randrange(sp.n)
        raw = [[x for x in p if x != gone] for p in raw]
    elif damage == 2:
        raw.append([])
        colors.append(0)
    elif damage == 3:
        colors = colors[:-1] if rng.random() < 0.5 else colors[:-1] + [d + 1]
    for make, expect in (
            (lambda: Cover(sp, raw), cover_error(raw, sp.n)),
            (lambda: ColoredDecomposition(sp, raw, colors, r=1.0, d=d,
                                          partition=partition),
             decomposition_error(raw, colors, d, partition, sp.n))):
        if expect is None:
            make()
        else:
            with pytest.raises(ValueError) as exc:
                make()
            assert str(exc.value) == expect


def test_points_outside_the_space_name_piece_and_point():
    z = space("z")
    for bad in (z.n, 1_000_000, -1):
        pieces = [list(range(z.n)), [0, 1], [2, bad, 3]]
        for make in (lambda: Cover(z, pieces),
                     lambda: ColoredDecomposition(z, pieces, [0, 1, 1], r=1.0,
                                                  d=1, partition=False)):
            with pytest.raises(DomainError,
                               match=f"piece 2 holds point {bad}, outside the {z.n}"):
                make()
    with pytest.raises(TypeError):
        Cover(z, [list(range(z.n)), [0.5]])


# -- refinement --------------------------------------------------------------


def gapped_piece(space, start, gaps):
    """Indices at z coordinates start, start + gaps[0], ... (in the window)."""
    codes = space._codes.tolist()
    at, out = start, []
    for g in [0, *gaps]:
        at += g
        if at in codes:
            out.append(codes.index(at))
    return out


@pytest.mark.parametrize("name, R, gaps", [
    ("z", 1.0, [1, 2, 1, 1, 2, 3]),
    ("z", 3.0, [3, 4, 3, 1, 4, 5]),
    ("z", 2.5, [2, 3, 2, 1, 3, 4]),
    ("z-step2", 2.0, [2, 4, 2, 2, 4, 6]),
    ("z-step2", 4.0, [4, 6, 4, 2, 6, 8]),
])
def test_refine_on_z_splits_only_past_R(name, R, gaps):
    z = space(name)
    lo, step = int(z._codes[0]), int(z._codes[1] - z._codes[0])
    pieces = [gapped_piece(z, lo, gaps), gapped_piece(z, lo + step, gaps[::-1]),
              list(range(z.n))]
    assert len(pieces[0]) == len(pieces[1]) == len(gaps) + 1
    cov = Cover(z, pieces)
    out = refine_connected(cov, R, verify=False)
    expect, labels = refine_oracle(cov, R)
    assert out.pieces == expect and out.labels == labels
    # a gap of exactly R joins, every wider one splits
    assert len(out.pieces) == 2 * (1 + sum(g > R for g in gaps)) + 1


@settings(max_examples=40, deadline=None)
@given(families, st.sampled_from([0.5, 1.0, 1.6, 2.0, 3.0]))
def test_refine_matches_per_piece_oracle(case, R):
    name, seed, count, overlap = case
    sp = space(name)
    rng = random.Random(seed)
    cov = Cover(sp, random_pieces(rng, sp.n, count, overlap,
                                  spread=rng.choice([None, 8, 30])))
    out = refine_connected(cov, R, verify=False)
    expect, labels = refine_oracle(cov, R)
    assert out.pieces == expect
    assert out.labels == labels


def test_refine_of_the_pulled_walk_cover_matches_oracle():
    walk = tree_walk(7)
    pulled = pullback_cover(walk, covers.mesh_ball_cover(walk.target, 2))
    out = refine_connected(pulled, 2.0)
    expect, labels = refine_oracle(pulled, 2.0)
    assert out.pieces == expect and out.labels == labels


def test_one_row_components_match_oracle():
    sp = space("h2")
    row = np.arange(0, sp.n, 3)
    owner, comps = covers._components(sp, PieceView([0, len(row)], row, sp.n), 1.7)
    expect = components_oracle(sp, row.tolist(), 1.7)
    assert owner.tolist() == [0] * len(expect)
    assert comps == [frozenset(c) for c in expect]


# -- pullbacks ---------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 60), st.booleans())
def test_pullbacks_match_frozenset_preimages(seed, spread, overlap):
    rng = random.Random(seed)
    src, tgt = space("z"), space("walk")
    f = MapRecord(source=src, target=tgt,
                  assignment=[rng.randrange(spread) for _ in range(src.n)])
    raw = random_pieces(rng, tgt.n, rng.randint(1, 10), overlap)
    sets = [frozenset(p) for p in raw]
    ids, pieces = preimages_oracle(f, sets)
    got_ids, got = covers._preimages(f, Cover(tgt, raw).pieces)
    assert got_ids == ids and got == pieces
    assert pullback_cover(f, Cover(tgt, raw)).pieces == pieces
    colors = [rng.randint(0, 2) for _ in sets]
    dec = pullback_decomposition(f, ColoredDecomposition(
        tgt, raw, colors, r=1.0, d=2, partition=False))
    assert dec.pieces == pieces and dec.colors == [colors[p] for p in ids]


# -- colour amplification ----------------------------------------------------


def test_amplify_matches_per_point_loop():
    compared = 0
    for seed in range(60):
        rng = random.Random(seed)
        sp = space(rng.choice(["z", "h2", "graph"]))
        d = rng.randint(1, 2)
        # one partition per colour, so every point has coverage d + 1; then
        # one piece dropped, so its points have coverage d
        raw, colors = [], []
        for c in range(d + 1):
            cuts = sorted(rng.sample(range(1, sp.n), rng.randint(1, 4)))
            order = rng.sample(range(sp.n), sp.n) if rng.random() < 0.3 else range(sp.n)
            order = list(order)
            for a, b in zip([0, *cuts], [*cuts, sp.n]):
                raw.append(order[a:b])
                colors.append(c)
        if rng.random() < 0.7:
            drop = rng.randrange(len(raw))
            raw, colors = raw[:drop] + raw[drop + 1:], colors[:drop] + colors[drop + 1:]
        r = rng.choice([1.5, 2.4, 3.0, 4.5])
        dec = ColoredDecomposition(sp, raw, colors, r=r, d=d, partition=False)
        pieces, out_colors, trace = amplify_oracle(dec)
        # scattered random pieces are rarely r/3-disjoint; the comparison
        # is of the construction, so the disjointness check is skipped
        with mock.patch.object(covers, "check_disjointness", lambda dec: []):
            try:
                out = kolmogorov_amplify(dec)
            except PreconditionError:
                continue
        assert out.pieces == pieces
        assert out.colors == out_colors
        assert out.provenance["trace"] == trace
        compared += 1
    assert compared >= 15


def test_amplify_orders_selected_groups_by_sorted_colour_set():
    # colour sets {0, 3} on the left, {1, 2} on the right, {0, 1} at the
    # middle point: sorted-tuple order differs from last-colour-first order
    z = space("z")
    left, right = list(range(30)), list(range(31, z.n))
    dec = ColoredDecomposition(z, [left, [30], left, right, [30], right],
                               [0, 0, 3, 1, 1, 2], r=1.5, d=3, partition=False)
    pieces, colors, trace = amplify_oracle(dec)
    out = kolmogorov_amplify(dec)
    assert trace[-3:] == [("selected", 1), ("selected", 0), ("selected", 3)]
    assert out.pieces == pieces and out.colors == colors
    assert out.provenance["trace"] == trace


@pytest.mark.parametrize("name", ["z", "walk", "h2"])
def test_nerve_matches_complement_loop(name):
    from coarselab.constructions import nerve_map

    sp = space(name)
    rng = random.Random(5)
    for raw in (random_pieces(rng, sp.n, 6), [list(range(sp.n)), [0, 1]]):
        cov = Cover(sp, raw)
        assert nerve_map(sp, cov).coordinates == nerve_oracle(sp, cov)


NERVE_SPACES = SPACES | {
    "comb": lambda: generate_net("comb", {"d": 2, "extent": 3}),
    "t3-edgeless": lambda: generate_net("t3", {"radius": 2}, edge_threshold=0.5),
    "two-paths": lambda: metric_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
}


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(NERVE_SPACES)), seed=st.integers(0, 10 ** 6),
       whole=st.booleans(), components=st.integers(0, 3))
def test_nerve_matches_the_object_oracles(name, seed, whole, components):
    # overlapping random pieces, with the whole space and the whole
    # components of a few points as further pieces
    if name not in _cache:
        _cache[name] = NERVE_SPACES[name]()
    sp = _cache[name]
    rng = random.Random(seed)
    raw = random_pieces(rng, sp.n, rng.randint(1, 6))
    if whole:
        raw.append(list(range(sp.n)))
    for _ in range(components):
        raw.append(np.flatnonzero(sp.graph_distances(rng.randrange(sp.n)) >= 0))
    rng.shuffle(raw)
    cov = Cover(sp, raw)
    nerve = nerve_map(sp, cov)
    want = nerve_oracle(sp, cov)
    assert nerve.coordinates == want
    assert nerve.simplices == set(map(frozenset, want))
    assert nerve.dimension == max(map(len, want)) - 1
    assert nerve.vertices == list(range(len(raw)))
    assert nerve_lipschitz(sp, nerve) == pytest.approx(
        nerve_lipschitz_oracle(sp, want), rel=1e-12, abs=0.0)


# -- pair sampling -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(2, 60), st.integers(2, 4000),
                 st.integers(1, 19).map(lambda k: 2 ** k),
                 st.integers(1, 19).map(lambda k: 2 ** k + 1)),
       st.integers(0, 3000), st.integers(0, 2 ** 32))
def test_bulk_pair_sampling_matches_the_draw_loop(n, cap, seed):
    total = n * (n - 1) // 2
    cap = min(cap, total)  # cap == total takes the row-major path
    a, b = analysis._sample_pairs(n, cap, seed, None)
    if cap == total:
        assert (a.tolist(), b.tolist()) == tuple(x.tolist() for x in np.triu_indices(n, 1))
        return
    ea, eb = sample_pairs_oracle(n, cap, seed)
    assert a.dtype == np.int64 and b.dtype == np.int64
    assert a.tolist() == ea.tolist() and b.tolist() == eb.tolist()


def test_bulk_pair_sampling_at_scale():
    # many repeats: cap is all but one of the 190 pairs of 20 points
    for n, cap, seed in ((20, 189, 3), (393_175, 200_000, 1), (1 << 20, 5000, 2)):
        a, b = analysis._sample_pairs(n, cap, seed, None)
        ea, eb = sample_pairs_oracle(n, cap, seed)
        assert np.array_equal(a, ea) and np.array_equal(b, eb)
    with pytest.raises(UnsupportedError):
        analysis._sample_pairs(2 ** 32, 10, 0, None)

"""Oracles for the range engine's self-join and the refusals of its inputs.

``SpaceGraph.pair_blocks`` yields the point pairs a < b within a radius,
each unordered pair tested once: the grid engine of h2/hd nets queries each
row for the points after it in key order, the kernel engine of the other
models tests each row against the later points.  Both are compared with the
upper triangle of ``object_oracles.edges_brute`` (every pair through
``point_distance``).  ``_csr_from_pairs`` is compared with adjacency lists
built from the pair set, ``_squares`` with Python's ``**`` element by element,
and ``check_disjointness`` with a pairwise oracle on pieces that share
points.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import covers, spaces
from coarselab.covers import (ColoredDecomposition, Cover, check_disjointness,
                              r_multiplicity)
from coarselab.errors import UnsupportedError
from coarselab.spaces import generate_net
from object_oracles import edges_brute, point_distance


def upper_pairs(indptr, indices):
    """The entries j > i of CSR row i, as sorted (i, j) tuples."""
    return [(i, j) for i in range(len(indptr) - 1)
            for j in indices[indptr[i]:indptr[i + 1]].tolist() if j > i]


def joined(blocks):
    """The pairs of self-join blocks, in the order they were yielded."""
    pairs = []
    for a, b in blocks:
        assert (a < b).all()
        pairs += zip(a.tolist(), b.tolist())
    return pairs


windows = st.one_of(
    st.tuples(st.just("h2"), st.floats(1.0, 4.5), st.sampled_from([0.6, 0.8, 1.0]),
              st.just("ball")),
    st.tuples(st.just("hd"), st.floats(1.5, 3.0), st.sampled_from([0.5, 0.6, 0.8]),
              st.sampled_from(["ball", "birad"])),
    st.tuples(st.just("t3"), st.integers(0, 7), st.sampled_from([1.0, 2.0, 3.0]),
              st.just("tree_ball")),
)


def build(window):
    model, radius, sep, kind = window
    if model == "t3":
        return generate_net("t3", {"radius": radius}, sep=sep)
    w = {"kind": kind, "radius": radius}
    if model == "hd":
        w["d"] = 3
    return generate_net(model, w, sep=sep)


class TestSelfJoinOracle:
    @given(window=windows,
           choice=st.one_of(st.floats(0.0, 3.5), st.just("2sep"),
                            st.tuples(st.integers(0, 10**6), st.integers(0, 10**6))))
    @settings(max_examples=60, deadline=None)
    def test_pairs_are_the_brute_force_upper_triangle(self, window, choice):
        net = build(window)
        if choice == "2sep":
            # the same-layer spacing of a stratified net: the tie band
            radius = 2.0 * net.sep
        elif isinstance(choice, tuple):
            i, j = choice[0] % net.n, choice[1] % net.n
            radius = point_distance(net.points[i], net.points[j])
        else:
            radius = choice
        pairs = joined(net.pair_blocks(radius))
        # rows come in index order and each row's pairs sorted
        assert pairs == sorted(set(pairs))
        assert pairs == upper_pairs(*edges_brute(list(net.points), radius))

    @pytest.mark.parametrize("model, window, sep", [
        ("h2", {"kind": "ball", "radius": 4.0}, 0.8),
        ("hd", {"kind": "birad", "radius": 3.0, "d": 3}, 0.5),
    ])
    @given(seed=st.integers(0, 2**32 - 1), radius=st.floats(0.0, 3.0))
    @settings(max_examples=15, deadline=None)
    def test_grid_maps_sorted_positions_through_order(self, model, window, sep,
                                                      seed, radius):
        # a shuffled net keys its points out of index order: each pair is
        # still found once, and its indices are the points', not the keys'
        net = generate_net(model, window, sep=sep)
        xs, ys = net._coords()
        perm = np.random.default_rng(seed).permutation(net.n)
        grid = spaces._StratifiedGrid(xs[perm], ys[perm], sep, model == "hd")
        assert (grid.order != np.arange(net.n)).any()
        got = sorted(joined(grid.pair_blocks(radius)))
        a, b = np.triu_indices(net.n, 1)
        near = net.distances(perm[a], perm[b]) <= radius
        assert got == list(zip(a[near].tolist(), b[near].tolist()))
        indptr, indices = spaces._csr_from_pairs(net.n, grid.pair_blocks(radius))
        assert upper_pairs(indptr, indices) == got

    @pytest.mark.parametrize("model, window, sep, thr", [
        ("h2", {"kind": "ball", "radius": 5.0}, 0.8, 1.6),
        ("hd", {"kind": "birad", "radius": 3.5, "d": 3}, 0.4, 0.8),
        ("t3", {"radius": 6}, 1.0, 2.0),
        ("t3", {"radius": 8}, 2.0, None),
    ])
    def test_blocks_partition_the_pairs(self, monkeypatch, model, window, sep, thr):
        net = generate_net(model, window, sep=sep, edge_threshold=thr)
        whole = joined(net.pair_blocks(net.edge_threshold + 1e-12))
        monkeypatch.setattr(spaces, "_CANDIDATE_BUDGET", 300)
        blocks = list(net.pair_blocks(net.edge_threshold + 1e-12))
        assert len(blocks) > 1
        assert joined(blocks) == whole
        # the net's edges are the self-join at its threshold
        assert upper_pairs(net.indptr, net.indices) == whole


@pytest.mark.parametrize("model, window, sep, thr", [
    ("h2", {"kind": "ball", "radius": 10.0}, 0.8, 1.6),
    ("hd", {"kind": "birad", "radius": 6.0, "d": 3}, 0.35, 0.7),
])
def test_net_edges_equal_the_two_sided_query(model, window, sep, thr):
    # the self-join against every point's whole ball, diagonal
    # dropped: the same CSR arrays entry for entry
    net = generate_net(model, window, sep=sep, edge_threshold=thr)
    indptr, indices = net.neighbors(range(net.n), thr + 1e-12)
    row = np.repeat(np.arange(net.n), np.diff(indptr))
    off = indices != row
    assert np.array_equal(net.indices, indices[off])
    assert np.array_equal(net.indptr[1:], np.cumsum(np.bincount(row[off],
                                                                minlength=net.n)))


class TestCsrFromPairs:
    @given(data=st.data(), n=st.integers(1, 40), shuffle=st.booleans(),
           single=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_concatenates_blocks(self, data, n, shuffle, single):
        # blocks cut anywhere (empty ones included) or one pair each, in
        # any pair order: the adjacency lists of the pair set
        pairs = sorted(data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda p: p[0] < p[1]), max_size=3 * n)))
        if shuffle:
            pairs = data.draw(st.permutations(pairs))
        if single:
            bounds = list(range(len(pairs) + 1))
        else:
            cuts = data.draw(st.lists(st.integers(0, len(pairs)), max_size=4))
            bounds = [0] + sorted(cuts) + [len(pairs)]
        a = np.array([p[0] for p in pairs], dtype=np.int64)
        b = np.array([p[1] for p in pairs], dtype=np.int64)
        blocks = [(a[lo:hi], b[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        indptr, indices = spaces._csr_from_pairs(n, blocks)
        want = [sorted({q for p, q in pairs if p == i}
                       | {p for p, q in pairs if q == i}) for i in range(n)]
        assert indptr.tolist() == np.cumsum([0] + list(map(len, want))).tolist()
        assert indices.tolist() == [j for row in want for j in row]
        assert indices.dtype == np.int64

    def test_no_pairs(self):
        indptr, indices = spaces._csr_from_pairs(3, [])
        assert indptr.tolist() == [0, 0, 0, 0] and indices.tolist() == []


_SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, -1.5,
            7.047805746920266, -7.047805746920266, 5e-324]


# finite values whose square overflows raise OverflowError, as ``**`` does
@given(st.lists(st.one_of(st.sampled_from(_SPECIAL), st.floats(-1e150, 1e150)),
                max_size=60))
@settings(max_examples=200, deadline=None)
def test_squares_match_pow_per_element(values):
    got = spaces._squares(np.array(values, dtype=float))
    want = np.array([v ** 2 for v in values], dtype=float)
    nan = np.isnan(want)
    assert np.isnan(got).tolist() == nan.tolist()
    assert got[~nan].view(np.int64).tolist() == want[~nan].view(np.int64).tolist()


class TestSameColourOverlap:
    """Two same-colour pieces that share a point are 0 apart."""

    NETS = {
        "h2": lambda: generate_net("h2", {"kind": "ball", "radius": 4.0}, sep=0.8),
        "t3": lambda: generate_net("t3", {"radius": 5}),
        "z": lambda: generate_net("z", {"lo": -20, "hi": 20}),
    }

    @pytest.mark.parametrize("name", sorted(NETS))
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.5])
    def test_shared_point_is_a_violation_at_zero(self, name, r):
        net = self.NETS[name]()
        half = net.n // 2
        # pieces 0 and 2 share point `half`; piece 1 is the rest, another colour
        pieces = [range(0, half + 1), range(half + 1, net.n), [half]]
        dec = ColoredDecomposition(net, pieces, [0, 1, 0], r=r, d=1,
                                   partition=False)
        got = [(v.piece_a, v.piece_b, v.distance) for v in check_disjointness(dec)]
        assert (0, 2, 0.0) in got
        assert got == self.pairwise(net, dec)

    @pytest.mark.parametrize("name", sorted(NETS))
    @given(seed=st.integers(0, 2**32 - 1), r=st.sampled_from([0.5, 1.0, 1.7, 3.0]))
    @settings(max_examples=10, deadline=None)
    def test_random_overlapping_pieces_match_pairwise(self, name, seed, r):
        net = self.NETS[name]()
        rng = np.random.default_rng(seed)
        pieces = [rng.choice(net.n, size=rng.integers(1, 6), replace=False)
                  for _ in range(12)]
        pieces.append(np.arange(net.n))  # covers every point
        colors = rng.integers(0, 2, size=len(pieces)).tolist()
        dec = ColoredDecomposition(net, pieces, colors, r=r, d=1, partition=False)
        got = [(v.piece_a, v.piece_b, v.distance) for v in check_disjointness(dec)]
        assert got == self.pairwise(net, dec)

    @staticmethod
    def pairwise(net, dec):
        out = []
        for a in range(len(dec.pieces)):
            for b in range(a + 1, len(dec.pieces)):
                if dec.colors[a] == dec.colors[b]:
                    d = net.set_distance(dec.pieces[a], dec.pieces[b])
                    if d < dec.r:
                        out.append((a, b, d))
        return out


class TestRefusals:
    """Bad radii and query rows are refused before any work, on both engines."""

    @pytest.fixture(params=["h2", "t3"])
    def net(self, request, monkeypatch):
        if request.param == "h2":
            net = generate_net("h2", {"kind": "ball", "radius": 3.0}, sep=0.8)
            monkeypatch.setattr(spaces._StratifiedGrid, "_query", _no_work)
        else:
            net = generate_net("t3", {"radius": 4})
        monkeypatch.setattr(net, "distances", _no_work)
        return net

    @pytest.mark.parametrize("radius", [-1.0, -1e-300, math.nan, [0.5, -1.0]])
    def test_engine_radii(self, net, radius):
        with pytest.raises(UnsupportedError):
            net.neighbors(range(net.n), radius)
        with pytest.raises(UnsupportedError):
            list(net.pair_blocks(radius))

    @pytest.mark.parametrize("r", [-1.0, math.nan])
    def test_disjointness_and_multiplicity_radii(self, net, monkeypatch, r):
        dec = ColoredDecomposition(net, [range(net.n)], [0], r=1.0, d=0)
        cov = Cover(net, [range(net.n)])
        monkeypatch.setattr(covers.PieceView, "inverse", _no_work)
        with pytest.raises(UnsupportedError):
            check_disjointness(dec, r=r)
        for metric in ("graph", "model"):
            with pytest.raises(UnsupportedError):
                r_multiplicity(cov, r, metric=metric)

    def test_neighbour_rows_out_of_range(self, net):
        for idx in ([net.n], [-1]):
            with pytest.raises(IndexError):
                net.neighbors(idx, 1.0)

    @pytest.mark.parametrize("xs, ys", [
        ([[0.0]], [-1.0]), ([[0.0]], [0.0]), ([[0.0]], [math.nan]),
        ([[0.0]], [math.inf]), ([[math.nan]], [1.0]), ([[0.0, 0.0]], [1.0]),
        ([0.0], [1.0]), ([[0.0], [1.0]], [1.0]),
    ])
    def test_query_rows(self, monkeypatch, xs, ys):
        net = generate_net("h2", {"kind": "ball", "radius": 3.0}, sep=0.8)
        monkeypatch.setattr(spaces._StratifiedGrid, "_query", _no_work)
        with pytest.raises(UnsupportedError):
            net.coords_within(xs, ys, 1.0)
        with pytest.raises(UnsupportedError):
            net.nearest_points(xs, ys)

    def test_per_row_radius_length(self):
        net = generate_net("h2", {"kind": "ball", "radius": 3.0}, sep=0.8)
        with pytest.raises(UnsupportedError):
            net.coords_within([[0.0], [1.0]], [1.0, 2.0], [1.0, 1.0, 1.0])
        indptr, _ = net.coords_within([[0.0], [1.0]], [1.0, 2.0], [0.0, 1.0])
        assert indptr[1] == 1


def _no_work(*args, **kwargs):
    raise AssertionError("the engine ran on an input it must refuse")

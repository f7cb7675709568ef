"""Growth tables of every piece of a family, intrinsic and ambient.

``PieceView.growth`` keeps one table per metric, made whole on the first
read through the one builder ``spaces._growth_table``.  The intrinsic
table searches the entry graph of the whole family (one node per
(piece, point) entry, edges between adjacent points of one piece) at
once; the ambient table runs one bit-parallel search of the space per
block of 64 pieces, each level pushed or pulled; the search is tested
push-only, pull-only, alternating and at the default switch.
``piece_growth`` and intrinsic ``set_growth`` read them.  Both are
compared with deque BFS oracles (``object_oracles.intrinsic_growth_oracle``
and ``ambient_growth_oracle``) on random and disconnected graphs, integer
windows and half-plane windows, for partitions, overlapping covers and
empty pieces, default and explicit centres, and cut-off radii; ambient
rows also with ``set_growth``.  A family of one piece takes one csgraph
search instead of the 64-bit one, and its row equals both the oracle's
and the 64-bit row of the same piece.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coarselab import constructions, covers
from coarselab.analysis import piece_growth, set_growth
from coarselab.covers import Cover, PieceView, _piece_view
from coarselab.errors import (DataError, DomainError, PreconditionError,
                              UnsupportedError)
from coarselab.spaces import generate_net, growth_report, metric_graph

from object_oracles import ambient_growth_oracle, intrinsic_growth_oracle

_spaces: dict = {}


def space_of(kind: str, size: int):
    key = (kind, size)
    if key not in _spaces:
        if kind == "z":
            _spaces[key] = generate_net("z", {"lo": -size, "hi": size})
        else:
            window = {"kind": "ball", "radius": 2.0 + size / 4}
            _spaces[key] = generate_net("h2", window, sep=0.8, edge_threshold=1.6)
    return _spaces[key]


def as_tuple(rep):
    return rep.center, rep.radii, rep.counts, rep.truncated


@st.composite
def spaces_and_families(draw):
    kind = draw(st.sampled_from(["graph", "z", "h2"]))
    if kind == "graph":
        n = draw(st.integers(1, 24))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        space = metric_graph(n, draw(st.lists(pairs, max_size=3 * n)))
    else:
        space = space_of(kind, draw(st.integers(1, 12)))
    k = draw(st.integers(1, 6))
    # the pieces of each point: exactly one for a partition, else any
    # non-empty set of pieces
    overlap = draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if overlap:
        member = rng.random((space.n, k)) < rng.random()
        member[np.arange(space.n), rng.integers(0, k, space.n)] = True
    else:
        member = np.zeros((space.n, k), dtype=bool)
        member[np.arange(space.n), rng.integers(0, k, space.n)] = True
    pieces = [np.flatnonzero(member[:, j]).tolist() for j in range(k)]
    pieces = [p for p in pieces if p] or [list(range(space.n))]
    return space, pieces, rng


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spaces_and_families(), st.one_of(st.none(), st.integers(0, 6)))
def test_tables_match_the_deque_bfs(case, r_max):
    space, pieces, rng = case
    cover = Cover(space=space, pieces=pieces)
    for i, piece in enumerate(pieces):
        want = intrinsic_growth_oracle(space, piece, r_max=r_max)
        assert as_tuple(piece_growth(cover, i, r_max=r_max,
                                     metric="intrinsic")) == as_tuple(want)
        assert as_tuple(set_growth(space, piece, r_max=r_max,
                                   metric="intrinsic")) == as_tuple(want)
        center = int(rng.choice(piece))
        got = set_growth(space, piece, center=center, r_max=r_max,
                         metric="intrinsic")
        want = intrinsic_growth_oracle(space, piece, center=center,
                                       r_max=r_max)
        assert as_tuple(got) == as_tuple(want)


@pytest.fixture(scope="module")
def decomp8():
    net = generate_net("h2", {"kind": "ball", "radius": 8.0}, sep=0.8,
                       edge_threshold=1.6)
    tiling = constructions.build_h2_tiling(1.0, {"radius": 8.0})
    return constructions.tiling_to_decomposition(tiling, net)


def test_every_piece_of_a_tiling_matches_the_deque_bfs(decomp8):
    space = decomp8.space
    for i in range(len(decomp8.pieces)):
        want = intrinsic_growth_oracle(space, decomp8.pieces.row(i).tolist())
        got = piece_growth(decomp8, i, metric="intrinsic")
        assert as_tuple(got) == as_tuple(want), i
        assert as_tuple(piece_growth(decomp8, i, r_max=3, metric="intrinsic")) \
            == as_tuple(intrinsic_growth_oracle(
                space, decomp8.pieces.row(i).tolist(), r_max=3))


def test_one_search_per_block_for_a_loop_over_pieces(decomp8):
    # the whole family is one block: one search for a loop over its pieces
    pieces = PieceView(decomp8.pieces.ptr, decomp8.pieces.pts, decomp8.space.n)
    family = Cover(space=decomp8.space, pieces=pieces)
    with mock.patch.object(covers, "_path_lengths",
                           wraps=covers._path_lengths) as search:
        for _ in range(2):
            for i in range(len(pieces)):
                piece_growth(family, i, metric="intrinsic")
        assert search.call_count == 1
        # the table is kept per space: another space is searched again
        other = generate_net("h2", {"kind": "ball", "radius": 8.0}, sep=0.8,
                             edge_threshold=1.6)
        pieces.growth(other)
        pieces.growth(other)
        assert search.call_count == 2


def test_empty_pieces_report_no_data():
    z = generate_net("z", {"lo": 0, "hi": 5})
    table = PieceView([0, 2, 2, 3], [1, 2, 4], z.n).growth(z)
    assert table.centres.tolist() == [2, -1, 4]
    with pytest.raises(DataError):
        table.report(1)
    assert table.report(-1).counts == [1]


class TestSetGrowthInputs:
    @pytest.fixture(scope="class")
    def z(self):
        return generate_net("z", {"lo": 0, "hi": 20})

    @pytest.mark.parametrize("metric", ["ambient", "intrinsic"])
    @pytest.mark.parametrize("subset", [[-1, 19, 18], [5, 21], [21]])
    def test_points_outside_the_space_are_refused(self, z, subset, metric):
        with pytest.raises(DomainError):
            set_growth(z, subset, metric=metric)

    @pytest.mark.parametrize("metric", ["ambient", "intrinsic"])
    @pytest.mark.parametrize("center", [-1, 21])
    def test_centres_outside_the_space_are_refused(self, z, center, metric):
        with pytest.raises(DomainError):
            set_growth(z, [5, 6], center=center, metric=metric)

    def test_intrinsic_centre_outside_the_subset_is_refused(self, z):
        with pytest.raises(PreconditionError) as err:
            set_growth(z, [5, 6, 7], center=0, metric="intrinsic")
        assert err.value.witness == 0

    def test_ambient_centre_may_lie_outside_the_subset(self, z):
        rep = set_growth(z, [5, 6, 7], center=0)
        assert rep.counts[4:9] == [0, 1, 2, 3, 3]

    def test_empty_subset_has_no_data(self, z):
        with pytest.raises(DataError):
            set_growth(z, [], metric="intrinsic")


# -- ambient tables -----------------------------------------------------------


@st.composite
def ambient_families(draw):
    """A space and a family of pieces that may overlap, repeat or be
    empty, sometimes of more than 64.  Random graphs are often
    disconnected and may end in isolated points (rows of degree 0)."""
    kind = draw(st.sampled_from(["graph", "graph", "z", "h2"]))
    if kind == "graph":
        n = draw(st.integers(1, 30))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        space = metric_graph(n + draw(st.integers(0, 3)),
                             draw(st.lists(pairs, max_size=2 * n)))
    else:
        space = space_of(kind, draw(st.integers(1, 12)))
    k = draw(st.one_of(st.integers(1, 8), st.integers(60, 140)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        member = rng.random((space.n, k)) < rng.random()
    else:
        member = np.zeros((space.n, k), dtype=bool)
        member[np.arange(space.n), rng.integers(0, k, space.n)] = True
    pieces = [np.flatnonzero(member[:, j]).tolist() for j in range(k)]
    if draw(st.booleans()):
        # repeated pieces share their centre, and an empty one has none
        pieces += [pieces[j] for j in rng.integers(0, k, 3)] + [[]]
        rng.shuffle(pieces)
    return space, pieces, rng


class _Alternate:
    """A stand-in for ``covers._AMBIENT_PULL`` that makes the levels of
    each search pull and push in turn, from the given first level."""

    def __init__(self, pull_first: bool):
        self.level = int(pull_first)

    def __mul__(self, entries):
        return self

    def __lt__(self, frontier):
        self.level += 1
        return self.level % 2 == 0


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ambient_families(), st.sampled_from([1, 5, 64]),
       st.one_of(st.none(), st.integers(0, 6)), st.booleans())
def test_ambient_tables_match_the_deque_bfs(case, block, r_max, pull_first):
    space, pieces, rng = case
    wants = {i: ambient_growth_oracle(space, p, r_max=r_max)
             for i, p in enumerate(pieces) if p}
    for i, want in wants.items():
        assert as_tuple(set_growth(space, pieces[i], center=want.center,
                                   r_max=r_max)) == as_tuple(want)
        assert as_tuple(set_growth(space, pieces[i], r_max=r_max)) \
            == as_tuple(want)
    # push-only, pull-only and alternating levels, and the default switch
    for pull in [float("inf"), -1.0, _Alternate(pull_first), covers._AMBIENT_PULL]:
        view = _piece_view(pieces, space.n)
        with mock.patch.object(covers, "_AMBIENT_BLOCK", block), \
                mock.patch.object(covers, "_AMBIENT_PULL", pull):
            table = view.growth(space, "ambient")
            # the table is whole: its rows read in any order
            for i in rng.permutation(len(pieces)).tolist():
                if i not in wants:
                    with pytest.raises(DataError):
                        table.report(i, r_max)
                    continue
                assert as_tuple(table.report(i, r_max)) == as_tuple(wants[i])


@pytest.mark.parametrize("block", [1, 5, 64])
def test_directions_on_isolated_points_and_components(block):
    # two paths, a triangle and two isolated points (rows of degree 0);
    # pieces repeat, one is empty and one is an isolated point
    space = metric_graph(12, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6),
                              (7, 8), (8, 9), (9, 7)])
    pieces = [[1, 2], [1, 2], [], [10], [4, 5, 6], [0, 3, 8], [11, 9], [2]]
    for pull in [float("inf"), -1.0, _Alternate(False), _Alternate(True),
                 covers._AMBIENT_PULL]:
        view = _piece_view(pieces, space.n)
        with mock.patch.object(covers, "_AMBIENT_BLOCK", block), \
                mock.patch.object(covers, "_AMBIENT_PULL", pull):
            table = view.growth(space, "ambient")
            for i, piece in enumerate(pieces):
                if not piece:
                    with pytest.raises(DataError):
                        table.report(i)
                    continue
                assert as_tuple(table.report(i)) == as_tuple(
                    ambient_growth_oracle(space, piece))


def test_both_directions_give_the_same_arrays(decomp8):
    # the wide middle levels of a tiling's search pull by default; the
    # arrays of every block, concatenated, equal those of the push-only
    # search bit for bit, and so does the table a view makes on first read
    space, pieces = decomp8.space, decomp8.pieces
    ptr, pts = pieces.ptr, pieces.pts
    centres = covers._default_centres(space, ptr, pts)
    tables = []
    for pull in [covers._AMBIENT_PULL, float("inf"), -1.0, _Alternate(True)]:
        with mock.patch.object(covers, "_AMBIENT_PULL", pull):
            t = covers._ambient_growth(space, ptr, pts, centres)
        tables.append([t.centres, t.rptr, t.counts, t.truncated])
    t = PieceView(ptr, pts, space.n).growth(space, "ambient")
    tables.append([t.centres, t.rptr, t.counts, t.truncated])
    for other in tables[1:]:
        for a, b in zip(tables[0], other):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_ambient_rows_of_a_tiling_match_set_growth(decomp8):
    space = decomp8.space
    for i in range(len(decomp8.pieces)):
        piece = decomp8.pieces.row(i).tolist()
        want = ambient_growth_oracle(space, piece)
        assert as_tuple(piece_growth(decomp8, i)) == as_tuple(want), i
        assert as_tuple(set_growth(space, piece, center=want.center)) \
            == as_tuple(want)
        # r_max reads a prefix of the kept row
        assert as_tuple(piece_growth(decomp8, i, r_max=3)) == as_tuple(
            set_growth(space, piece, center=want.center, r_max=3))


def test_ambient_rows_run_past_the_piece_to_the_eccentricity():
    # two components: rows of the left piece stop at its component
    space = metric_graph(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)])
    table = PieceView([0, 1, 3, 3, 5], [1, 2, 3, 5, 6], space.n).growth(
        space, "ambient")
    assert table.report(0).counts == [1, 1, 1]
    assert table.report(1).counts == [1, 2, 2]
    assert table.report(3).counts == [1, 2]
    with pytest.raises(DataError):
        table.report(2)


def test_centres_on_the_window_edge_flag_radius_zero():
    z = generate_net("z", {"lo": 0, "hi": 6})
    view = PieceView([0, 2, 3], [0, 1, 3], z.n)
    edge = view.growth(z, "ambient").report(0)
    assert edge.center == 1 and edge.truncated[0]
    assert all(edge.truncated)
    inner = view.growth(z, "ambient").report(1)
    assert inner.center == 3 and inner.truncated[:2] == [False, False]
    assert as_tuple(edge) == as_tuple(ambient_growth_oracle(z, [0, 1]))


@pytest.mark.parametrize("case", ["deep", "centre outside", "other component",
                                  "h2"])
def test_one_piece_families_are_one_csgraph_search(case):
    # a one-piece family takes the csgraph search, not the 64-bit one; its
    # row equals the oracle's and the 64-bit row of the piece in a family
    # of two (the piece twice), array for array
    if case == "deep":
        # the whole of a long path: thousands of levels
        space = generate_net("z", {"lo": -2000, "hi": 2000})
        piece, centre = np.arange(space.n), None
    elif case == "centre outside":
        space = generate_net("z", {"lo": 0, "hi": 20})
        piece, centre = np.array([5, 6, 7, 15]), 0
    elif case == "other component":
        space = metric_graph(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)])
        piece, centre = np.array([0, 2, 3]), 5
    else:
        space = space_of("h2", 12)
        piece, centre = np.flatnonzero(space.margins() > 2.0), None
    centres = (covers._default_centres(space, np.array([0, len(piece)]), piece)
               if centre is None else np.array([centre]))
    with mock.patch.object(covers, "_ambient_search",
                           wraps=covers._ambient_search) as search:
        one = covers._ambient_growth(space, np.array([0, len(piece)]), piece,
                                     centres)
        assert search.call_count == 0
        two = covers._ambient_growth(space, np.array([0, len(piece), 2 * len(piece)]),
                                     np.r_[piece, piece], np.r_[centres, centres])
        assert search.call_count == 1
    want = ambient_growth_oracle(space, piece.tolist(), center=int(centres[0]))
    assert as_tuple(one.report(0)) == as_tuple(want)
    for r_max in (0, 3):
        assert as_tuple(one.report(0, r_max)) == as_tuple(ambient_growth_oracle(
            space, piece.tolist(), center=int(centres[0]), r_max=r_max))
    lo, hi = two.rptr[:2]
    assert np.array_equal(one.counts, two.counts[lo:hi])
    assert np.array_equal(one.truncated, two.truncated[lo:hi])
    assert one.counts.dtype == two.counts.dtype


def test_a_single_empty_piece_is_not_searched():
    z = generate_net("z", {"lo": 0, "hi": 5})
    with mock.patch.object(covers, "_ambient_search") as search, \
            mock.patch.object(covers, "_ball_growth") as csgraph:
        table = PieceView([0, 0], [], z.n).growth(z, "ambient")
        assert search.call_count == csgraph.call_count == 0
    assert table.centres.tolist() == [-1] and table.rptr.tolist() == [0, 0]
    with pytest.raises(DataError):
        table.report(0)


def test_one_ambient_search_per_64_pieces(decomp8):
    space = decomp8.space
    pieces = PieceView(decomp8.pieces.ptr, decomp8.pieces.pts, space.n)
    family = Cover(space=space, pieces=pieces)
    blocks = -(-len(pieces) // 64)
    assert blocks > 2
    with mock.patch.object(covers, "_ambient_search",
                           wraps=covers._ambient_search) as search, \
            mock.patch.object(covers, "_path_lengths") as csgraph:
        # the first read searches every block
        piece_growth(family, len(pieces) - 1)
        assert search.call_count == blocks
        for _ in range(2):
            for i in range(len(pieces)):
                piece_growth(family, i, r_max=i % 5)
        assert search.call_count == blocks
        # the intrinsic table is kept apart; another space is searched again
        other = generate_net("h2", {"kind": "ball", "radius": 8.0}, sep=0.8,
                             edge_threshold=1.6)
        pieces.growth(other, "ambient").report(0)
        assert search.call_count == 2 * blocks
        assert csgraph.call_count == 0
    assert pieces.growth(other, "ambient") is pieces.growth(other, "ambient")
    assert pieces.growth(other) is not pieces.growth(other, "ambient")


class TestNegativeRadii:
    @pytest.fixture(scope="class")
    def z(self):
        return generate_net("z", {"lo": 0, "hi": 20})

    @pytest.mark.parametrize("metric", ["ambient", "intrinsic"])
    def test_set_growth_refuses_a_negative_radius(self, z, metric):
        with pytest.raises(UnsupportedError):
            set_growth(z, [5, 6, 7], r_max=-1, metric=metric)

    @pytest.mark.parametrize("metric", ["ambient", "intrinsic"])
    def test_piece_growth_refuses_a_negative_radius(self, z, metric):
        cover = Cover(space=z, pieces=[range(10), range(10, z.n)])
        with pytest.raises(UnsupportedError):
            piece_growth(cover, 1, r_max=-2, metric=metric)
        assert piece_growth(cover, 1, r_max=0, metric=metric).radii == [0]

    def test_growth_report_refuses_a_negative_radius(self, z):
        with pytest.raises(UnsupportedError):
            growth_report(z, 3, r_max=-1)

    def test_unknown_metrics_are_refused(self, z):
        cover = Cover(space=z, pieces=[range(z.n)])
        with pytest.raises(UnsupportedError):
            piece_growth(cover, 0, metric="geodesic")

"""Intrinsic growth of every piece from one graph search per block.

``PieceView.growth`` searches the entry graph of a family (one node per
(piece, point) entry, edges between adjacent points of one piece) and
keeps the ball counts of every piece; ``piece_growth`` and intrinsic
``set_growth`` read it.  Both are compared with the deque BFS they
replaced (``object_oracles.intrinsic_growth_oracle``) on random graphs,
integer windows and half-plane windows, for partitions and overlapping
covers, default and explicit centres, and cut-off radii.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coarselab import constructions, covers
from coarselab.analysis import piece_growth, set_growth
from coarselab.covers import Cover, PieceView
from coarselab.errors import DataError, DomainError, PreconditionError
from coarselab.spaces import generate_net, metric_graph

from object_oracles import intrinsic_growth_oracle

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
@given(spaces_and_families(), st.sampled_from([1, 3, 40, 1 << 16]),
       st.one_of(st.none(), st.integers(0, 6)))
def test_tables_match_the_deque_bfs(case, block, r_max):
    space, pieces, rng = case
    cover = Cover(space=space, pieces=pieces)
    with mock.patch.object(covers, "_GROWTH_BLOCK", block):
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


def blocks_of(sizes, block):
    """How many blocks of whole pieces, each of at most ``block`` entries
    unless one piece alone is larger, the greedy split makes."""
    count, used = 0, None
    for size in sizes:
        if used is None or used + size > block:
            count, used = count + 1, 0
        used += size
    return count


def test_one_search_per_block_for_a_loop_over_pieces(decomp8):
    pieces = PieceView(decomp8.pieces.ptr, decomp8.pieces.pts, decomp8.space.n)
    family = Cover(space=decomp8.space, pieces=pieces)
    sizes = np.diff(pieces.ptr).tolist()
    with mock.patch.object(covers, "_GROWTH_BLOCK", 600), \
            mock.patch.object(covers, "_path_lengths",
                              wraps=covers._path_lengths) as search:
        for _ in range(2):
            for i in range(len(pieces)):
                piece_growth(family, i, metric="intrinsic")
        assert search.call_count == blocks_of(sizes, 600) > 5
        # the table is kept per space: another space is searched again
        other = generate_net("h2", {"kind": "ball", "radius": 8.0}, sep=0.8,
                             edge_threshold=1.6)
        pieces.growth(other)
        pieces.growth(other)
        assert search.call_count == 2 * blocks_of(sizes, 600)


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

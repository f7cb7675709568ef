"""The array builders and the greedy decomposition against the object
oracles of ``object_oracles``.

t3 balls (words and CSR) at radius 0-10, and their sep > 1 and
edge_threshold >= 2 variants; combs (points, CSR, margins, and the
distance kernel against ``point_distance`` on all pairs) for d 1-4 and
extent 1-5; the greedy decomposition with hypothesis on random metric
graphs (the criterion-4 generator) and on z and h2 covers, refusals and
their witnesses included.  Also: the parameters t3 and comb nets must
honour or refuse, symmetric adjacency from every builder, and the
product window's left-to-right l1 sum.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import object_oracles
from coarselab import covers
from coarselab.cli import main
from coarselab.constructions import walk_target
from coarselab.covers import (ColoredDecomposition, Cover,
                              greedy_decomposition, mesh_ball_cover,
                              r_multiplicity)
from coarselab.errors import PreconditionError, UnsupportedError
from coarselab.spaces import build_product, generate_net, metric_graph
from object_oracles import (greedy_decomposition_oracle, net_comb_oracle,
                            net_t3_oracle, point_distance,
                            verify_greedy_oracle, words_oracle)
from test_acceptance import _random_graph


def assert_same_net(net, pts, indptr, indices):
    assert net.points == pts
    assert net.indptr.tolist() == indptr.tolist()
    assert net.indices.tolist() == indices.tolist()


# -- t3 balls -----------------------------------------------------------------


@pytest.mark.parametrize("radius", range(11))
def test_t3_ball_matches_the_word_loop(radius):
    net = generate_net("t3", {"radius": radius})
    pts, indptr, indices = net_t3_oracle(radius)
    assert_same_net(net, pts, indptr, indices)
    words, depth = net._codes
    want_words, want_depth = words_oracle(pts)
    assert words.tolist() == want_words.tolist()
    assert depth.tolist() == want_depth.tolist()


@pytest.mark.parametrize("radius,sep,thr", [
    (4, 1.0, 2.0), (4, 1.0, 3.0), (5, 1.0, 1.0), (4, 1.0, 0.5), (4, 0.5, None),
    (5, 1.5, None), (5, 2.0, None), (6, 2.5, None), (5, 3.0, 1.0),
    (5, 2.0, 0.5), (5, 1.5, 4.0)])
def test_t3_variants_match_the_word_loop(radius, sep, thr):
    net = generate_net("t3", {"radius": radius}, sep=sep, edge_threshold=thr)
    pts, indptr, indices = net_t3_oracle(radius, sep, thr)
    assert_same_net(net, pts, indptr, indices)
    words, depth = net._codes
    want_words, want_depth = words_oracle(pts)
    assert words.tolist() == want_words.tolist()
    assert depth.tolist() == want_depth.tolist()
    got = net.distances(*np.divmod(np.arange(net.n ** 2), net.n))
    assert got.tolist() == [point_distance(p, q) for p in pts for q in pts]


def test_t3_builds_the_graph_its_threshold_names():
    below = generate_net("t3", {"radius": 3}, edge_threshold=0.5)
    assert below.n == 22 and len(below.indices) == 0
    two = generate_net("t3", {"radius": 3}, edge_threshold=2.0)
    i = np.repeat(np.arange(two.n), np.diff(two.indptr))
    assert (two.distances(i, two.indices) == 2.0).any()
    assert (two.distances(i, two.indices) <= 2.0).all()


# -- combs --------------------------------------------------------------------


@pytest.mark.parametrize("d", range(1, 5))
@pytest.mark.parametrize("extent", range(1, 6))
def test_comb_matches_the_node_loop(d, extent):
    comb = generate_net("comb", {"d": d, "extent": extent})
    pts, indptr, indices = net_comb_oracle(d, extent)
    assert_same_net(comb, pts, indptr, indices)
    assert comb.margins().tolist() == [
        float(extent - max((abs(p.base), *p.offsets))) for p in pts]
    assert pts[comb.window["basepoint"]].base == 0
    assert not pts[comb.window["basepoint"]].offsets
    got = comb.distances(*np.divmod(np.arange(comb.n ** 2), comb.n))
    assert got.tolist() == [point_distance(p, q) for p in pts for q in pts]


def test_comb_builds_the_graph_its_threshold_names():
    with pytest.raises(UnsupportedError, match="sep 2.5 > 1 is not supported"):
        generate_net("comb", {"d": 2, "extent": 4}, sep=2.5, edge_threshold=7.0)
    with pytest.raises(UnsupportedError, match="sep 1.5 > 1"):
        generate_net("comb", {"d": 2, "extent": 4}, sep=1.5, edge_threshold=1.0)
    with pytest.raises(UnsupportedError, match="edge_threshold 2.0 >= 2"):
        generate_net("comb", {"d": 2, "extent": 4}, edge_threshold=2.0)
    below = generate_net("comb", {"d": 2, "extent": 4}, sep=0.5)
    assert below.n == 45 and len(below.indices) == 0
    native = generate_net("comb", {"d": 2, "extent": 4}, sep=0.5, edge_threshold=1.9)
    assert native.indices.tolist() == generate_net(
        "comb", {"d": 2, "extent": 4}).indices.tolist()


@pytest.mark.parametrize("argv", [["--sep", "2.5"], ["--threshold", "2"]])
def test_cli_comb_refuses_what_it_cannot_build(argv, tmp_path, capsys):
    assert main(["space", "--model", "comb", *argv, "--out", str(tmp_path)]) == 2
    assert "not supported" in capsys.readouterr().err


# -- symmetric adjacency ------------------------------------------------------


def _builders():
    z = generate_net("z", {"lo": -6, "hi": 6})
    h2 = generate_net("h2", {"kind": "ball", "radius": 4.0}, sep=1.0)
    return {
        "z": z,
        "z-sep": generate_net("z", {"lo": -9, "hi": 9}, sep=2.5, edge_threshold=6.0),
        "t3": generate_net("t3", {"radius": 4}),
        "t3-thr": generate_net("t3", {"radius": 4}, edge_threshold=2.5),
        "t3-sep": generate_net("t3", {"radius": 5}, sep=2.5),
        "comb": generate_net("comb", {"d": 3, "extent": 3}),
        "h2": h2,
        "hd": generate_net("hd", {"kind": "birad", "radius": 3.0, "d": 3}, sep=0.8),
        "product": build_product([h2, z], {"kind": "l1_ball", "radius": 4.5,
                                           "centers": [h2.window["basepoint"],
                                                       z.window["basepoint"]]}),
        "walk-target": walk_target(4),
        "metric-graph": metric_graph(6, [(0, 1), (1, 2), (3, 4), (4, 0)]),
    }


def test_every_builder_gives_a_symmetric_adjacency():
    for name, space in _builders().items():
        n = space.n
        row = np.repeat(np.arange(n), np.diff(space.indptr))
        col = space.indices
        assert not (row == col).any(), name
        key = row * n + col
        assert (np.diff(key) > 0).all(), name  # rows sorted, no repeats
        assert key.tolist() == np.sort(col * n + row).tolist(), name


# -- products -----------------------------------------------------------------


def test_two_factor_window_sums_left_to_right():
    a = generate_net("h2", {"kind": "ball", "radius": 3.5}, sep=0.8)
    b = generate_net("t3", {"radius": 3})
    ca, cb = a.window["basepoint"], b.window["basepoint"]
    for radius in (0.0, 1.0, 2.7, 4.25):
        p = build_product([a, b], {"kind": "l1_ball", "radius": radius,
                                   "centers": [ca, cb]})
        da = a.distances(np.arange(a.n), np.full(a.n, ca)).tolist()
        db = b.distances(np.arange(b.n), np.full(b.n, cb)).tolist()
        want = [[i, j] for i in range(a.n) for j in range(b.n)
                if (0.0 + da[i]) + db[j] <= radius]
        assert p._codes.tolist() == want


# -- greedy decomposition -----------------------------------------------------


def _outcome(build, cover, R, n):
    try:
        return build(cover, R, n)
    except PreconditionError as err:
        return err


def assert_same_greedy(cover, R, n):
    want = _outcome(greedy_decomposition_oracle, cover, R, n)
    got = _outcome(greedy_decomposition, cover, R, n)
    if isinstance(want, PreconditionError):
        assert isinstance(got, PreconditionError)
        assert str(got) == str(want)
        assert got.witness == want.witness
        return "refused"
    assert not isinstance(got, PreconditionError), got
    assert got.pieces == want.pieces
    assert got.colors == want.colors
    assert got.provenance == want.provenance
    assert (got.r, got.d, got.partition) == (want.r, want.d, want.partition)
    return "built"


def _random_cover(rng):
    # the criterion-4 cover: a few graph balls, the rest as one piece
    g = _random_graph(rng)
    dist = g._dist_matrix
    pieces = []
    for _ in range(rng.randint(2, 6)):
        c, rad = rng.randrange(g.n), rng.randint(0, 3)
        pieces.append(frozenset(np.flatnonzero(dist[c] <= rad).tolist()))
    rest = set(range(g.n)) - set().union(*pieces)
    if rest:
        pieces.append(frozenset(rest))
    return Cover(g, pieces)


@given(seed=st.integers(0, 2 ** 32 - 1), R=st.sampled_from([0.0, 1.0, 1.5, 2.0]),
       slack=st.integers(-2, 1))
@settings(max_examples=200, deadline=None)
def test_greedy_matches_the_set_oracle_on_random_graphs(seed, R, slack):
    cover = _random_cover(random.Random(seed))
    mult, _ = r_multiplicity(cover, 2 * R, metric="model")
    assert_same_greedy(cover, R, max(0, mult - 1 + slack))


def test_greedy_matches_the_set_oracle_on_z_covers():
    z = generate_net("z", {"lo": -12, "hi": 12})
    seen = set()
    for length, step in ((3, 2), (5, 3), (9, 9), (4, 6)):
        pieces = [np.flatnonzero((z._codes >= lo) & (z._codes < lo + length))
                  for lo in range(-12, 13, step)]
        pieces = [p.tolist() for p in pieces if len(p)]
        rest = sorted(set(range(z.n)) - set().union(*pieces))
        cover = Cover(z, pieces + ([rest] if rest else []))
        for R in (1.0, 2.0, 3.5):
            for n in range(4):
                seen.add(assert_same_greedy(cover, R, n))
    assert seen == {"built", "refused"}


def test_greedy_matches_the_set_oracle_on_h2_mesh_covers():
    net = generate_net("h2", {"kind": "ball", "radius": 5.0}, sep=1.0)
    seen = set()
    for mesh in (1, 2, 3):
        cover = mesh_ball_cover(net, mesh)
        for R in (0.5, 1.0, 2.0):
            mult, _ = r_multiplicity(cover, 2 * R, metric="model")
            for n in (mult - 2, mult - 1):
                seen.add(assert_same_greedy(cover, R, max(n, 0)))
    assert seen == {"built", "refused"}


def _runs(*bounds):
    return [list(range(a, b + 1)) for a, b in bounds]


@pytest.mark.parametrize("pieces,n,outcome", [
    (_runs((23, 27), (28, 29), (17, 27), (0, 4), (5, 6), (5, 16)), 2, "built"),
    (_runs((24, 29), (27, 29), (0, 5), (12, 26), (6, 6), (6, 11)), 2, "built"),
    (_runs((18, 29), (0, 0), (8, 17), (1, 7)), 1, "refused"),
])
def test_greedy_patches_match_the_set_oracle(pieces, n, outcome):
    # some pieces fit no colour whole: their points are patched with
    # clipped pieces, or a point no colour class avoids is refused
    z = generate_net("z", {"lo": 0, "hi": 29})
    cover = Cover(z, pieces)
    assert assert_same_greedy(cover, 1.5, n) == outcome
    if outcome == "built":
        dec = greedy_decomposition(cover, 1.5, n)
        src = dec.provenance["source_pieces"]
        assert any(dec.pieces[i] < cover.pieces[s] for i, s in enumerate(src))
    else:
        with pytest.raises(PreconditionError, match="no colour class avoids"):
            greedy_decomposition(cover, 1.5, n)


def test_greedy_clips_the_first_piece_holding_a_point(monkeypatch):
    # with the multiplicity check bypassed: at R = 1.5 and n = 0 colour 0
    # takes {7, 8, 9}, and pieces 1 and 2 both hold point 0 but differ
    # near it; clipping piece 1 leaves point 1 uncovered and refused
    for module in (covers, object_oracles):
        monkeypatch.setattr(module, "r_multiplicity", lambda *a, **k: (1, 0))
    z = generate_net("z", {"lo": 0, "hi": 9})
    cover = Cover(z, [[7, 8, 9], [0, 2, 3, 4, 5, 6], [0, 1, 3, 4, 5, 6]])
    assert assert_same_greedy(cover, 1.5, 0) == "refused"
    with pytest.raises(PreconditionError, match="2R-ball of point 1") as err:
        greedy_decomposition(cover, 1.5, 0)
    assert err.value.witness == 1


@pytest.mark.parametrize("colors,r,sources,witness", [
    ([0, 1, 0], 1.0, [0, 0, 1], 0),  # piece 1 escapes its source 0
    ([0, 0, 0], 2.0, [0, 1, 1], (0, 1, 1.0)),  # pieces 0 and 1 are 1 apart
])
def test_greedy_verification_refusals_match_the_oracle(colors, r, sources, witness):
    z = generate_net("z", {"lo": 0, "hi": 5})
    cover = Cover(z, [[0, 1, 2], [3, 4, 5]])
    dec = ColoredDecomposition(z, [[0, 1], [2, 3], [4, 5]], colors, r=r, d=1,
                               partition=True,
                               provenance={"source_pieces": sources})
    with pytest.raises(PreconditionError) as want:
        verify_greedy_oracle(dec, cover)
    with pytest.raises(PreconditionError) as got:
        covers._verify_greedy(dec, cover)
    assert str(got.value) == str(want.value)
    w = got.value.witness
    got_witness = w if isinstance(w, int) else (w.piece_a, w.piece_b, w.distance)
    assert got_witness == witness == want.value.witness

"""Families keep no derived tables.

Piece labels are a :class:`~coarselab.spaces.LabelView` that formats each
label on read; they are checked against the label lists the constructions
built before (from independent oracles: a greedy BFS mesh, set preimages
and per-piece component counts), and the cover files they write against
those of list labels.  The point-to-piece inversion is computed per call:
``tracemalloc`` checks that a family keeps no memory from the calls that
invert it, and that a refinement keeps no string per piece.
"""

from __future__ import annotations

import gc
import hashlib
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from coarselab import spaces
from coarselab.artifacts import canonical_json, cover_to_dict, space_ref
from coarselab.constructions import MapRecord, tree_walk
from coarselab.covers import (ColoredDecomposition, Cover, PieceView,
                              check_disjointness, iterated_neighborhood,
                              mesh_ball_cover, pullback_cover,
                              r_multiplicity, refine_connected)
from coarselab.spaces import LabelView, generate_net

SPACES = {
    "z": lambda: generate_net("z", {"lo": -30, "hi": 30}),
    "t3": lambda: generate_net("t3", {"radius": 4}),
    "walk": lambda: tree_walk(5).target,
}
_cache: dict = {}


def space(name):
    """The named test space, built once."""
    if name not in _cache:
        _cache[name] = SPACES[name]()
    return _cache[name]


def mesh_labels_oracle(sp, R):
    """The greedy mesh: each point not within R - 1 of an earlier centre
    is a centre, labelled ``ball:c:R``."""
    graph = csr_matrix((np.ones(len(sp.indices)), sp.indices, sp.indptr),
                       shape=(sp.n, sp.n))
    dist = shortest_path(graph, unweighted=True)
    blocked = np.zeros(sp.n, dtype=bool)
    centres = []
    for v in range(sp.n):
        if not blocked[v]:
            centres.append(v)
            blocked |= dist[v] <= R - 1
    return [f"ball:{c}:{R}" for c in centres]


def pullback_labels_oracle(f, pieces):
    """``pre:pid`` for every target piece with a nonempty preimage."""
    image = set(f.assignment)
    return [f"pre:{pid}" for pid, piece in enumerate(pieces) if piece & image]


def refine_labels_oracle(cover, R):
    """``pid.i`` for the R-components i of every piece pid, counted on the
    piece's own R-neighbour graph."""
    sp, labels = cover.space, []
    for pid, piece in enumerate(cover.pieces):
        idx = np.array(sorted(piece))
        indptr, nbr = sp.neighbors(idx, R)
        local = np.full(sp.n, -1)
        local[idx] = np.arange(len(idx))
        row, col = np.repeat(np.arange(len(idx)), np.diff(indptr)), local[nbr]
        keep = col >= 0
        graph = csr_matrix((np.ones(int(keep.sum())), (row[keep], col[keep])),
                           shape=(len(idx), len(idx)))
        count = connected_components(graph, directed=False)[0]
        labels += [f"{pid}.{i}" for i in range(count)]
    return labels


def random_cover(sp, rng):
    """Random pieces over the space, with the uncovered points as one more."""
    pieces = [set(rng.sample(range(sp.n), rng.randint(1, max(1, sp.n // 4))))
              for _ in range(rng.randint(1, 8))]
    rest = set(range(sp.n)).difference(*pieces)
    return Cover(sp, pieces + [rest] if rest else pieces)


# -- the view ----------------------------------------------------------------


def test_view_reads_like_its_list(monkeypatch):
    view = LabelView("{}.{}", [0, 0, 2], [0, 1, 0])
    labels = ["0.0", "0.1", "2.0"]
    assert list(view) == labels and len(view) == 3
    assert view == labels and labels == view and view != labels[:2]
    assert view != ["0.0", "0.1", "2.1"]
    assert view[-1] == "2.0" and view[-3] == "0.0" and view[1] == "0.1"
    assert view[1:] == labels[1:] and view[::-2] == labels[::-2]
    assert view[np.int64(2)] == "2.0"
    for i in (3, -4):
        with pytest.raises(IndexError):
            view[i]
    with pytest.raises(ValueError):
        view.fields[0, 0] = 1
    assert "0.1" in view and "1.0" not in view
    # views of equal strings are equal, whatever their fields
    assert view == LabelView("{}.{}", np.array([0, 0, 2]), [0, 1, 0])
    assert LabelView("{}.0", [1, 2]) == LabelView("{}.{}", [1, 2], [0, 0])
    assert view != LabelView("{}.{}", [0, 0, 2], [0, 1, 1])
    assert view != tuple(labels)
    monkeypatch.setattr(spaces, "_VIEW_BLOCK", 2)
    big = LabelView("ball:{}:3", np.arange(7))
    assert list(big) == [f"ball:{c}:3" for c in range(7)]
    assert list(LabelView("pre:{}", [])) == [] and not LabelView("pre:{}", [])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(SPACES)), st.integers(0, 10 ** 6),
       st.integers(1, 3), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_labels_match_the_lists_they_replace(name, seed, R, r):
    sp, rng = space(name), random.Random(seed)
    mesh = mesh_ball_cover(sp, R)
    assert isinstance(mesh.labels, LabelView)
    assert mesh.labels == mesh_labels_oracle(sp, R)
    target = random_cover(sp, rng)
    src = space("z")
    f = MapRecord(source=src, target=sp, assignment=[
        rng.randrange(rng.randint(1, sp.n)) for _ in range(src.n)])
    pulled = pullback_cover(f, target)
    assert pulled.labels == pullback_labels_oracle(f, target.pieces)
    cover = random_cover(sp, rng)
    refined = refine_connected(cover, r, verify=False)
    assert refined.labels == refine_labels_oracle(cover, r)
    for fam in (mesh, pulled, refined):
        assert len(fam.labels) == len(fam.pieces)
        assert [fam.labels[i] for i in range(len(fam.labels))] == list(fam.labels)


def labelled_covers():
    """A mesh, pullback and refined cover of the radius-5 walk."""
    walk = tree_walk(5)
    mesh = mesh_ball_cover(walk.target, 2)
    pulled = pullback_cover(walk, mesh)
    return mesh, pulled, refine_connected(pulled, 2.0)


def test_covers_equal_their_list_labelled_twins():
    for cov in labelled_covers():
        twin = Cover(cov.space, cov.pieces, labels=list(cov.labels))
        assert cov == twin and twin == cov
        assert cov == Cover(cov.space, cov.pieces, labels=cov.labels)
        other = list(cov.labels)
        other[-1] += "x"
        assert cov != Cover(cov.space, cov.pieces, labels=other)
        assert cov != Cover(cov.space, cov.pieces)


def test_cover_files_equal_those_of_list_labels():
    for cov in labelled_covers():
        ref = space_ref({"model": cov.space.model})
        digests = {hashlib.sha256(canonical_json(cover_to_dict(
            Cover(cov.space, cov.pieces, labels=labels), ref)).encode()
        ).hexdigest() for labels in (cov.labels, list(cov.labels))}
        assert len(digests) == 1
        assert cover_to_dict(cov, ref)["pieces"][-1]["label"] == cov.labels[-1]


# -- memory a family keeps ---------------------------------------------------


@pytest.fixture(scope="module")
def walk9():
    """The radius-9 tree walk, its mesh cover at R = 2, and the pullback
    and refinement of that cover."""
    walk = tree_walk(9)
    mesh = mesh_ball_cover(walk.target, 2)
    pulled = pullback_cover(walk, mesh)
    return {"walk": walk, "mesh": mesh, "pulled": pulled,
            "refined": refine_connected(pulled, 2.0, verify=False)}


def _twin(cover):
    """A cover equal to ``cover`` with a fresh view of its arrays."""
    view = PieceView(cover.pieces.ptr, cover.pieces.pts, cover.space.n)
    return Cover(cover.space, view, labels=cover.labels)


@pytest.mark.parametrize("which, call", [
    ("mesh", lambda fam, walk: pullback_cover(walk, fam)),
    ("pulled", lambda fam, walk: r_multiplicity(fam, 1)),
    ("pulled", lambda fam, walk: iterated_neighborhood(fam, 3, 2.0, 2)),
    ("pulled", lambda fam, walk: check_disjointness(ColoredDecomposition(
        fam.space, fam.pieces, [0] * len(fam.pieces), r=0.5, d=0,
        partition=False))),
    ("refined", lambda fam, walk: r_multiplicity(fam, 1)),
], ids=["pullback", "multiplicity", "neighbourhood", "disjointness",
        "refined-multiplicity"])
def test_inverting_calls_leave_the_family_as_it_was(walk9, which, call):
    # a first call on one twin makes the imports and what the space caches
    # for itself (its scipy graph, its margins); a second twin is traced
    call(_twin(walk9[which]), walk9["walk"])
    family = _twin(walk9[which])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call(family, walk9["walk"])
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # one kept inversion holds 8 bytes per point and per entry, 82 kB on
    # the mesh cover and 195 kB on the others; a few kB of numpy's and
    # the interpreter's own state may stay
    assert kept < 16 * 1024


def _python_bytes(snapshot) -> int:
    """Traced bytes of Python objects (domain 0: no array buffers)."""
    traces = snapshot.filter_traces([tracemalloc.DomainFilter(True, 0)]).traces
    return sum(t.size for t in traces)


def test_refinement_keeps_no_string_per_piece(walk9):
    pulled = walk9["pulled"]
    refine_connected(pulled, 2.0, verify=False)
    gc.collect()
    tracemalloc.start()
    try:
        before = _python_bytes(tracemalloc.take_snapshot())
        out = refine_connected(pulled, 2.0, verify=False)
        gc.collect()
        kept = _python_bytes(tracemalloc.take_snapshot()) - before
    finally:
        tracemalloc.stop()
    # a list of labels would hold a str object (49 bytes at least) and a
    # list slot per piece
    assert len(out.pieces) > 3000
    assert kept < len(out.pieces) * sys.getsizeof("")
    assert out.labels == walk9["refined"].labels

"""The hd cover on the image product against the whole product window.

``hd_cover_pipeline`` builds only the snapped tuples of the l1 product
window; ``object_oracles.full_product_pipeline`` builds every tuple of it.
The pulled decomposition, its claim and provenance, and the map's measured
Lipschitz constant and fibers must be identical, and the image product
must be the window's induced subgraph on the image.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from coarselab import constructions, covers, spaces
from coarselab.constructions import hd_cover_pipeline
from coarselab.errors import DomainError
from object_oracles import full_product_pipeline


@pytest.mark.parametrize("radius,r", [(3.5, 1.0), (3.5, 2.0), (5.0, 1.0),
                                      (5.0, 2.0)])
def test_pipeline_matches_the_full_window(radius, r):
    got = hd_cover_pipeline(3, radius, r)
    want = full_product_pipeline(radius, r)
    dg, dw = got["decomposition"], want["decomposition"]
    assert dg.pieces.ptr.tolist() == dw.pieces.ptr.tolist()
    assert dg.pieces.pts.tolist() == dw.pieces.pts.tolist()
    assert dg.colors == dw.colors
    assert (dg.r, dg.d, dg.partition) == (dw.r, dw.d, dw.partition)
    assert dg.provenance == dw.provenance
    mg, mw = got["map"], want["map"]
    assert mg.measured_lipschitz == mw.measured_lipschitz
    assert mg.measured_max_fiber == mw.measured_max_fiber

    # the image product is the window's induced subgraph on the image
    image, full = got["product"], want["product"]
    rows = np.unique(mw.assignment)
    assert image.n == len(rows) < full.n
    assert image._codes.tolist() == full._codes[rows].tolist()
    assert [rows[i] for i in mg.assignment] == mw.assignment
    back = np.full(full.n, -1)
    back[rows] = np.arange(len(rows))
    for i, j in enumerate(rows.tolist()):
        nbrs = back[full.indices[full.indptr[j]:full.indptr[j + 1]]]
        assert image.indices[image.indptr[i]:image.indptr[i + 1]].tolist() == \
            sorted(nbrs[nbrs >= 0].tolist())

    # every window piece keeps its id, restricted to the image
    pg, pw = got["product_decomposition"], want["product_decomposition"]
    assert pg.provenance == pw.provenance
    assert pg.colors == pw.colors and pg.r == pw.r
    assert len(pg.pieces) == len(pw.pieces)
    for a, b in zip(pg.pieces, pw.pieces):
        assert {int(rows[i]) for i in a} == b & set(rows.tolist())


def test_missing_tuple_named_as_by_the_full_window():
    with pytest.raises(DomainError) as full:
        full_product_pipeline(3.5, 1.0, snap_slack=0.0)
    msg = "image tuple (18, 18) outside the product window"
    assert str(full.value) == msg
    with pytest.raises(DomainError, match=re.escape(msg)):
        hd_cover_pipeline(3, 3.5, 1.0, snap_slack=0.0)


def test_benchmark_window_builds_no_product(monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("build_product called")

    for module in (spaces, constructions, covers):
        monkeypatch.setattr(module, "build_product", refuse, raising=False)
    art = hd_cover_pipeline(3, 7.0, 1.0)
    emb = art["map"]
    assert art["product"] is emb.target
    assert emb.target.n == len(set(emb.assignment)) == 4812
    assert emb.measured_lipschitz == 11.373155609760143
    assert len(art["product_decomposition"].pieces) == 1414

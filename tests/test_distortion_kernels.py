"""Oracles for the distortion profile's kernels.

The buckets are filled from one stable grouping of the samples by
``searchsorted`` bucket, and compared with ``==`` on floats against one
mask per bucket, on samples placed exactly on bucket edges, below the
lowest edge and at or above the highest.  The sampler's first occurrences
come from one sort of the keys and a stable sort of the keys that repeat,
and are compared with ``np.unique``'s first indices and, through
``_sample_pairs``, with the one-draw-at-a-time loop on small windows whose
cap is close to every pair, so most draws repeat.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import analysis
from coarselab.constructions import tree_walk
from object_oracles import (buckets_oracle, first_occurrences_oracle,
                            sample_pairs_oracle)

finite = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def bucket_samples(draw):
    lo = draw(st.floats(1e-9, 10.0))
    ratio = draw(st.floats(1.0 + 1e-6, 1e6))
    edges = np.geomspace(lo, lo * ratio, draw(st.integers(2, 24)))
    edges = np.unique(edges)  # geomspace may round two edges together
    on_edge = st.sampled_from(edges.tolist())
    below = st.floats(0.0, float(edges[0]), exclude_max=True)
    inside = st.floats(float(edges[0]), float(edges[-1]))
    above = st.floats(float(edges[-1]), float(edges[-1]) * 2)
    ds = draw(st.lists(st.one_of(on_edge, below, inside, above), max_size=200))
    dt = draw(st.lists(finite, min_size=len(ds), max_size=len(ds)))
    return edges, np.array(ds, dtype=float), np.array(dt, dtype=float)


@settings(max_examples=300, deadline=None)
@given(bucket_samples())
def test_buckets_match_one_mask_per_bucket(sample):
    edges, ds, dt = sample
    assert analysis._buckets(edges, ds, dt) == buckets_oracle(edges, ds, dt)


def test_buckets_take_each_edge_as_their_lower_end():
    edges = np.array([1.0, 2.0, 4.0, 8.0])
    ds = np.array([0.5, 1.0, 2.0, 2.0, 3.9, 4.0, 8.0, 9.0])
    dt = np.arange(8.0)
    assert analysis._buckets(edges, ds, dt) == [
        (1.0, 2.0, 1.0, 1.0, 1.0), (2.0, 4.0, 2.0, 3.0, 4.0),
        (4.0, 8.0, 5.0, 5.0, 5.0)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=300),
       st.sampled_from([np.uint64, np.int64]))
def test_first_occurrences_match_unique(values, dtype):
    key = np.array(values, dtype=dtype)
    assert analysis._first_occurrences(key).tolist() == \
        first_occurrences_oracle(key).tolist()


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 30), st.integers(0, 5), st.integers(0, 2 ** 32))
def test_heavily_repeated_samples_match_the_draw_loop(n, short, seed):
    # a cap of all but a few pairs: most draws repeat an earlier pair
    cap = max(1, n * (n - 1) // 2 - 1 - short)
    a, b = analysis._sample_pairs(n, cap, seed, None)
    ea, eb = sample_pairs_oracle(n, cap, seed)
    assert a.tolist() == ea.tolist() and b.tolist() == eb.tolist()


def test_walk_profiles_match_the_masks(monkeypatch):
    walk = tree_walk(6)
    kws = ({"seed": 2}, {"anchored": walk.source.n // 2})
    got = [analysis.distortion_profile(walk, **kw) for kw in kws]
    monkeypatch.setattr(analysis, "_buckets", buckets_oracle)
    for prof, kw in zip(got, kws):
        want = analysis.distortion_profile(walk, **kw)
        assert prof.buckets == want.buckets and len(want.buckets) > 5

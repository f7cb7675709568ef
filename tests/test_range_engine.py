"""Oracles for the batched model-metric range-query engine of h2/hd nets.

Every engine result is compared with brute force over all net points: CSR
neighbourhoods with the dense matrix of exact ``distances`` (bit-identical
to the object oracle ``point_distance``), net edges with ``edges_brute``,
and nearest points with an argmin under the engine's ``(round(d, 12),
index)`` key, the query first in each distance.  The exact test
``_within`` decides its tie band once per distinct (t, radius) value; it
is compared with the scalar ``_acosh1p`` entry by entry.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import spaces
from coarselab.errors import CoarselabError, UnsupportedError
from coarselab.spaces import generate_net
from object_oracles import _acosh1p, edges_brute, point_distance, query_point

NETS = {
    "h2-ball": ("h2", {"kind": "ball", "radius": 4.5}, 0.8, 1.6),
    "hd-ball": ("hd", {"kind": "ball", "radius": 3.0, "d": 3}, 0.6, None),
    "hd-birad": ("hd", {"kind": "birad", "radius": 4.0, "d": 3}, 0.5, 1.0),
}
_cache: dict = {}


def net_and_distances(name):
    """The named net and its dense model-distance matrix, built once."""
    if name not in _cache:
        model, window, sep, thr = NETS[name]
        net = generate_net(model, window, sep=sep, edge_threshold=thr)
        pairs = np.divmod(np.arange(net.n * net.n), net.n)
        _cache[name] = (net, net.distances(*pairs).reshape(net.n, net.n))
    return _cache[name]


def brute_rows(net, dist, radius):
    """Rows of ``dist <= radius``."""
    return [np.nonzero(row)[0].tolist() for row in dist <= radius]


def csr_rows(indptr, indices):
    return [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]


def brute_nearest(net, coords, y, pts=None):
    """Nearest net point to the query (coords; y) under the key
    ``(round(d, 12), index)``, the query first in each distance; ``pts``
    is the net's points as a list."""
    q = query_point(net.model, coords, y)
    pts = list(net.points) if pts is None else pts
    return min(range(net.n),
               key=lambda c: (round(point_distance(q, pts[c]), 12), c))


radius_choice = st.one_of(
    st.floats(0.0, 2.5),
    # below the net spacing: every ball holds only its centre
    st.floats(0.0, 0.49),
    # exactly a pairwise distance: the boundary case of the exact test
    st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
)


class TestNeighbourhoodOracle:
    @pytest.mark.parametrize("name", sorted(NETS))
    @given(choice=radius_choice)
    @settings(max_examples=25, deadline=None)
    def test_rows_match_brute_force(self, name, choice):
        net, dist = net_and_distances(name)
        if isinstance(choice, tuple):
            i, j = choice[0] % net.n, choice[1] % net.n
            radius = point_distance(net.points[i], net.points[j])
        else:
            radius = choice
        got = csr_rows(*net.neighbors(range(net.n), radius))
        assert got == brute_rows(net, dist, radius)

    @pytest.mark.parametrize("name", sorted(NETS))
    def test_radius_below_sep_is_the_centre(self, name):
        net, _ = net_and_distances(name)
        indptr, indices = net.neighbors(range(net.n), 0.99 * net.sep)
        assert np.array_equal(indices, np.arange(net.n))
        assert np.array_equal(indptr, np.arange(net.n + 1))

    @pytest.mark.parametrize("name", sorted(NETS))
    @given(seed=st.integers(0, 2**32 - 1), radius=st.floats(0.1, 2.5))
    @settings(max_examples=15, deadline=None)
    def test_arbitrary_query_points(self, name, seed, radius):
        net, _ = net_and_distances(name)
        rng = np.random.default_rng(seed)
        dim = 1 if net.model == "h2" else 2
        qx = rng.uniform(-3.0, 3.0, size=(20, dim))
        qy = np.exp(rng.uniform(-3.0, 3.0, size=20))
        got = csr_rows(*net.coords_within(qx, qy, radius))
        pts = list(net.points)
        for row, coords, y in zip(got, qx.tolist(), qy.tolist()):
            q = query_point(net.model, coords, y)
            assert row == [c for c in range(net.n)
                           if point_distance(q, pts[c]) <= radius]

    def test_empty_queries(self):
        net, _ = net_and_distances("hd-ball")
        for indptr, indices in (net.neighbors([], 1.0),
                                net.coords_within(np.zeros((0, 2)), [], 1.0)):
            assert indptr.tolist() == [0] and len(indices) == 0
        assert len(net.nearest_points(np.zeros((0, 2)), [])) == 0

    def test_blocks_partition_the_rows(self, monkeypatch):
        net, dist = net_and_distances("hd-birad")
        monkeypatch.setattr(spaces, "_CANDIDATE_BUDGET", 5000)
        blocks = list(net.neighbor_blocks(range(net.n), 60.0))
        assert len(blocks) > 1
        rows = np.concatenate([b[0] for b in blocks])
        assert rows.tolist() == list(range(net.n))
        got = [r for _, p, i in blocks for r in csr_rows(p, i)]
        assert got == brute_rows(net, dist, 60.0)


    def test_pair_at_its_own_distance_is_inside(self):
        # numpy squares x-differences as x*x, point_distance with ``**``;
        # on this net some pair's numpy t exceeds its scalar t by enough to
        # move acosh, so a query at exactly the pair's point_distance kept
        # it out when the band was re-decided on the numpy t
        net = generate_net("hd", {"kind": "birad", "radius": 3.5, "d": 3},
                           sep=0.4, edge_threshold=0.8)
        xs, ys = net._coords()
        i, j = np.triu_indices(net.n, 1)
        t_np = spaces._t_values(xs[i], ys[i], xs[j], ys[j])
        t_exact = spaces._t_exact(True, xs[i], ys[i], xs[j], ys[j])
        flips = [k for k in np.flatnonzero(t_np > t_exact).tolist()
                 if _acosh1p(t_np[k]) > _acosh1p(t_exact[k])]
        assert flips
        for k in flips:
            a, b = int(i[k]), int(j[k])
            d = point_distance(net.points[a], net.points[b])
            indptr, indices = net.neighbors([a, b], d)
            assert b in indices[:indptr[1]] and a in indices[indptr[1]:]


class TestEdgesOracle:
    @pytest.mark.parametrize("name", sorted(NETS))
    def test_edges_match_brute_force(self, name):
        net, _ = net_and_distances(name)
        indptr, indices = edges_brute(list(net.points),
                                      net.edge_threshold + 1e-12)
        assert net.indptr.tolist() == indptr.tolist()
        assert net.indices.tolist() == indices.tolist()
        assert net.degree_bound == int(np.diff(indptr).max())


class TestNearestOracle:
    @pytest.mark.parametrize("name", sorted(NETS))
    def test_grid_midpoints_and_far_queries(self, name):
        net, _ = net_and_distances(name)
        h, w = spaces._grid_steps(net.sep)
        dim = 1 if net.model == "h2" else 2
        queries = []
        for k in range(-3, 4):
            yk = math.exp(k * h)
            for j in range(-2, 3):
                # midway between two columns of one layer
                queries.append(((j + 0.5) * w * yk,) + (0.0,) * (dim - 1) + (yk,))
                # midway between two layers, above a column of the lower one
                queries.append((j * w * yk,) + (0.0,) * (dim - 1)
                               + (math.exp((k + 0.5) * h),))
        # on net points, and far outside the window (radius doubling)
        for i in range(0, net.n, 37):
            p = net.points[i]
            queries.append(((p.x,) if dim == 1 else p.xs) + (p.y,))
        queries += [(50.0,) * dim + (1e-4,), (-3.0,) * dim + (1e5,)]
        qx = np.array([q[:-1] for q in queries])
        qy = np.array([q[-1] for q in queries])
        got = net.nearest_points(qx, qy).tolist()
        pts = list(net.points)
        expect = [brute_nearest(net, q[:-1], q[-1], pts) for q in queries]
        assert got == expect

    def test_midway_ties_go_to_the_lower_index(self):
        # (0; e^(h/2)) is h/2 from both (0; 1) and (0; e^h), and farther
        # from every other point
        net, _ = net_and_distances("h2-ball")
        h, _ = spaces._grid_steps(net.sep)
        a = net.index_of(spaces.HalfPlane(0.0, 1.0))
        b = net.index_of(spaces.HalfPlane(0.0, math.exp(h)))
        got = int(net.nearest_points([[0.0]], [math.exp(h / 2)])[0])
        assert got == min(a, b) == brute_nearest(net, (0.0,), math.exp(h / 2))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_queries(self, seed):
        net, _ = net_and_distances("hd-birad")
        rng = np.random.default_rng(seed)
        qx = rng.uniform(-4.0, 4.0, size=(15, 2))
        qy = np.exp(rng.uniform(-4.0, 4.0, size=15))
        got = net.nearest_points(qx, qy).tolist()
        pts = list(net.points)
        assert got == [brute_nearest(net, tuple(c), y, pts)
                       for c, y in zip(qx.tolist(), qy.tolist())]


class TestUnsupportedDimension:
    @pytest.mark.parametrize("d", [1, 4, 5])
    def test_rejected_before_any_work(self, d):
        # radius 1000 overflows cosh: any attempt to build would raise else
        with pytest.raises(UnsupportedError, match=f"d={d}"):
            generate_net("hd", {"kind": "ball", "radius": 1000.0, "d": d})
        assert issubclass(UnsupportedError, CoarselabError)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 3),
                          st.integers(0, 2)), min_size=1, max_size=60),
       st.booleans())
def test_within_matches_the_scalar_test(entries, exact):
    # t values a few ulps either side of cosh(r) - 1, drawn with repeats
    radii = [0.8, 1.6, 2.0, 4.5, 9.25]
    r = np.array([radii[i] for i, _, _ in entries])
    base = np.cosh(r) - 1.0
    t = base.copy()
    for k, (_, ulps, _) in enumerate(entries):
        for _ in range(abs(ulps)):
            t[k] = np.nextafter(t[k], math.copysign(math.inf, ulps))
    t += np.array([(0.0, 1e-3, -1e-12)[j] for _, _, j in entries]) * base
    scalar = t * (1 + 1e-15) if exact else t
    want = [_acosh1p(v) <= rad for v, rad in zip(scalar.tolist(), r.tolist())]
    got = spaces._within(t, r, (lambda b: scalar[b]) if exact else None)
    assert got.tolist() == want

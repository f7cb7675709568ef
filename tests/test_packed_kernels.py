"""Oracles for the packed t3 word codes and the linear stable grouping.

Both t3 distance kernels read one uint64 code per 32 letters
(``spaces._pack_words``); they are checked against ``point_distance`` on
random reduced words of 0 to 70 letters (one to three code rows), with
exact ties at the row boundaries.  ``spaces._group`` is checked against a
stable argsort, with one and two radix passes.  ``MapRecord.image`` is
the assignment as a read-only array.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import spaces
from coarselab.constructions import MapRecord
from coarselab.spaces import TreeAddress, generate_net
from object_oracles import point_distance


def word_matrix(words: list[tuple[int, ...]], width: int = 0):
    """Padded int8 word matrix (with at least one all-padding column) and
    depths, as the t3 nets hold them."""
    depth = np.array([len(w) for w in words], dtype=np.int64)
    width = max(width, int(depth.max(initial=0)) + 1)
    mat = np.full((len(words), width), -1, dtype=np.int8)
    for i, w in enumerate(words):
        mat[i, :len(w)] = w
    return mat, depth


def reduced_word(rng, length: int, start: tuple[int, ...] = ()) -> tuple[int, ...]:
    w = list(start)
    while len(w) < length:
        w.append(rng.choice([a for a in (0, 1, 2) if not w or a != w[-1]]))
    return tuple(w)


def check_kernels(words: list[tuple[int, ...]], width: int = 0) -> None:
    mat, depth = word_matrix(words, width)
    codes = spaces._pack_words(mat)
    assert codes.shape == (-(-mat.shape[1] // 32), len(words))
    scalar = spaces._tree_distance(codes, depth)
    n = len(words)
    a, b = np.divmod(np.arange(n * n), n)
    got = spaces._tree_kernel(codes, depth)(a, b)
    want = [point_distance(TreeAddress(words[i]), TreeAddress(words[j]))
            for i, j in zip(a.tolist(), b.tolist())]
    assert got.tolist() == want
    assert [scalar(i, j) for i, j in zip(a.tolist(), b.tolist())] == want


def test_codes_put_the_first_letter_highest():
    mat, _ = word_matrix([(), (2,), (0, 1), (1, 0, 2)])
    assert spaces._pack_words(mat)[0].tolist() == [
        2 ** 64 - 1, 2 ** 62 * 2 + 2 ** 62 - 1, 2 ** 60 * 1 + 2 ** 60 - 1,
        2 ** 62 * 1 + 2 ** 58 * 2 + 2 ** 58 - 1]


@pytest.mark.parametrize("seed", range(4))
def test_random_words_of_one_to_three_rows(seed):
    rng = np.random.default_rng(seed)
    words = [reduced_word(rng, int(k)) for k in rng.integers(0, 71, 40)]
    check_kernels(words)


@pytest.mark.parametrize("k", [31, 32, 33, 64])
def test_exact_ties_at_row_boundaries(k):
    # words sharing exactly k letters, k-letter prefixes of longer words,
    # equal words, and depths on both sides of k
    rng = np.random.default_rng(k)
    base = reduced_word(rng, 70)
    words = [base, base[:k], base[:k - 1], base[:k + 1]]
    for extra in (1, 2, 6, 70 - k):
        other = next(a for a in (0, 1, 2) if a not in (base[k - 1], base[k]))
        words.append(reduced_word(rng, k + extra, base[:k] + (other,)))
    words += [base[:k], base]  # repeats: distance 0 between distinct rows
    check_kernels(words)
    check_kernels(words, width=96)  # an extra all-padding code row


def test_codes_that_differ_in_every_bit():
    # 1 = 01 against 2 = 10 at every letter: XORs of all ones, which a
    # float of the whole 64-bit word would round up to the next power of 2
    words = [(), (0,), (1,), (2,)]
    for k in (26, 27, 31, 32, 33, 53, 64, 70):
        words += [tuple(1 + i % 2 for i in range(k)),
                  tuple(2 - i % 2 for i in range(k))]
    check_kernels(words)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_packed_kernels_match_point_distance(data):
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    lengths = data.draw(st.lists(st.integers(0, 70), min_size=1, max_size=8))
    rng = np.random.default_rng(seed)
    words = [reduced_word(rng, k) for k in lengths]
    # pairs sharing long prefixes: extend a prefix of the first word
    cut = data.draw(st.integers(0, len(words[0])))
    words.append(reduced_word(rng, data.draw(st.integers(cut, 70)),
                              words[0][:cut]))
    check_kernels(words)


def test_net_and_walk_kernels_agree_with_points():
    for space in (generate_net("t3", {"radius": 4}, sep=2.0, edge_threshold=3.0),
                  generate_net("t3", {"radius": 6})):
        pts = list(space.points)
        a, b = np.divmod(np.arange(space.n ** 2), space.n)
        want = [point_distance(pts[i], pts[j])
                for i, j in zip(a.tolist(), b.tolist())]
        assert space.distances(a, b).tolist() == want
        assert list(map(space.model_distance, a.tolist(), b.tolist())) == want
    with pytest.raises(IndexError):
        space.model_distance(space.n, 0)


# -- the linear stable grouping -----------------------------------------------


def group_oracle(keys, values, nkeys):
    keys = np.asarray(keys, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    indptr = np.zeros(nkeys + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=nkeys), out=indptr[1:])
    return indptr, np.asarray(values)[order]


def check_group(keys, values, nkeys):
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    indptr, grouped = spaces._group(keys, values, nkeys)
    want_ptr, want = group_oracle(keys, values, nkeys)
    assert indptr.dtype == np.int64 and grouped.dtype == np.int64
    assert indptr.tolist() == want_ptr.tolist()
    assert grouped.tolist() == want.tolist()


@pytest.mark.parametrize("m,nkeys", [(1000, 7), (5000, 4000), (20000, 30),
                                     (20000, 200_000), (3000, 2 ** 16 + 1)])
def test_group_matches_stable_argsort(m, nkeys):
    rng = np.random.default_rng(m + nkeys)
    check_group(rng.integers(0, nkeys, m), rng.integers(-10 ** 12, 10 ** 12, m),
                nkeys)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_group_edge_cases(data):
    # one radix pass below 2**16 keys, two above
    nkeys = data.draw(st.one_of(st.integers(0, 6), st.integers(2 ** 16 - 2, 2 ** 16 + 2),
                                st.just(200_000)))
    if nkeys == 0:
        keys = []
    else:
        # few distinct ids, so most ids never occur or all keys are equal
        used = data.draw(st.lists(st.integers(max(0, nkeys - 5), nkeys - 1)
                                  | st.integers(0, nkeys - 1), min_size=1,
                                  max_size=3))
        keys = data.draw(st.lists(st.sampled_from(used), max_size=30))
    values = data.draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                                min_size=len(keys), max_size=len(keys)))
    check_group(keys, values, nkeys)


# -- the map record's image ---------------------------------------------------


def test_map_record_image_is_the_read_only_assignment():
    z = generate_net("z", {"lo": -3, "hi": 3})
    assignment = [0, 0, 1, 2, 2, 3, 6]
    rec = MapRecord(source=z, target=z, assignment=assignment)
    assert rec.image.dtype == np.int64
    assert rec.image.tolist() == rec.assignment == assignment
    assert not rec.image.flags.writeable
    with pytest.raises(ValueError):
        rec.image[0] = 1

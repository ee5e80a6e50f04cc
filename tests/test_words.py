"""Word enumeration and the code order of depth-r words."""

import itertools

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from hypifs.words import enumerate_words


def test_encode_first_symbol_most_significant():
    arr = enumerate_words(2, 3)
    assert tuple(arr[0]) == (1, 1, 1)
    assert tuple(arr[4]) == (2, 1, 1)
    assert tuple(arr[1]) == (1, 1, 2)


@given(st.integers(2, 4), st.integers(1, 6))
def test_encode_decode_round_trip(m, depth):
    arr = enumerate_words(m, depth)
    codes = np.zeros(len(arr), dtype=np.int64)
    for pos in range(depth):
        codes = codes * m + (arr[:, pos] - 1)
    assert np.array_equal(codes, np.arange(m ** depth))


def test_neighbors_prepend_symbol():
    # prepending i to word k and dropping its last symbol gives code
    # (i - 1) m^(r-1) + k // m: the index arithmetic of the transfer operator
    m, depth = 3, 3
    arr = enumerate_words(m, depth)
    for k, w in enumerate(arr):
        for i in range(1, m + 1):
            nb = (i - 1) * m ** (depth - 1) + k // m
            assert tuple(arr[nb]) == (i,) + tuple(w[:-1])


def test_enumerate_words_matches_product_order():
    for m, depth in [(2, 1), (2, 5), (3, 3), (4, 2)]:
        arr = enumerate_words(m, depth)
        expect = list(itertools.product(range(1, m + 1), repeat=depth))
        assert arr.shape == (m ** depth, depth)
        assert [tuple(row) for row in arr.tolist()] == expect

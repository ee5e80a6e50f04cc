"""Symbol words and cylinder index spaces."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypifs.words import (CylinderIndex, SymbolWord, common_prefix,
                          enumerate_words, word)


def test_word_validation():
    with pytest.raises(ValueError):
        SymbolWord((0, 1), 2)
    with pytest.raises(ValueError):
        SymbolWord((3,), 2)
    assert str(word([1, 2, 1], 2)) == "121"
    assert len(word([], 2)) == 0


def test_common_prefix():
    u = word([1, 2, 2, 1], 2)
    v = word([1, 2, 1, 1], 2)
    assert common_prefix(u, v).symbols == (1, 2)
    assert len(common_prefix(word([2], 2), word([1], 2))) == 0
    with pytest.raises(ValueError):
        common_prefix(word([1], 2), word([1], 3))


def test_encode_first_symbol_most_significant():
    idx = CylinderIndex(3, 2)
    assert idx.encode(word([1, 1, 1], 2)) == 0
    assert idx.encode(word([2, 1, 1], 2)) == 4
    assert idx.encode(word([1, 1, 2], 2)) == 1


@given(st.integers(2, 4), st.integers(1, 6), st.data())
def test_encode_decode_round_trip(m, depth, data):
    idx = CylinderIndex(depth, m)
    code = data.draw(st.integers(0, idx.count - 1))
    assert idx.encode(idx.decode(code)) == code


def test_decode_range_check():
    idx = CylinderIndex(2, 2)
    with pytest.raises(ValueError):
        idx.decode(4)
    with pytest.raises(ValueError):
        idx.decode(-1)


def test_size_cap():
    with pytest.raises(ValueError):
        CylinderIndex(40, 3)


def test_neighbors_prepend_symbol():
    idx = CylinderIndex(3, 2)
    w = word([2, 1, 2], 2)
    code = idx.encode(w)
    for i, nb in idx.neighbors(code):
        expect = word((i,) + w.symbols[:-1], 2)
        assert nb == idx.encode(expect)


def test_enumerate_words_matches_decode():
    idx = CylinderIndex(3, 3)
    arr = enumerate_words(3, 3)
    assert arr.shape == (27, 3)
    for code in (0, 5, 13, 26):
        assert tuple(arr[code]) == idx.decode(code).symbols
    assert arr.min() == 1 and arr.max() == 3
    assert np.all(arr[0] == 1)

"""Enumeration of finite symbol words."""

from __future__ import annotations

import numpy as np


def enumerate_words(m: int, depth: int) -> np.ndarray:
    """All depth-`depth` words as an (m^depth, depth) array of symbols,
    row k being the word with code k.

    Symbols run over 1..m.  The code of a word is its base-m value with
    symbol 1 as digit 0 and the first symbol most significant, so the
    successor structure is integer arithmetic: prepending symbol i to the
    word with code k and dropping its last symbol gives code
    (i - 1) m^(depth-1) + k // m.  Potential tables, transfer spectra and
    cylinder measures are indexed by these codes.
    """
    count = m ** depth
    codes = np.arange(count)
    out = np.empty((count, depth), dtype=np.int64)
    for pos in range(depth - 1, -1, -1):
        codes, digits = np.divmod(codes, m)
        out[:, pos] = digits + 1
    return out

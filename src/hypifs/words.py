"""Finite symbol words and depth-r cylinder index spaces.

Symbols run over 1..m.  A depth-r word is encoded base-m with symbol 1
mapped to digit 0 and the first symbol most significant, so that the
successor structure (prepend a symbol, drop the last one) is plain
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SymbolWord:
    symbols: tuple
    alphabet_size: int

    def __post_init__(self):
        if self.alphabet_size < 1:
            raise ValueError("alphabet size must be positive")
        for s in self.symbols:
            if not 1 <= s <= self.alphabet_size:
                raise ValueError(f"symbol {s} outside 1..{self.alphabet_size}")

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __str__(self):
        return "".join(str(s) for s in self.symbols)


def word(symbols, m) -> SymbolWord:
    return SymbolWord(tuple(symbols), m)


def common_prefix(u: SymbolWord, v: SymbolWord) -> SymbolWord:
    """Longest common prefix of two words over the same alphabet."""
    if u.alphabet_size != v.alphabet_size:
        raise ValueError("words over different alphabets")
    k = 0
    for a, b in zip(u.symbols, v.symbols):
        if a != b:
            break
        k += 1
    return SymbolWord(u.symbols[:k], u.alphabet_size)


@dataclass(frozen=True)
class CylinderIndex:
    """Bijection between depth-r words and integers in [0, m^r)."""

    depth: int
    alphabet_size: int

    MAX_COUNT = 1 << 20  # memory cap for dense spectra

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be positive")
        if self.count > self.MAX_COUNT:
            raise ValueError(
                f"m^r = {self.count} exceeds cap {self.MAX_COUNT}")

    @property
    def count(self) -> int:
        return self.alphabet_size ** self.depth

    def encode(self, w: SymbolWord) -> int:
        if len(w) != self.depth or w.alphabet_size != self.alphabet_size:
            raise ValueError("word does not match index space")
        code = 0
        for s in w.symbols:
            code = code * self.alphabet_size + (s - 1)
        return code

    def decode(self, code: int) -> SymbolWord:
        if not 0 <= code < self.count:
            raise ValueError(f"word-id {code} out of range")
        syms = []
        for _ in range(self.depth):
            code, d = divmod(code, self.alphabet_size)
            syms.append(d + 1)
        return SymbolWord(tuple(reversed(syms)), self.alphabet_size)

    def neighbors(self, code: int):
        """One-symbol extensions: [(i, id of (i.w)|_r) for i in 1..m]."""
        if not 0 <= code < self.count:
            raise ValueError(f"word-id {code} out of range")
        m = self.alphabet_size
        tail = code // m
        base = m ** (self.depth - 1)
        return [(i, (i - 1) * base + tail) for i in range(1, m + 1)]


def enumerate_words(m: int, depth: int) -> np.ndarray:
    """All depth-`depth` words as an (m^depth, depth) array of symbols,
    row k being the word with code k."""
    count = m ** depth
    codes = np.arange(count)
    out = np.empty((count, depth), dtype=np.int64)
    for pos in range(depth - 1, -1, -1):
        codes, digits = np.divmod(codes, m)
        out[:, pos] = digits + 1
    return out

"""The reference unit: a fixed piece of numpy/scipy work timed in slices
between the workload's operations.

Its mix mirrors what hypifs spends time on (a scalar Python loop with
small numpy calls, masked array updates over word columns, a sparse
mat-vec power step) so that a machine that slows down slows both alike.
It never imports hypifs, and its inputs are fixed, not seeded: one unit
is the same work in every run and on every commit.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

SMALL_N = 4096  # word-table size of a depth-12 binary problem
LARGE_N = 1 << 14  # depth 14, as at the top of the e2-bowen ladder
SMALL_DEPTH = 8
LARGE_DEPTH = 2
UNIT_SCALAR_STEPS = 640
UNIT_MATVECS = 8
MIN_UNITS_PER_SLICE = 3


class ReferenceUnit:
    def __init__(self):
        rng = np.random.default_rng(20210707)
        self.coeffs = np.array([0.25, 0.5, -0.125])
        self.small = self._arrays(rng, SMALL_N, SMALL_DEPTH)
        self.large = self._arrays(rng, LARGE_N, LARGE_DEPTH)
        self.durations = []  # seconds per unit, every unit ever run

    @staticmethod
    def _arrays(rng, n, depth):
        x0 = rng.random(n)
        symbols = rng.integers(0, 2, size=(depth, n))
        idx = np.arange(n)
        matrix = sp.csr_matrix((rng.random(2 * n) + 0.5,
                                (np.concatenate([idx, idx]),
                                 np.concatenate([idx // 2, n // 2 + idx // 2]))),
                               shape=(n, n))
        return x0, symbols, matrix

    @staticmethod
    def _masked_and_sparse(x0, symbols, matrix, matvecs):
        y = x0.copy()
        for row in symbols:
            for j in (0, 1):
                mask = row == j
                y[mask] = 0.5 * y[mask] + 0.25 * j
        v = x0
        for _ in range(matvecs):
            v = matrix @ v
            v = v / v.max()
        return float(y.sum()) + float(v.sum())

    def run_unit(self) -> float:
        """One unit: a scalar loop of small numpy calls, then masked
        updates and sparse mat-vecs on a cache-resident (4096) and on a
        larger (32768) working set."""
        x = 0.3
        for _ in range(UNIT_SCALAR_STEPS):
            x = 0.9 * float(np.polynomial.polynomial.polyval(x, self.coeffs)) + 0.05
        return (x + self._masked_and_sparse(*self.small, UNIT_MATVECS)
                + self._masked_and_sparse(*self.large, 1))

    def slice(self, target_s: float):
        """Run whole units for about `target_s` seconds (at least
        MIN_UNITS_PER_SLICE), recording each unit's duration."""
        start = now = time.perf_counter()
        count = 0
        while count < MIN_UNITS_PER_SLICE or now - start < target_s:
            t0 = now
            self.run_unit()
            now = time.perf_counter()
            self.durations.append(now - t0)
            count += 1

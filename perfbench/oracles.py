"""Independent references for the output checks.  Nothing here imports
hypifs: each value is computed by another method than the program's."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Hausdorff dimension of E_2, the continued-fraction Cantor set with
# digits {1, 2}: 0.5312805062772051416... (Jenkinson & Pollicott,
# "Rigorous effective bounds on the Hausdorff dimension of continued
# fraction Cantor sets", Adv. Math. 2018).
E2_DIMENSION = 0.5312805062772051416
CANTOR_DIMENSION = math.log(2.0) / math.log(3.0)


def digits(err: float, cap: float = 16.0) -> float:
    """-log10 |err|, capped at `cap` (16 for double precision)."""
    return cap if err <= 10.0 ** -cap else min(cap, -math.log10(err))


def _chebyshev_nodes(n):
    k = np.arange(n)
    return 0.5 + 0.5 * np.cos(np.pi * (2 * k + 1) / (2 * n))  # on [0, 1]


def _interpolation_matrix(nodes, pts):
    """Rows give the barycentric Chebyshev interpolant at `pts`."""
    n = len(nodes)
    k = np.arange(n)
    w = (-1.0) ** k * np.sin(np.pi * (2 * k + 1) / (2 * n))
    d = pts[:, None] - nodes[None, :]
    hit = d == 0.0
    d[hit] = 1.0
    c = w[None, :] / d
    out = c / c.sum(axis=1, keepdims=True)
    rows = hit.any(axis=1)
    out[rows] = hit[rows].astype(float)
    return out


def blackwell_ratio(eps: float, p: float, nodes: int = 48) -> float:
    """h/chi of the Blackwell measure of the binary symmetric channel with
    crossover eps and Markov flip probability p, by Chebyshev collocation
    of the Markov operator (Tg)(x) = sum_j p_j(x) g(S_j x).

    The stationary measure nu is the limit of T^k g -> (int g dnu) 1, so
    h = int -sum_j p_j log p_j dnu and chi = int -sum_j p_j log|S_j'| dnu.
    The maps are Moebius, so the error decays exponentially in `nodes`.
    """
    x = _chebyshev_nodes(nodes)
    # P(next output 0 | belief x) and the two belief updates
    q0 = (1 - eps) * (x * (1 - p) + (1 - x) * p) + eps * (x * p + (1 - x) * (1 - p))
    q1 = 1.0 - q0
    pred = x * (1 - p) + (1 - x) * p  # P(next state 0 | belief x)
    dpred = 1 - 2 * p
    dq0 = (1 - 2 * eps) * dpred
    s0 = (1 - eps) * pred / q0
    s1 = eps * pred / q1
    ds0 = (1 - eps) * (dpred * q0 - pred * dq0) / q0 ** 2
    ds1 = eps * (dpred * q1 + pred * dq0) / q1 ** 2
    T = q0[:, None] * _interpolation_matrix(x, s0) + \
        q1[:, None] * _interpolation_matrix(x, s1)
    g = np.stack([-(q0 * np.log(q0) + q1 * np.log(q1)),
                  -(q0 * np.log(np.abs(ds0)) + q1 * np.log(np.abs(ds1)))], axis=1)
    for _ in range(10000):
        g_next = T @ g
        if np.max(np.abs(g_next - g)) < 1e-15:
            g = g_next
            break
        g = g_next
    else:
        raise ArithmeticError("collocation iteration did not settle")
    return float(g[:, 0].mean() / g[:, 1].mean())


def similarity_dimension(ratios) -> float:
    """Root of sum r_j^s = 1 by bisection."""
    lo, hi = 0.0, 1.0
    while sum(r ** hi for r in ratios) > 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sum(r ** mid for r in ratios) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def affine_composition(coeffs, word, lam: Fraction, x0: Fraction):
    """Exact (f_u(x0), d/dlam f_u(x0)) for affine maps
    x -> a_j(lam) x + b_j(lam) with polynomial a_j, b_j given as
    ascending coefficient tuples coeffs[j-1] = (a_coeffs, b_coeffs)."""
    def ev(c):
        return sum(Fraction(ci) * lam ** k for k, ci in enumerate(c))

    def dev(c):
        return sum(k * Fraction(ci) * lam ** (k - 1) for k, ci in enumerate(c) if k)

    y, dy = Fraction(x0), Fraction(0)
    for s in reversed(word):
        a, b = coeffs[int(s) - 1]
        y, dy = ev(a) * y + ev(b), dev(a) * y + ev(a) * dy + dev(b)
    return y, dy


def ks_uniform(points) -> float:
    """Kolmogorov-Smirnov distance of the sample to U[0, 1]."""
    xs = np.sort(np.asarray(points, dtype=float))
    n = len(xs)
    i = np.arange(1, n + 1)
    return float(max((i / n - xs).max(), (xs - (i - 1) / n).max()))


def mean_and_error(values, batches: int = 100):
    """Sample mean and its batch-means standard error (the chaos game's
    points are correlated, so the i.i.d. formula would be too small)."""
    v = np.asarray(values, dtype=float)
    usable = len(v) - len(v) % batches
    means = v[:usable].reshape(batches, -1).mean(axis=1)
    return float(v.mean()), float(means.std(ddof=1) / math.sqrt(batches))

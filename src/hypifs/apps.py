"""Application drivers: place-dependent Bernoulli convolutions, the
Blackwell measure of the noisy binary channel, random continued
fractions, and non-homogeneous self-similar systems."""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, log, sqrt

import numpy as np

from .ifs import (AuditFailure, EvaluationError, IfsFamily, RationalMap,
                  bernoulli_psi, moebius_shift, poly, solve_root)
from .thermo import (ConvergenceError, entropy, gibbs_cylinder_measure,
                     log_probability_potential, lyapunov_exponent,
                     transfer_spectrum)

SUPERCRITICAL = "SUPERCRITICAL"
SUBCRITICAL = "SUBCRITICAL"
DEGENERATE = "DEGENERATE"
AUDIT_FAIL = "AUDIT-FAIL"

# transversality interval endpoint for the Bernoulli-convolution family,
# imported from the literature and treated as given
BERNOULLI_TRANSVERSALITY_SUP = 0.6684755

BLACKWELL_HALFWIDTH = 0.02  # half-width of the Blackwell family's p interval

# failures a region cell reports as AUDIT-FAIL; the CLI maps them to exit 2
NUMERICAL_ERRORS = (ConvergenceError, AuditFailure, EvaluationError,
                    ValueError, ZeroDivisionError)


class DegenerateCell(ValueError):
    """The measure at this parameter is degenerate; a region scan reports
    the cell as DEGENERATE."""


@dataclass
class RegionGrid:
    axis_names: tuple
    axis1: np.ndarray
    axis2: np.ndarray
    values: np.ndarray  # shape (n1, n2)
    verdicts: np.ndarray  # object array of strings

    def to_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write(f"{self.axis_names[0]},{self.axis_names[1]},value,verdict\n")
            for i, a in enumerate(self.axis1):
                for j, b in enumerate(self.axis2):
                    fh.write(f"{a:.12g},{b:.12g},{self.values[i, j]:.12g},"
                             f"{self.verdicts[i, j]}\n")


def bernoulli_family(param_interval=(0.5, BERNOULLI_TRANSVERSALITY_SUP)) -> IfsFamily:
    """{lam*x - (1-lam), lam*x + (1-lam)} on [-1, 1]."""
    return IfsFamily((bernoulli_psi(0), bernoulli_psi(1)),
                     domain=(-1.0, 1.0), param_interval=param_interval)


def bernoulli_potential(rho: float):
    """log p_{w_1}(Pi(sigma w)) with p_0 = 1/2 + rho x, p_1 = 1/2 - rho x."""
    if not 0 <= rho < 0.5:
        raise ValueError("rho must lie in [0, 1/2)")

    def p0(lam, x):
        return 0.5 + rho * np.asarray(x, dtype=float)

    def p1(lam, x):
        return 0.5 - rho * np.asarray(x, dtype=float)

    return log_probability_potential([p0, p1])


def bernoulli_moments(lam: float, rho: float, n_max: int) -> np.ndarray:
    """Even moments F_1..F_n of the place-dependent invariant measure by
    the exact recursion; F_0 = 1."""
    if not 0 < lam < 1:
        raise ValueError("lambda must lie in (0, 1)")
    if not 0 <= rho < 0.5:
        raise ValueError("rho must lie in [0, 1/2)")
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    F = np.empty(n_max + 1)
    F[0] = 1.0
    for n in range(1, n_max + 1):
        den = 1.0 + lam ** (2 * n - 1) * (4 * n * rho * (1 - lam) - lam)
        if abs(den) < 1e-12:
            raise ZeroDivisionError(f"singular moment denominator at n={n}")
        total = (1 - lam) ** (2 * n) / den
        for m in range(1, n):
            coef = 2 * m * (1 - lam) ** (2 * n - 2 * m) * lam ** (2 * m - 1) / den
            inner = lam / (2 * m) - 2 * rho * (1 - lam) / (2 * n - 2 * m + 1)
            total += coef * comb(2 * n, 2 * m) * inner * F[m]
        F[n] = total
    return F[1:]


def bernoulli_entropy_bounds(lam: float, rho: float, n_terms: int):
    """(lower, upper) sandwich for the entropy of the place-dependent
    Bernoulli convolution from the moment series."""
    F = bernoulli_moments(lam, rho, n_terms)
    upper = log(2.0)
    for n in range(1, n_terms + 1):
        upper -= (2 * rho) ** (2 * n) / (2 * n * (2 * n - 1)) * F[n - 1]
    tail = (2 * rho) ** (n_terms + 1) / (
        (2 * n_terms + 2) * (2 * n_terms + 1) * (1 - (2 * rho) ** 2))
    return upper - tail, upper


def region_scan(ranges, shape, axis_names, cell_fn, critical: float) -> RegionGrid:
    """Evaluate `cell_fn(a, b)` at every point of the grid axis1 x axis2,
    axis k being shape[k] evenly spaced points of ranges[k].

    Raises ValueError on a shape below 1 x 1.  A cell is SUPERCRITICAL when
    its value exceeds `critical` and SUBCRITICAL otherwise.  A cell whose
    `cell_fn` raises `DegenerateCell` is DEGENERATE and one that raises any
    other of NUMERICAL_ERRORS is AUDIT-FAIL, both with value NaN; every
    other exception propagates.
    """
    if min(shape) < 1:
        raise ValueError(f"region grid shape {shape[0]} x {shape[1]} is below 1 x 1")
    axis1, axis2 = (np.linspace(*rng, n) for rng, n in zip(ranges, shape))
    values = np.full((len(axis1), len(axis2)), math.nan)
    verdicts = np.empty(values.shape, dtype=object)
    for i, a in enumerate(axis1):
        for j, b in enumerate(axis2):
            try:
                val = cell_fn(a, b)
            except NUMERICAL_ERRORS as exc:
                verdicts[i, j] = (DEGENERATE if isinstance(exc, DegenerateCell)
                                  else AUDIT_FAIL)
                continue
            values[i, j] = val
            verdicts[i, j] = SUPERCRITICAL if val > critical else SUBCRITICAL
    return RegionGrid(axis_names, axis1, axis2, values, verdicts)


def bernoulli_region_scan(rho_range, lam_range, shape, n_terms: int = 12) -> RegionGrid:
    """value = entropy lower bound + log(lam); supercritical iff > 0
    (the Lyapunov exponent is -log lam)."""
    if n_terms < 1:
        raise ValueError("moment terms must be positive")

    def cell(rho, lam):
        lower, _ = bernoulli_entropy_bounds(lam, rho, n_terms)
        return lower + log(lam)

    return region_scan((rho_range, lam_range), shape, ("rho", "lambda"), cell, 0.0)


def _blackwell_coeffs(eps: float, sign: int):
    """(n0, n1, d0, d1) polynomial curves in p for the channel map S_sign.

    Numerators/denominators are linear in both x and p:
      S_0 num = (1-eps) [(1-p) + (2p-1) x],  den = p_0(x),
      S_1 num = eps     [(1-p) + (2p-1) x],  den = p_1(x) = 1 - p_0(x),
    with p_0(x) = B + (A-B) x, A = eps + p(1-2eps), B = (1-eps) + p(2eps-1).
    """
    scale = (1 - eps) if sign == 0 else eps
    n0 = poly(scale, -scale)          # scale * (1 - p)
    n1 = poly(-scale, 2 * scale)      # scale * (2p - 1)
    B = poly(1 - eps, 2 * eps - 1)
    AmB = poly(2 * eps - 1, 2 - 4 * eps)
    if sign == 0:
        return n0, n1, B, AmB
    d0 = poly(eps, 1 - 2 * eps)       # 1 - B
    d1 = poly(1 - 2 * eps, 4 * eps - 2)
    return n0, n1, d0, d1


def blackwell_family(eps: float, p: float):
    """IFS {S_0, S_1} on [0, 1] parametrized by the channel bias p, plus
    the place-dependent probability curves (p_0, p_1).

    Returns (family, prob_fns).  At eps = 1/2 the two maps coincide and
    the invariant measure is the Dirac mass at 1/2, and at p = 1/2 both
    maps are constant; `blackwell_cell_value` rejects both.
    """
    if not (0 < eps < 1 and 0 < p < 1):
        raise ValueError("parameters must lie in (0, 1)")
    coeffs = [_blackwell_coeffs(eps, s) for s in (0, 1)]
    lo = max(p - BLACKWELL_HALFWIDTH, 1e-6)
    hi = min(p + BLACKWELL_HALFWIDTH, 1 - 1e-6)
    fam = IfsFamily(tuple(RationalMap(*c) for c in coeffs), domain=(0.0, 1.0),
                    param_interval=(lo, hi))
    B, AmB = coeffs[0][2:]  # p_0(x) = B + (A-B) x, the denominator of S_0

    def p0(lam, x):
        return B(lam) + AmB(lam) * np.asarray(x, dtype=float)

    def p1(lam, x):
        return 1.0 - p0(lam, x)

    return fam, [p0, p1]


def blackwell_cell_value(eps: float, p: float, r: int = 8) -> float:
    """h/chi for the Blackwell Gibbs measure at (eps, p); raises
    `DegenerateCell` at eps = 1/2 or p = 1/2, before any range check."""
    if abs(eps - 0.5) < 1e-9 or abs(p - 0.5) < 1e-9:
        raise DegenerateCell("eps = 1/2 or p = 1/2 is degenerate")
    fam, prob_fns = blackwell_family(eps, p)
    spec = transfer_spectrum(fam, log_probability_potential(prob_fns), p, r)
    h, _ = entropy(spec)
    chi = lyapunov_exponent(fam, p, gibbs_cylinder_measure(spec))
    return h / chi


def blackwell_region_scan(eps_range, p_range, shape, r: int = 8) -> RegionGrid:
    """value = h/chi; supercritical iff > 1."""
    if r < 1:
        raise ValueError("depth must be positive")
    # the name is resolved per cell, so a traced or patched one is called
    return region_scan((eps_range, p_range), shape, ("eps", "p"),
                       lambda eps, p: blackwell_cell_value(eps, p, r), 1.0)


def cf_domain(alpha: float, beta: float):
    """Convex hull of the continued-fraction attractor: endpoints are the
    attracting fixed points of the two maps."""
    lo = (sqrt(alpha ** 2 + 4 * alpha) - alpha) / 2
    hi = (sqrt(beta ** 2 + 4 * beta) - beta) / 2
    return lo, hi


def cf_family(alpha: float, beta: float, lam_halfwidth: float = 0.0) -> IfsFamily:
    """{(x+alpha)/(x+alpha+1), (x+beta+lam)/(x+beta+lam+1)} on X_{alpha,beta}.

    With lam_halfwidth = 0 the family is constant in the parameter; a
    positive halfwidth shifts the second offset for transversality probes.
    A negative one raises ValueError: the second map would leave the domain.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive (parabolic case out of scope)")
    if beta <= alpha:
        raise ValueError("need alpha < beta")
    if not lam_halfwidth >= 0:
        raise ValueError(f"lam_halfwidth must be >= 0, got {lam_halfwidth}")
    dom = cf_domain(alpha, beta + lam_halfwidth)
    c2 = poly(beta, 1.0) if lam_halfwidth > 0 else poly(beta)
    interval = (0.0, lam_halfwidth) if lam_halfwidth > 0 else (-1e-9, 1e-9)
    return IfsFamily((moebius_shift(alpha), moebius_shift(c2)),
                     domain=dom, param_interval=interval)


def cf_overlap(alpha: float, beta: float):
    """(overlapping?, slack) of the printed overlap inequality
    beta + alpha + 4 > 3 (sqrt(beta^2+4beta) + sqrt(alpha^2+4alpha))."""
    if not 0 <= alpha < beta:
        raise ValueError("need 0 <= alpha < beta")
    lhs = beta + alpha + 4.0
    rhs = 3.0 * (sqrt(beta ** 2 + 4 * beta) + sqrt(alpha ** 2 + 4 * alpha))
    return lhs > rhs, lhs - rhs


def similarity_dimension(ratios) -> float:
    """Root of sum r_j^s = 1."""
    ratios = [float(r) for r in ratios]
    if any(not 0 < r < 1 for r in ratios):
        raise ValueError("ratios must lie in (0, 1)")
    if len(ratios) == 1:
        return 0.0

    def g(s):
        return sum(r ** s for r in ratios) - 1.0

    hi = 1.0
    while g(hi) > 0:
        hi *= 2.0
    return solve_root(g, 0.0, hi)

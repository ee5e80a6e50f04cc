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
from .thermo import (CollocationUnresolved, ConvergenceError,
                     collocation_h_chi, entropy, gibbs_cylinder_measure,
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


def region_scan(ranges, shape, axis_names, row_fn, critical: float) -> RegionGrid:
    """Evaluate the grid axis1 x axis2, axis k being shape[k] evenly spaced
    points of ranges[k], one row at a time: `row_fn(a, axis2)` gives the
    outcome of each cell (a, b), its value or the exception it reports.

    Raises ValueError on a shape below 1 x 1.  A cell is SUPERCRITICAL when
    its value exceeds `critical` and SUBCRITICAL otherwise.  A cell that
    reports `DegenerateCell` is DEGENERATE and one that reports any other
    of NUMERICAL_ERRORS is AUDIT-FAIL, both with value NaN; every other
    exception is raised.
    """
    if min(shape) < 1:
        raise ValueError(f"region grid shape {shape[0]} x {shape[1]} is below 1 x 1")
    axis1, axis2 = (np.linspace(*rng, n) for rng, n in zip(ranges, shape))
    values = np.full((len(axis1), len(axis2)), math.nan)
    verdicts = np.empty(values.shape, dtype=object)
    for i, a in enumerate(axis1):
        for j, val in enumerate(row_fn(a, axis2)):
            if not isinstance(val, Exception):
                values[i, j] = val
                verdicts[i, j] = SUPERCRITICAL if val > critical else SUBCRITICAL
            elif isinstance(val, NUMERICAL_ERRORS):
                verdicts[i, j] = DEGENERATE if isinstance(val, DegenerateCell) else AUDIT_FAIL
            else:
                raise val
    return RegionGrid(axis_names, axis1, axis2, values, verdicts)


def _outcome(fn, *args):
    """The outcome of a region cell: `fn(*args)`, or the NUMERICAL_ERRORS it raises."""
    try:
        return fn(*args)
    except NUMERICAL_ERRORS as exc:
        return exc


def bernoulli_region_scan(rho_range, lam_range, shape, n_terms: int = 12) -> RegionGrid:
    """value = entropy lower bound + log(lam); supercritical iff > 0
    (the Lyapunov exponent is -log lam)."""
    if n_terms < 1:
        raise ValueError("moment terms must be positive")

    def cell(rho, lam):
        lower, _ = bernoulli_entropy_bounds(lam, rho, n_terms)
        return lower + log(lam)

    return region_scan((rho_range, lam_range), shape, ("rho", "lambda"),
                       lambda rho, lams: [_outcome(cell, rho, lam) for lam in lams], 0.0)


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
    maps are constant; `blackwell_row_values` reports both as degenerate.
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


def _degenerate(x):
    """eps or p (or an array of p) at 1/2, where the Blackwell measure degenerates."""
    return np.abs(np.subtract(x, 0.5)) < 1e-9


def _blackwell_ratio(fam, pot, p, r, h_chi):
    """h/chi of the cell p of a Blackwell row's `fam` and `pot`, from its collocation
    (h, chi), or from the depth-r cylinder spectrum where that is CollocationUnresolved."""
    if isinstance(h_chi, CollocationUnresolved):
        spec = transfer_spectrum(fam, pot, p, r)
        h_chi = entropy(spec)[0], lyapunov_exponent(fam, p, gibbs_cylinder_measure(spec))
    h, chi = h_chi
    return h / chi


def blackwell_row_values(eps: float, ps, r: int) -> list:
    """The outcome of each Blackwell cell (eps, p), p in the 1-D array `ps`:
    h/chi, or the exception it reports, in this order: `DegenerateCell` at
    eps = 1/2 or p = 1/2 (both maps constant), before any other check;
    ValueError for a depth r below 1 or a parameter outside (0, 1); the
    AuditFailure of one `collocation_h_chi` call over the other p (maps and
    curves depend on eps alone; p is the family's lambda).  A cell whose
    node ladder does not settle takes h/chi from the depth-r cylinder
    spectrum, the only use of `r`, so no cell climbs the ladder twice."""
    ps = np.asarray(ps, dtype=float)
    degenerate = _degenerate(ps) | _degenerate(eps)
    out = [None] * len(ps)
    for j, p in enumerate(ps):
        if degenerate[j]:
            out[j] = DegenerateCell("eps = 1/2 or p = 1/2 is degenerate")
        elif r < 1:
            out[j] = ValueError("depth must be positive")
        elif not (0 < eps < 1 and 0 < p < 1):
            out[j] = ValueError("parameters must lie in (0, 1)")
    batch = [j for j, o in enumerate(out) if o is None]
    if batch:
        fam, prob_fns = blackwell_family(eps, ps[batch[0]])
        pot = log_probability_potential(prob_fns)
        for j, h_chi in zip(batch, collocation_h_chi(fam, pot, ps[batch])):
            out[j] = (h_chi if isinstance(h_chi, AuditFailure)
                      else _outcome(_blackwell_ratio, fam, pot, ps[j], r, h_chi))
    return out


def blackwell_region_scan(eps_range, p_range, shape, r: int = 8) -> RegionGrid:
    """value = h/chi; supercritical iff > 1.  Each eps row is one
    `blackwell_row_values` call."""
    if r < 1:
        raise ValueError("depth must be positive")
    # the name is resolved per call, so a traced or patched one is called
    return region_scan((eps_range, p_range), shape, ("eps", "p"),
                       lambda eps, ps: blackwell_row_values(eps, ps, r), 1.0)


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
    if not ratios:
        raise ValueError("the ratio list is empty")
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

"""Potentials, the Perron transfer operator on depth-r cylinder spaces,
pressure, Bowen roots, entropy, Lyapunov exponents, and partition sums."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from weakref import WeakSet

import numpy as np

from .ifs import (AuditFailure, EvaluationError, IfsFamily, concat_images,
                  regularity_audit, solve_root)

MAX_CYLINDERS = 1 << 20  # memory cap m^r for dense spectra
SPECTRUM_TOL = 1e-12  # power iteration stops once the update falls below this
SPECTRUM_MAX_ITER = 10000
PROB_AUDIT_GRID = 1024  # grid on which probability curves are audited
PARTITION_GRID = 65  # x-grid of the partition sums for maps not all increasing
PARTITION_CAP = 1 << 22  # most words a partition sum enumerates
PARTITION_BLOCK = 1 << 18  # most (grid point, word) entries in one partition-sum array
BOWEN_BRACKET_N = 6  # word length of the partition-sum bracket at the root
COLLOCATION_NODES = 24  # N of the collocation pressure P_N, checked against P_2N
COLLOCATION_TOL = 1e-12  # largest |P_N - P_2N| a collocation Bowen root accepts


class ConvergenceError(RuntimeError):
    pass


class _CollocationUnresolved(Exception):
    """The collocation pressure failed its own check; the caller falls back
    to the cylinder pressure."""


@dataclass(eq=False)
class Potential:
    """Function on symbol sequences of the form phi(j.v) = g_j(Pi(v . 1^infty)).

    `weights(frozen)` returns the m functions g_j of y, vectorised, for the
    family frozen at one lambda.  `variation(fam, lam) -> (b, alpha)` bounds
    the variations, var_k <= b * alpha^k, or is None when the potential
    declares no bound.  A log-probability potential also carries its
    probability curves `prob_fns`.
    """

    kind: str
    weights: object
    variation: object = None
    prob_fns: tuple = None

    def table(self, fam, lam, depth):
        """phi for every depth-`depth` word, by code: concat_j g_j(Y_{depth-1}).
        A log of zero is reported by the finiteness check, not by numpy."""
        frozen = fam.at(lam)
        with np.errstate(divide="ignore"):
            vals = concat_images(self.weights(frozen), frozen.level(depth - 1))
        if not np.all(np.isfinite(vals)):
            raise EvaluationError("potential evaluated to a non-finite value")
        return vals


def constant_bernoulli_potential(probs) -> Potential:
    """The log-probability potential of the constant curves p_j = probs[j-1]."""
    probs = np.asarray(probs, dtype=float)
    if np.any(probs <= 0) or abs(probs.sum() - 1.0) > 1e-12:
        raise ValueError("probabilities must be positive and sum to 1")
    curves = [lambda lam, x, p=p: p * np.ones_like(np.asarray(x, dtype=float))
              for p in probs]
    return replace(log_probability_potential(curves), kind="constant-bernoulli",
                   variation=lambda fam, lam: (0.0, 0.5))


def audit_prob_fns(prob_fns, frozen):
    """Check that the curves p_j(lam, .) of the family frozen at lam are one
    per map, positive and sum to 1 on PROB_AUDIT_GRID points of the domain."""
    if len(prob_fns) != frozen.m:
        raise ValueError("need one probability curve per map")
    xs = np.linspace(*frozen.domain, PROB_AUDIT_GRID)
    vals = np.array([np.asarray(f(frozen.lam, xs), dtype=float) for f in prob_fns])
    if np.any(vals <= 0):
        raise AuditFailure("probability curve non-positive on domain")
    if np.max(np.abs(vals.sum(axis=0) - 1.0)) > 1e-9:
        raise AuditFailure("probability curves do not sum to 1")


def log_probability_potential(prob_fns) -> Potential:
    """phi(w) = log p_{w_1}(Pi(sigma w . 1^infty)): g_j = log p_j(lam, .).

    `prob_fns[j-1](lam, x)` must be vectorized in x, positive, and sum
    to 1 over j (audited on a grid at first use per family and lambda).
    """
    prob_fns = tuple(prob_fns)
    audited = WeakSet()  # FrozenFamily records whose curves passed

    def weights(frozen):
        if frozen not in audited:
            audit_prob_fns(prob_fns, frozen)
            audited.add(frozen)
        return [lambda y, f=f: np.log(f(frozen.lam, y)) for f in prob_fns]

    def variation(fam, lam):
        aud = regularity_audit(fam)
        xs = np.linspace(*fam.domain, 257)
        h = xs[1] - xs[0]
        lip = 0.0
        for f in prob_fns:
            p = np.asarray(f(lam, xs), dtype=float)
            dp = np.abs(np.diff(p)) / h
            lip = max(lip, float(dp.max() / p.min()) if p.min() > 0 else math.inf)
        return lip * fam.diam, aud.gamma2

    return Potential(kind="log-probability", weights=weights,
                     variation=variation, prob_fns=prob_fns)


def t_log_derivative_potential(t: float) -> Potential:
    """phi(w) = t * log |f'_{w_1}(Pi(sigma w . 1^infty))|: g_j = t log|f_j'|."""

    def weights(frozen):
        return [lambda y, mp=mp: t * np.log(np.abs(mp.dx(y))) for mp in frozen.maps]

    def variation(fam, lam):
        aud = regularity_audit(fam)
        return abs(t) * aud.log_dx_lipschitz * fam.diam, aud.gamma2

    return Potential(kind="t-log-derivative", weights=weights,
                     variation=variation)


def variation_tail(pot: Potential, fam, lam, depth: int) -> float:
    """b * alpha^(depth+1), the variation tail of `pot` truncated to depth-
    `depth` cylinders, from `pot.variation` with alpha clamped into (0, 1)."""
    if pot.variation is None:
        raise ValueError(f"{pot.kind} potential declares no variation bound")
    b, a = pot.variation(fam, lam)
    return b * min(max(a, 1e-12), 1 - 1e-12) ** (depth + 1)


@dataclass(eq=False)
class TransferSpectrum:
    depth: int
    alphabet_size: int
    gamma: float
    h: np.ndarray
    nu: np.ndarray
    iterations: int
    residual_right: float
    residual_left: float
    potential: Potential
    family: IfsFamily
    lam: float

    @property
    def pressure(self) -> float:
        return math.log(self.gamma)

    @functools.cached_property
    def truncation_bound(self) -> float:
        """Variation tail of the truncated potential.  Computed when first
        read, because it may need a fresh regularity audit of the family."""
        return variation_tail(self.potential, self.family, self.lam, self.depth)


@dataclass(eq=False)
class CylinderMeasure:
    depth: int
    alphabet_size: int
    weights: np.ndarray

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def coarsen(self, depth: int) -> "CylinderMeasure":
        if not 1 <= depth <= self.depth:
            raise ValueError("coarsening depth out of range")
        w = self.weights.reshape(self.alphabet_size ** depth, -1).sum(axis=1)
        return CylinderMeasure(depth, self.alphabet_size, w)


def transfer_spectrum(fam: IfsFamily, pot: Potential, lam: float,
                      r: int) -> TransferSpectrum:
    """Lead eigentriple (gamma, h, nu) of the transfer operator truncated
    to depth-r cylinder functions, M[w, (i.w)|_r] = exp(phi(i.w)),
    normalized so sum(nu) = 1 and sum(h * nu) = 1."""
    m = fam.m
    if r < 1:
        raise ValueError("depth must be positive")
    if m ** r > MAX_CYLINDERS:
        raise ValueError(f"m^r = {m ** r} exceeds cap {MAX_CYLINDERS}")
    # E[i, b, c] = exp(phi(i.w)) for w = b.c, c its last symbol: the m
    # entries of row w sit in the columns (i, b), i = 0..m-1
    E = np.exp(pot.table(fam, lam, r + 1)).reshape(m, -1, m)

    def apply(h):
        """M @ h, each row summed over ascending i."""
        hb = h.reshape(m, -1, 1)
        y = E[0] * hb[0]
        for i in range(1, m):
            y += E[i] * hb[i]
        return y.ravel()

    def apply_t(nu):
        """M.T @ nu, each row summed over ascending c."""
        terms = E * nu.reshape(1, -1, m)
        y = terms[..., 0].copy()
        for c in range(1, m):
            y += terms[..., c]
        return y.ravel()

    n = E.size // m
    h = np.ones(n)
    nu = np.full(n, 1.0 / n)
    gamma = 1.0
    iters = 0
    for iters in range(1, SPECTRUM_MAX_ITER + 1):
        h_new = apply(h)
        nu_new = apply_t(nu)
        g_new = float(h_new.max())
        h_new = h_new / g_new
        nu_new = nu_new / nu_new.sum()
        delta = max(np.abs(h_new - h).max(), np.abs(nu_new - nu).max(),
                    abs(g_new - gamma) / max(g_new, 1e-300))
        h, nu, gamma = h_new, nu_new, g_new
        if delta < SPECTRUM_TOL:
            break
    if nu.sum() <= 0 or not np.all(h > 0):
        raise ConvergenceError("degenerate eigendata (fully zero or non-positive)")
    # Rayleigh refinement of gamma, then the Bowen normalization.
    gamma = float(nu @ apply(h)) / float(nu @ h)
    nu = nu / nu.sum()
    h = h / float(h @ nu)
    res_r = float(np.abs(apply(h) - gamma * h).max() / np.abs(h).max())
    res_l = float(np.abs(apply_t(nu) - gamma * nu).max() / np.abs(nu).max())
    if res_r > 1e-8 or res_l > 1e-8:
        raise ConvergenceError(
            f"power iteration residuals {res_r:.2e}/{res_l:.2e} after {iters} steps")
    return TransferSpectrum(depth=r, alphabet_size=fam.m, gamma=gamma, h=h,
                            nu=nu, iterations=iters, residual_right=res_r,
                            residual_left=res_l, potential=pot, family=fam,
                            lam=lam)


def gibbs_cylinder_measure(spec: TransferSpectrum) -> CylinderMeasure:
    """mu(w) = h(w) * nu(w); total mass 1 by the spectrum normalization."""
    w = spec.h * spec.nu
    return CylinderMeasure(spec.depth, spec.alphabet_size, w)


def entropy(spec: TransferSpectrum):
    """h_mu = P - integral(phi dmu) for the spectrum's own potential,
    evaluated on depth-r cylinders.

    Returns (entropy, shannon_diagnostic) where the diagnostic is the
    finite-depth Shannon sum at the spectrum depth (slowly convergent,
    reported for cross-checking only).
    """
    mu = gibbs_cylinder_measure(spec).weights
    phi_r = spec.potential.table(spec.family, spec.lam, spec.depth)
    h_primary = spec.pressure - float(phi_r @ mu)
    nz = mu[mu > 0]
    shannon = -float((nz * np.log(nz)).sum()) / spec.depth
    return h_primary, shannon


def lyapunov_exponent(fam: IfsFamily, lam: float, measure: CylinderMeasure) -> float:
    """chi = -sum_w log|f'_{w_1}(Pi(sigma w . 1^infty))| mu(w)."""
    pot1 = t_log_derivative_potential(1.0)
    tab = pot1.table(fam, lam, measure.depth)
    return -float(tab @ measure.weights) / measure.total_mass


def partition_sum(fam: IfsFamily, subset, t: float, lam: float, n: int):
    """(Z_inf, Z_sup): the sums over subset^n of the inf and of the sup
    over x of |f'_u(x)|^t, from one pass over the all-words tree."""
    subset = list(subset)
    k = len(subset)
    if k ** n > PARTITION_CAP:
        raise ValueError("enumeration cap exceeded")
    if not all(1 <= j <= fam.m for j in subset):
        raise ValueError(f"subset symbols must lie in 1..{fam.m}")
    aud = regularity_audit(fam)
    # |f_u'| is monotone in x for the built-in affine and Moebius maps, so
    # its extrema sit at the domain endpoints, which both grids contain; the
    # full grid adds robustness for custom maps that are not all increasing
    points = (max(3, PARTITION_GRID // 8) if all(aud.monotone_increasing)
              else PARTITION_GRID)
    xs = np.linspace(*fam.domain, points)
    frozen = fam.at(lam)
    maps = [frozen.maps[j - 1] for j in subset]
    values = [mp.value for mp in maps]
    abs_dx = [lambda y, mp=mp: np.abs(mp.dx(y)) for mp in maps]
    rows = max(1, PARTITION_BLOCK // k ** n)
    lo = np.full(k ** n, np.inf)
    hi = np.full(k ** n, -np.inf)
    for start in range(0, points, rows):
        # the all-words tree of f_u(x) and |f_u'(x)|, u in subset^n, with
        # one row per grid point x of the block
        y = xs[start:start + rows, None]
        dy = np.ones_like(y)
        for _ in range(n):
            dy = np.tile(dy, k) * concat_images(abs_dx, y)
            y = concat_images(values, y)
        lo = np.minimum(lo, dy.min(axis=0))
        hi = np.maximum(hi, dy.max(axis=0))
    return float(np.sum(lo ** t)), float(np.sum(hi ** t))


def pressure(fam: IfsFamily, t: float, lam: float, r: int = 8) -> float:
    """Pressure P(t) of t log|f'| from the depth-r transfer spectrum."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return transfer_spectrum(fam, t_log_derivative_potential(t), lam, r).pressure


def pressure_bracket(fam: IfsFamily, t: float, lam: float, n: int = 8):
    """(log Z_inf / n, log Z_sup / n), which brackets P(t), from the
    length-n partition sums."""
    if t < 0:
        raise ValueError("t must be >= 0")
    z_inf, z_sup = partition_sum(fam, range(1, fam.m + 1), t, lam, n)
    return math.log(z_inf) / n, math.log(z_sup) / n


def _node_weights(frozen, pot: Potential, n: int) -> np.ndarray:
    """The weights g_j of `pot` at the n Chebyshev nodes of the frozen
    family, as an (m, n) array."""
    nodes = frozen.collocation(n).nodes
    return concat_images(pot.weights(frozen), nodes).reshape(frozen.m, n)


def _collocation_pressure(frozen, g: np.ndarray) -> float:
    """P_n: the log of the Perron root of sum_j diag(exp(g_j)) B_j, the
    transfer operator with the weights g of `_node_weights` on the
    n = g.shape[1] Chebyshev nodes of the frozen family, by a dense
    eigen-solve.  Raises _CollocationUnresolved unless the eigenvalue of
    largest modulus is real and positive."""
    op = np.einsum("jk,jkl->kl", np.exp(g), frozen.collocation(g.shape[1]).interp)
    ev = np.linalg.eigvals(op)
    lead = ev[np.argmax(np.abs(ev))]
    if not (lead.imag == 0 and lead.real > 0):
        raise _CollocationUnresolved(f"leading eigenvalue {lead}")
    return math.log(lead.real)


def _bowen_solve(P, m: int, slope: float):
    """(s, P(s)) for the root s of the decreasing pressure P on [0, t_hi],
    t_hi doubled from log m / slope until P(t_hi) <= 0, evaluating P once
    per point."""
    P = functools.cache(P)  # brentq re-reads both ends and returns a point it read
    t_hi = math.log(m) / max(slope, 1e-12)
    doublings = 0
    while P(t_hi) > 0:
        if doublings == 10:
            raise ValueError("pressure does not change sign on [0, t_max]")
        t_hi *= 2.0
        doublings += 1
    s = solve_root(P, 0.0, t_hi)
    return s, P(s)


def bowen_root(fam: IfsFamily, lam: float, r: int = 8) -> dict:
    """Solve P(s) = 0 for the pressure of t log|f'| by Brent's method,
    evaluating P once per point.

    When the audit finds the domain invariant, P is the collocation
    pressure P_N on N = COLLOCATION_NODES Chebyshev nodes, checked against
    P_2N at every t the solver reads.  A family without an invariant
    domain, and a root at any of whose points |P_N - P_2N| exceeds
    COLLOCATION_TOL or a leading eigenvalue is not real and positive, is
    solved on the depth-r cylinder `pressure`: `r` is used only by this
    fallback.

    Returns the root `s`, `pressure_at_s`, the partition-sum bracket of
    P(s) at word length BOWEN_BRACKET_N and its width, the `backend`
    ("collocation" or "cylinder") and `error_estimate`: the pressure error
    at s (|P_N - P_2N|, or the truncation bound at depth r) over
    log(1/gamma2), the least slope |P'|, which estimates |s - s_true|.
    """
    aud = regularity_audit(fam)
    if not aud.derivative_ok:
        raise AuditFailure(f"|f'| must lie in (0, 1): the audit found gamma1 = "
                           f"{aud.gamma1:.6g}, gamma2 = {aud.gamma2:.6g}")
    if fam.m < 2:
        raise ValueError("P(0) = log m <= 0: Bowen root is not positive")
    slope = -math.log(aud.gamma2)
    if aud.invariant:
        frozen = fam.at(lam)
        # log|f_j'| at the N and the 2N nodes, once; P_N(t) reads t log|f_j'|
        log_dx = [_node_weights(frozen, t_log_derivative_potential(1.0), n)
                  for n in (COLLOCATION_NODES, 2 * COLLOCATION_NODES)]
        gaps = {}

        def P_coll(t):
            p, p2 = (_collocation_pressure(frozen, t * g) for g in log_dx)
            gaps[t] = abs(p - p2)
            if not gaps[t] <= COLLOCATION_TOL:
                raise _CollocationUnresolved(f"|P_N - P_2N| = {gaps[t]:.2e} at t = {t}")
            return p

        try:
            s, p_s = _bowen_solve(P_coll, fam.m, slope)
        except _CollocationUnresolved:
            pass
        else:
            return _bowen_result(fam, lam, s, p_s, "collocation", gaps[s] / slope)

    s, p_s = _bowen_solve(lambda t: pressure(fam, t, lam, r=r), fam.m, slope)
    bound = variation_tail(t_log_derivative_potential(s), fam, lam, r)
    return _bowen_result(fam, lam, s, p_s, "cylinder", bound / slope)


def _bowen_result(fam, lam, s, p_s, backend, error_estimate) -> dict:
    bracket = pressure_bracket(fam, s, lam, BOWEN_BRACKET_N)
    return {"s": s, "pressure_at_s": p_s,
            "partition_bracket": bracket,
            "bracket_width": bracket[1] - bracket[0],
            "backend": backend, "error_estimate": error_estimate}


def pressure_drop_check(fam: IfsFamily, t: float, lam: float, n: int) -> dict:
    """Check Z_n(A, t) >= Z_n(B, t) (1 + delta_t)^n with B = A minus the
    last symbol, delta_t = gamma1^t / ((m-1) gamma2^t), on the inf-based
    partition sums."""
    if fam.m < 2:
        raise ValueError("need at least two maps")
    aud = regularity_audit(fam)
    delta_t = aud.gamma1 ** t / ((fam.m - 1) * aud.gamma2 ** t)
    full = list(range(1, fam.m + 1))
    za = partition_sum(fam, full, t, lam, n)[0]
    zb = partition_sum(fam, full[:-1], t, lam, n)[0]
    rhs = zb * (1 + delta_t) ** n
    return {"Z_A": za, "Z_B": zb, "delta_t": delta_t, "rhs": rhs,
            "holds": za >= rhs * (1 - 1e-12)}

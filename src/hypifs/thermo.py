"""Potentials, the Perron transfer operator on depth-r cylinder spaces,
pressure, Bowen roots, entropy, Lyapunov exponents, and partition sums."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from weakref import WeakSet

import numpy as np
import scipy.sparse as sp

from .ifs import (AuditFailure, EvaluationError, IfsFamily, concat_images,
                  regularity_audit)
from .words import CylinderIndex


class ConvergenceError(RuntimeError):
    pass


@dataclass(eq=False)
class Potential:
    """Function on symbol sequences, evaluated at w . 1^infty truncations.

    `table_fn(fam, lam, depth)` returns phi for every depth-`depth` word
    (indexed by word code).  (var_b, var_alpha) bound the variations,
    var_k <= b * alpha^k; a negative entry is filled in from
    `default_var(fam, lam) -> (b, alpha)`.  A log-probability potential
    also carries its probability curves `prob_fns`.
    """

    kind: str
    table_fn: object
    var_b: float
    var_alpha: float
    default_var: object = None
    prob_fns: tuple = None

    def table(self, fam, lam, depth):
        vals = np.asarray(self.table_fn(fam, lam, depth), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise EvaluationError("potential evaluated to a non-finite value")
        return vals


def _first_symbol_table(frozen, depth, g):
    """g(j, Pi(sigma w . 1^infty)) with j = w_1 - 1, for every depth-`depth`
    word w, by code: concat_j g(j, Y_{depth-1})."""
    return concat_images([functools.partial(g, j) for j in range(frozen.m)],
                         frozen.level(depth - 1))


def constant_bernoulli_potential(probs) -> Potential:
    probs = np.asarray(probs, dtype=float)
    if np.any(probs <= 0) or abs(probs.sum() - 1.0) > 1e-12:
        raise ValueError("probabilities must be positive and sum to 1")
    logp = np.log(probs)

    def table_fn(fam, lam, depth):
        if len(logp) != fam.m:
            raise ValueError("need one probability per map")
        return np.repeat(logp, fam.m ** (depth - 1))

    return Potential(kind="constant-bernoulli", table_fn=table_fn,
                     var_b=0.0, var_alpha=0.5)


def audit_prob_fns(prob_fns, frozen, grid: int):
    """Check that the curves p_j(lam, .) of the family frozen at lam are one
    per map, positive and sum to 1 on a `grid`-point grid over the domain."""
    if len(prob_fns) != frozen.m:
        raise ValueError("need one probability curve per map")
    xs = np.linspace(*frozen.domain, grid)
    vals = np.array([np.asarray(f(frozen.lam, xs), dtype=float) for f in prob_fns])
    if np.any(vals <= 0):
        raise AuditFailure("probability curve non-positive on domain")
    if np.max(np.abs(vals.sum(axis=0) - 1.0)) > 1e-9:
        raise AuditFailure("probability curves do not sum to 1")


def log_probability_potential(prob_fns, var_b=None, var_alpha=None,
                              audit_grid=1024) -> Potential:
    """phi(w) = log p_{w_1}(Pi(sigma w . 1^infty)).

    `prob_fns[j-1](lam, x)` must be vectorized in x, positive, and sum
    to 1 over j (audited on a grid at first use per family and lambda).
    """
    prob_fns = tuple(prob_fns)
    audited = WeakSet()  # FrozenFamily records whose curves passed

    def table_fn(fam, lam, depth):
        frozen = fam.at(lam)
        if frozen not in audited:
            audit_prob_fns(prob_fns, frozen, audit_grid)
            audited.add(frozen)
        return _first_symbol_table(frozen, depth,
                                   lambda j, y: np.log(prob_fns[j](lam, y)))

    def default_var(fam, lam):
        aud = regularity_audit(fam)
        xs = np.linspace(*fam.domain, 257)
        h = xs[1] - xs[0]
        lip = 0.0
        for f in prob_fns:
            p = np.asarray(f(lam, xs), dtype=float)
            dp = np.abs(np.diff(p)) / h
            lip = max(lip, float(dp.max() / p.min()) if p.min() > 0 else math.inf)
        return lip * fam.diam, aud.gamma2

    return Potential(kind="log-probability", table_fn=table_fn,
                     var_b=var_b if var_b is not None else -1.0,
                     var_alpha=var_alpha if var_alpha is not None else -1.0,
                     default_var=default_var, prob_fns=prob_fns)


def t_log_derivative_potential(t: float) -> Potential:
    """phi(w) = t * log |f'_{w_1}(Pi(sigma w . 1^infty))|."""

    def table_fn(fam, lam, depth):
        frozen = fam.at(lam)
        with np.errstate(divide="ignore"):
            return _first_symbol_table(
                frozen, depth,
                lambda j, y: t * np.log(np.abs(frozen.maps[j].dx(y))))

    def default_var(fam, lam):
        aud = regularity_audit(fam)
        return abs(t) * aud.log_dx_lipschitz * fam.diam, aud.gamma2

    return Potential(kind="t-log-derivative", table_fn=table_fn,
                     var_b=-1.0, var_alpha=-1.0, default_var=default_var)


def resolve_variation(pot: Potential, fam, lam):
    """(b, alpha) for the truncation bound, filling family-dependent defaults."""
    b, a = pot.var_b, pot.var_alpha
    if b < 0 or a < 0:
        if pot.default_var is None:
            raise ValueError(f"{pot.kind} potential has a negative variation "
                             "bound and no default_var to fill it in")
        db, da = pot.default_var(fam, lam)
        b = db if b < 0 else b
        a = da if a < 0 else a
    return b, min(max(a, 1e-12), 1 - 1e-12)


def _variation_tail(pot: Potential, fam, lam, r: int) -> float:
    b, a = resolve_variation(pot, fam, lam)
    return b * a ** (r + 1)


def truncate_potential(pot: Potential, fam, lam, r: int):
    """phi on all depth-(r+1) words plus the variation tail bound."""
    if r < 1:
        raise ValueError("r must be >= 1")
    vals = pot.table(fam, lam, r + 1)
    return vals, _variation_tail(pot, fam, lam, r)


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
        return _variation_tail(self.potential, self.family, self.lam, self.depth)


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


def transfer_matrix(fam: IfsFamily, phi_vals: np.ndarray, r: int) -> sp.csr_matrix:
    """Sparse operator on depth-r cylinder functions:
    M[w, (i.w)|_r] = exp(phi(i.w))."""
    m = fam.m
    M = m ** r
    base = m ** (r - 1)
    w = np.arange(M)
    rows, cols, vals = [], [], []
    for i in range(1, m + 1):
        rows.append(w)
        cols.append((i - 1) * base + w // m)
        vals.append(np.exp(phi_vals[(i - 1) * M + w]))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(M, M))


def transfer_spectrum(fam: IfsFamily, pot: Potential, lam: float, r: int,
                      tol: float = 1e-12, max_iter: int = 10000) -> TransferSpectrum:
    """Lead eigentriple (gamma, h, nu) of the transfer operator truncated
    to depth-r cylinder functions, normalized so sum(nu) = 1 and
    sum(h * nu) = 1."""
    CylinderIndex(r, fam.m)  # enforces the size cap
    phi_vals = pot.table(fam, lam, r + 1)
    M = transfer_matrix(fam, phi_vals, r)
    Mt = M.T.tocsr()
    n = M.shape[0]
    h = np.ones(n)
    nu = np.full(n, 1.0 / n)
    gamma = 1.0
    iters = 0
    for iters in range(1, max_iter + 1):
        h_new = M @ h
        nu_new = Mt @ nu
        g_new = float(h_new.max())
        h_new = h_new / g_new
        nu_new = nu_new / nu_new.sum()
        delta = max(np.abs(h_new - h).max(), np.abs(nu_new - nu).max(),
                    abs(g_new - gamma) / max(g_new, 1e-300))
        h, nu, gamma = h_new, nu_new, g_new
        if delta < tol:
            break
    if nu.sum() <= 0 or not np.all(h > 0):
        raise ConvergenceError("degenerate eigendata (fully zero or non-positive)")
    # Rayleigh refinement of gamma, then the Bowen normalization.
    gamma = float(nu @ (M @ h)) / float(nu @ h)
    nu = nu / nu.sum()
    h = h / float(h @ nu)
    res_r = float(np.abs(M @ h - gamma * h).max() / np.abs(h).max())
    res_l = float(np.abs(Mt @ nu - gamma * nu).max() / np.abs(nu).max())
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


def entropy(spec: TransferSpectrum, pot: Potential, fam: IfsFamily, lam: float):
    """h_mu = P - integral(phi dmu), evaluated on depth-r cylinders.

    Returns (entropy, shannon_diagnostic) where the diagnostic is the
    finite-depth Shannon sum at the spectrum depth (slowly convergent,
    reported for cross-checking only).
    """
    mu = gibbs_cylinder_measure(spec).weights
    phi_r = pot.table(fam, lam, spec.depth)
    h_primary = spec.pressure - float(phi_r @ mu)
    nz = mu[mu > 0]
    shannon = -float((nz * np.log(nz)).sum()) / spec.depth
    return h_primary, shannon


def lyapunov_exponent(fam: IfsFamily, lam: float, measure: CylinderMeasure) -> float:
    """chi = -sum_w log|f'_{w_1}(Pi(sigma w . 1^infty))| mu(w)."""
    pot1 = t_log_derivative_potential(1.0)
    tab = pot1.table(fam, lam, measure.depth)
    return -float(tab @ measure.weights) / measure.total_mass


def lyapunov_dimension(h: float, chi: float):
    """(clipped, raw) ratio h/chi."""
    if chi <= 0:
        raise ValueError("Lyapunov exponent must be positive")
    raw = h / chi
    return min(1.0, raw), raw


def partition_sum(fam: IfsFamily, subset, t: float, lam: float, n: int,
                  mode: str = "inf", grid: int = 65,
                  enumeration_cap: int = 1 << 22) -> float:
    """Z_n = sum over subset^n of inf (or sup) over x of |f'_u(x)|^t."""
    subset = list(subset)
    k = len(subset)
    if k ** n > enumeration_cap:
        raise ValueError("enumeration cap exceeded")
    if mode not in ("inf", "sup"):
        raise ValueError("mode must be 'inf' or 'sup'")
    if not all(1 <= j <= fam.m for j in subset):
        raise ValueError(f"subset symbols must lie in 1..{fam.m}")
    aud = regularity_audit(fam)
    # second derivative of |f'| has constant sign for the built-ins, so
    # endpoints capture the extrema; the grid adds robustness for customs
    xs = np.array(fam.domain) if all(aud.monotone_increasing) else None
    if xs is None:
        xs = np.linspace(*fam.domain, grid)
    else:
        xs = np.linspace(*fam.domain, max(3, grid // 8))
    frozen = fam.at(lam)
    maps = [frozen.maps[j - 1] for j in subset]
    values = [mp.value for mp in maps]
    abs_dx = [lambda y, mp=mp: np.abs(mp.dx(y)) for mp in maps]
    best = np.full(k ** n, np.inf if mode == "inf" else -np.inf)
    for x in xs:
        # the all-words tree of f_u(x) and |f_u'(x)|, u in subset^n
        y = np.array([float(x)])
        dy = np.ones(1)
        for _ in range(n):
            dy = np.tile(dy, k) * concat_images(abs_dx, y)
            y = concat_images(values, y)
        best = np.minimum(best, dy) if mode == "inf" else np.maximum(best, dy)
    return float(np.sum(best ** t))


def pressure(fam: IfsFamily, t: float, lam: float, method: str = "transfer",
             r: int = 8, n: int = 8):
    """Pressure P(t); transfer method returns (P, None), partition-sum
    method returns (midpoint, (inf-based, sup-based) bracket)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if method == "transfer":
        spec = transfer_spectrum(fam, t_log_derivative_potential(t), lam, r)
        return spec.pressure, None
    if method == "partition-sum":
        symbols = range(1, fam.m + 1)
        z_inf = partition_sum(fam, symbols, t, lam, n, "inf")
        z_sup = partition_sum(fam, symbols, t, lam, n, "sup")
        lo = math.log(z_inf) / n
        hi = math.log(z_sup) / n
        return 0.5 * (lo + hi), (lo, hi)
    raise ValueError(f"unknown method {method!r}")


def bowen_root(fam: IfsFamily, lam: float, r: int = 8, tol: float = 1e-10,
               bracket_n: int = 6) -> dict:
    """Solve P(s) = 0 by bisection on the transfer-method pressure."""
    aud = regularity_audit(fam)

    def P(t):
        return pressure(fam, t, lam, "transfer", r=r)[0]

    p0 = P(0.0)
    if p0 <= 0:
        raise ValueError("P(0) <= 0: Bowen root is not positive")
    t_hi = math.log(fam.m) / max(-math.log(aud.gamma2), 1e-12)
    p_hi = P(t_hi)
    tries = 0
    while p_hi > 0:
        t_hi *= 2.0
        p_hi = P(t_hi)
        tries += 1
        if tries > 10:
            raise ValueError("pressure does not change sign on [0, t_max]")
    lo, hi = 0.0, t_hi
    plo = p0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        pm = P(mid)
        if abs(pm) <= tol:
            lo = hi = mid
            break
        if pm > 0:
            lo, plo = mid, pm
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    _, bracket = pressure(fam, s, lam, "partition-sum", n=bracket_n)
    return {"s": s, "pressure_at_s": P(s),
            "partition_bracket": bracket,
            "bracket_width": bracket[1] - bracket[0]}


def pressure_drop_check(fam: IfsFamily, t: float, lam: float, n: int) -> dict:
    """Check Z_n(A, t) >= Z_n(B, t) (1 + delta_t)^n with B = A minus the
    last symbol, delta_t = gamma1^t / ((m-1) gamma2^t)."""
    if fam.m < 2:
        raise ValueError("need at least two maps")
    aud = regularity_audit(fam)
    delta_t = aud.gamma1 ** t / ((fam.m - 1) * aud.gamma2 ** t)
    full = list(range(1, fam.m + 1))
    za = partition_sum(fam, full, t, lam, n, "inf")
    zb = partition_sum(fam, full[:-1], t, lam, n, "inf")
    rhs = zb * (1 + delta_t) ** n
    return {"Z_A": za, "Z_B": zb, "delta_t": delta_t, "rhs": rhs,
            "holds": za >= rhs * (1 - 1e-12)}

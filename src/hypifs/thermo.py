"""Potentials, the Perron transfer operator on depth-r cylinder spaces and
on Chebyshev collocation nodes, pressure, Bowen roots, entropy, Lyapunov
exponents, and partition sums."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from weakref import WeakSet

import numpy as np

from .ifs import (INVARIANCE_PAD, AuditFailure, EvaluationError, IfsFamily,
                  concat_images, regularity_audit, solve_root)

MAX_CYLINDERS = 1 << 20  # memory cap m^r for dense spectra
SPECTRUM_TOL = 1e-12  # power iteration stops once the relative update falls below this
SPECTRUM_MAX_ITER = 10000
PROB_AUDIT_GRID = 1024  # grid on which probability curves are audited
PARTITION_GRID = 65  # x-grid of the partition sums for families with a custom map
PARTITION_CAP = 1 << 22  # most words a partition sum enumerates
PARTITION_BLOCK = 1 << 18  # most (grid point, word) entries in one partition-sum array
BOWEN_BRACKET_N = 6  # word length of the partition-sum bracket at the root
COLLOCATION_TOL = 1e-12  # largest |value(N) - value(2N)| a collocation rung pair accepts
# bowen_root keeps the coarse rung's root: from 16 nodes E2's was 1.2e-15 off, not 3.3e-16
COLLOCATION_LADDER = (24, 48, 96, 192)
# collocation_h_chi keeps the fine rung's value, so most cells settle at 16/24
H_CHI_LADDER = (16, 24, 48, 96, 192)
# most entries L m n^2 in one stacked collocation build, 2 MB per temporary: a
# 50-cell Blackwell row through all four rungs peaked at 5.2 MB traced (10.3 MB
# at 1 << 19, 20.2 MB at 1 << 20) and took no longer
COLLOCATION_STACK = 1 << 18


class ConvergenceError(RuntimeError):
    pass


class CollocationUnresolved(Exception):
    """No pair of collocation rungs passed its checks; the caller falls back
    to the cylinder backend.  Not a ValueError, so a region cell never
    reports it as AUDIT-FAIL."""


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


def _curve_values(prob_fns, frozen, xs) -> np.ndarray:
    """p_j(lam, xs) for the family frozen at lam, as an array of shape
    frozen.lam_shape + (m, len(xs))."""
    vals = np.empty(frozen.lam_shape + (len(prob_fns), len(xs)))
    for j, f in enumerate(prob_fns):
        vals[..., j, :] = f(frozen.lam, xs)
    return vals


def prob_audit(prob_fns, frozen) -> np.ndarray:
    """The audit of the curves p_j(lam, .) of the family frozen at lam, per
    lambda (shape frozen.lam_shape): None where they are positive and sum
    to 1 on PROB_AUDIT_GRID points of the domain, else the AuditFailure
    that says which check fails.  Curves not one per map raise ValueError."""
    if len(prob_fns) != frozen.m:
        raise ValueError("need one probability curve per map")
    vals = _curve_values(prob_fns, frozen, np.linspace(*frozen.domain, PROB_AUDIT_GRID))
    nonpositive = np.any(vals <= 0, axis=(-2, -1))
    off_one = np.max(np.abs(vals.sum(axis=-2) - 1.0), axis=-1) > 1e-9
    failures = np.full(frozen.lam_shape, None, dtype=object)
    failures[off_one] = AuditFailure("probability curves do not sum to 1")
    failures[nonpositive] = AuditFailure("probability curve non-positive on domain")
    return failures


def audit_prob_fns(prob_fns, frozen):
    """Raise the AuditFailure of `prob_audit` at the first lambda that has one."""
    for failure in prob_audit(prob_fns, frozen).flat:
        if failure is not None:
            raise failure


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
        delta = max(np.abs(h_new - h).max(), np.abs(nu_new - nu).max() / nu_new.max(),
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
    if n < 1:
        raise ValueError(f"partition word length n must be at least 1, got {n}")
    subset = list(subset)
    if not subset:
        raise ValueError("the partition subset is empty")
    k = len(subset)
    if k ** n > PARTITION_CAP:
        raise ValueError("enumeration cap exceeded")
    if not all(1 <= j <= fam.m for j in subset):
        raise ValueError(f"subset symbols must lie in 1..{fam.m}")
    aud = regularity_audit(fam)
    # a word of affine and Moebius maps (the audit's exact method) is Moebius
    # or affine, so |f_u'| is monotone in x and its extrema sit at the domain
    # endpoints, which both grids contain; the full grid adds robustness for
    # custom maps
    points = max(3, PARTITION_GRID // 8) if aud.method == "exact" else PARTITION_GRID
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


def _collocation_operator(frozen, w: np.ndarray) -> np.ndarray:
    """sum_j diag(w_j) B_j, the transfer operator (L h)(x) = sum_j w_j(x) h(f_j x)
    on the n = w.shape[-1] Chebyshev nodes of the frozen family, for node
    weights w of shape frozen.lam_shape + (m, n), one (n, n) matrix per
    lambda; B_j is the barycentric interpolation matrix from node values
    to values at f_j(nodes)."""
    return np.einsum("...jk,...jkl->...kl", w, frozen.collocation(w.shape[-1]).interp)


def _perron_log(op: np.ndarray):
    """The log of the Perron root of the (n, n) matrix `op`, by a dense
    eigen-solve, or a CollocationUnresolved unless the eigenvalue of largest
    modulus is real and positive."""
    ev = np.linalg.eigvals(op)
    lead = ev[np.argmax(np.abs(ev))]
    if not (lead.imag == 0 and lead.real > 0):
        return CollocationUnresolved(f"leading eigenvalue {lead}")
    return math.log(lead.real)


def _stationary_vectors(ops: np.ndarray) -> list:
    """The left fixed vector l of each matrix of the (L, n, n) stack `ops`,
    with sum(l) = 1: l^T op = l^T, from the bordered systems [[op^T - I, 1],
    [1^T, 0]] [l; c] = [0; 1], all solved at once.  The right-hand side has
    shape (L, n + 1, 1), which numpy 1.x and 2.x both read as stacked
    vectors.  When the stacked solve fails, each matrix is solved alone, as
    a stack of one, so a singular matrix leaves only its own lambda
    unresolved.  Returns one outcome per matrix: l, or a
    CollocationUnresolved for a singular system or a non-finite solution."""
    n = ops.shape[-1]
    bordered = np.zeros(ops.shape[:-2] + (n + 1, n + 1))
    bordered[..., :n, :n] = np.swapaxes(ops, -1, -2) - np.eye(n)
    bordered[..., :n, n] = bordered[..., n, :n] = 1.0
    rhs = np.zeros(ops.shape[:-2] + (n + 1, 1))
    rhs[..., n, 0] = 1.0
    try:
        sols = np.linalg.solve(bordered, rhs)[..., 0]
    except np.linalg.LinAlgError as exc:  # a ValueError: never an AUDIT-FAIL
        if len(ops) == 1:
            return [CollocationUnresolved(f"stationary system: {exc}")]
        return [ell for op in ops for ell in _stationary_vectors(op[None])]
    return [sol[:n] if finite else CollocationUnresolved("stationary vector is not finite")
            for sol, finite in zip(sols, np.isfinite(sols).all(axis=-1).tolist())]


def _collocation_rung(frozen, n: int, read) -> list:
    """One rung of the collocation backend: an outcome at n nodes for each
    lambda of the (L, 1) column at which `frozen` is frozen.  It is a
    CollocationUnresolved where a node image f_j(x_k) leaves the domain
    padded by INVARIANCE_PAD |X|, or where log|f_j'| is not finite at a
    node; the interpolant is read only at the node images, and the nodes
    include both endpoints, so for monotone maps this also shows the domain
    invariant.  The other lambdas, indexed by the list `ok`, get the
    outcomes of `read(frozen, col, ok)`, one per index, from the collocation
    data col = frozen.collocation(n)."""
    col = frozen.collocation(n)
    pad = INVARIANCE_PAD * (frozen.domain[1] - frozen.domain[0])
    lo, hi = frozen.domain[0] - pad, frozen.domain[1] + pad
    inside = ((col.images >= lo) & (col.images <= hi)).all(axis=(1, 2))
    finite = np.isfinite(col.log_dx).all(axis=(1, 2))
    out = [None if ins and fin else CollocationUnresolved(
        f"a node image leaves the domain at n = {n}" if not ins
        else f"log|f'| is not finite at a node at n = {n}")
        for ins, fin in zip(inside.tolist(), finite.tolist())]
    ok = [k for k, o in enumerate(out) if o is None]
    for k, res in zip(ok, read(frozen, col, ok)):
        out[k] = res
    return out


def _collocation_ladder(value, rungs, count: int = 1) -> list:
    """The N-vs-2N check of `collocation_h_chi`, for `count` lambdas at
    once.  Lambda i settles at the finer rung n2 of its first consecutive
    pair (n, n2) of node counts in `rungs` whose values are both resolved
    and differ by gap = max |value(n) - value(n2)| <= COLLOCATION_TOL.

    `value(n, rows)` gives the outcomes at rung n of the lambdas indexed by
    the list `rows`, one per row: a value, or the CollocationUnresolved of
    an unresolved rung.  It is called once per rung, for the lambdas still
    unsettled.  Returns one entry per lambda: (value(n2), gap), or a
    CollocationUnresolved naming every pair's gap when none settles."""
    results = [None] * count
    gaps = [[] for _ in range(count)]
    unsettled = list(range(count))
    coarse = value(rungs[0], unsettled)
    for n, n2 in zip(rungs, rungs[1:]):
        left, fine = [], []
        for i, a, b in zip(unsettled, coarse, value(n2, unsettled)):
            bad = a if isinstance(a, Exception) else b
            if isinstance(bad, Exception):
                gaps[i].append(f"{n}/{n2}: {bad}")
            else:
                gap = float(np.abs(np.subtract(a, b)).max())
                if gap <= COLLOCATION_TOL:
                    results[i] = (b, gap)
                    continue
                gaps[i].append(f"{n}/{n2}: {gap:.2e}")
            left.append(i)
            fine.append(b)
        unsettled, coarse = left, fine
        if not unsettled:
            break
    for i in unsettled:
        results[i] = CollocationUnresolved("no rung pair settles (" + "; ".join(gaps[i]) + ")")
    return results


def _settled(result):
    """An outcome or ladder entry: raised if it is an exception, else returned."""
    if isinstance(result, Exception):
        raise result
    return result


def collocation_h_chi(fam: IfsFamily, pot: Potential, lam):
    """(h, chi): the entropy and the Lyapunov exponent of the Gibbs measure
    nu of the log-probability potential `pot` at lam, by Chebyshev
    collocation (Falk & Nussbaum 2018; Bandtlow & Slipantschuk 2020).
    `lam` is one value, giving floats, or a 1-D array of L values, giving a
    list of L outcomes: (h, chi), or the CollocationUnresolved or
    AuditFailure that one value raises; one value is the case L = 1.

    On n nodes x_k, T = sum_j diag(p_j(x_k)) B_j is a Markov matrix (each
    barycentric row sums to 1), and its stationary vector l, from
    `_stationary_vectors`, is a quadrature rule for nu: h =
    -l^T [sum_j p_j log p_j] and chi = -l^T [sum_j p_j log|f_j'|] at the
    nodes.  The rungs of H_CHI_LADDER are read by `_collocation_ladder`,
    and (h, chi) at the finer rung of the first pair that agrees to
    COLLOCATION_TOL is returned: a cell that settles at 16/24 never builds
    48 nodes.  A rung is unresolved where `_collocation_rung` finds it
    unusable or the solve is singular.

    Each rung is built for all the lambdas it reads at once, in stacks of
    at most COLLOCATION_STACK entries L m n^2: one einsum gives a stack's L
    operators, and one stacked solve the stationary vectors of the lambdas
    still resolved.  The maps are frozen once over all the lambdas; the
    audit and every stack that holds all of them share that freeze, and
    any other stack is frozen over its own lambdas.

    At one value, raises CollocationUnresolved when no pair settles,
    ValueError for a potential without probability curves, and
    AuditFailure when the curves fail their audit (`prob_audit`).
    """
    if pot.prob_fns is None:
        raise ValueError(f"{pot.kind} potential has no probability curves")
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if lams.ndim != 1 or not lams.size:
        raise ValueError("lam must be one value or a non-empty 1-D array")
    column = fam.at(lams[:, None])
    results = list(prob_audit(pot.prob_fns, column))
    audited = np.flatnonzero([r is None for r in results])

    def read(frozen, col, ok):
        """[h, chi] or CollocationUnresolved for the lambdas `ok` of a stack."""
        p = _curve_values(pot.prob_fns, frozen, col.nodes)
        p_ok = p[ok]
        # (L, 2, n): sum_j p_j log p_j and sum_j p_j log|f_j'| at the nodes
        w = np.stack([(p_ok * np.log(p_ok)).sum(axis=-2),
                      (p_ok * col.log_dx[ok]).sum(axis=-2)], axis=1)
        ells = _stationary_vectors(_collocation_operator(frozen, p)[ok])
        return [ell if isinstance(ell, Exception) else -(w_k * ell).sum(axis=-1)
                for w_k, ell in zip(w, ells)]

    def rung(n, rows):
        rows = audited[rows]
        step = max(1, COLLOCATION_STACK // (fam.m * n * n))
        stacks = [rows[k:k + step] for k in range(0, len(rows), step)]
        return [v for stack in stacks for v in _collocation_rung(
            column if len(stack) == len(lams) else fam.at(lams[stack, None]), n, read)]

    for i, res in zip(audited, _collocation_ladder(rung, H_CHI_LADDER, len(audited))):
        results[i] = res if isinstance(res, Exception) else tuple(map(float, res[0]))
    return results if np.ndim(lam) else _settled(results[0])


def _bowen_solve(P, m: int, slope: float, near=None):
    """(s, P(s)) for the root s of the decreasing pressure P, evaluating P
    once per point.  With near = (s0, d), the bracket runs from s0 to
    s0 + d, or to s0 - d where P(s0) <= 0, d doubled until P changes sign
    there.  Without `near`, or when that bracket leaves [0, log m / slope]
    first, the bracket is [0, t_hi], t_hi doubled from log m / slope until
    P(t_hi) <= 0."""
    P = functools.cache(P)  # brentq re-reads both ends and returns a point it read
    t_hi = math.log(m) / max(slope, 1e-12)
    if near is not None:
        s0, d = near
        side = 1.0 if P(s0) > 0 else -1.0  # the root lies on this side of s0
        while 0 <= (t := s0 + side * d) <= t_hi:
            if (P(t) > 0) != (side > 0):
                s = solve_root(P, min(s0, t), max(s0, t))
                return s, P(s)
            d *= 2.0
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

    P_N is the log of the Perron root of sum_j diag(|f_j'|^t) B_j on N
    Chebyshev nodes of the family frozen at lam.  Each pair (N, 2N) of
    COLLOCATION_LADDER in turn solves s_N on P_N alone, from a bracket
    around the last pair's root once there is one, and settles the root
    if |P_N(s_N) - P_2N(s_N)| <= COLLOCATION_TOL; it is passed over where a
    rung is unusable (see `_collocation_rung`, run once per rung) or a
    leading eigenvalue is not real and positive.  When no pair settles, the
    root is solved on the depth-r cylinder `pressure`, the only use of `r`.

    Returns the root `s`, `pressure_at_s`, the partition-sum bracket of
    P(s) at word length BOWEN_BRACKET_N and its width, the `backend`
    ("collocation" or "cylinder") and `error_estimate`: the pressure error
    at s (|P_N - P_2N| at s_N, or the truncation bound at depth r) over
    log(1/gamma2), the least slope |P'|, which estimates |s - s_true|.
    The bracket checks P(s) only to its width (0.047 at the E2 root) and
    is no bound on |s - s_true|: it holds 0 at cylinder roots off by 0.085.
    """
    aud = regularity_audit(fam)
    if not aud.derivative_ok:
        raise AuditFailure(f"|f'| must lie in (0, 1): the audit found gamma1 = "
                           f"{aud.gamma1:.6g}, gamma2 = {aud.gamma2:.6g}")
    if fam.m < 2:
        raise ValueError("P(0) = log m <= 0: Bowen root is not positive")
    slope = -math.log(aud.gamma2)
    frozen = fam.at(np.array([[lam]]))  # a one-row column, as the rungs read

    def read(frozen, col, ok):  # ok is [] or [0]: the column has one row
        return [functools.cache(lambda t: _settled(_perron_log(
            _collocation_operator(frozen, np.exp(t * col.log_dx))[0])))]
    # P_n, or the CollocationUnresolved of an unusable rung, checked once per rung
    rung = functools.cache(lambda n: _collocation_rung(frozen, n, read)[0])

    near = None  # (s_N, |P_N - P_2N| / slope at s_N) of the last pair solved
    for n, n2 in zip(COLLOCATION_LADDER, COLLOCATION_LADDER[1:]):
        try:
            P, P2 = _settled(rung(n)), _settled(rung(n2))
            s, p_s = _bowen_solve(P, fam.m, slope, near)
            gap = abs(p_s - P2(s))
        except CollocationUnresolved:
            continue
        if gap <= COLLOCATION_TOL:
            return _bowen_result(fam, lam, s, p_s, "collocation", gap / slope)
        near = (s, gap / slope)

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

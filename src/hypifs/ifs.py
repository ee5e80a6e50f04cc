"""Parametrized IFS families on a compact interval.

Maps carry closed-form x- and lambda-derivatives where available;
custom evaluators can fall back to central finite differences in
lambda (flagged).  All evaluators accept numpy arrays in x.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

import numpy as np
from scipy.optimize import brentq

FD_STEP_SCALE = np.finfo(float).eps ** (1.0 / 3.0)  # central-difference optimum
ROOT_XTOL = 1e-15  # absolute term of the root tolerance
ROOT_RTOL = 4 * np.finfo(float).eps  # relative term, the least brentq accepts
INVARIANCE_PAD = 1e-9  # slack of the invariance check, relative to |X|


class EvaluationError(ValueError):
    pass


class AuditFailure(RuntimeError):
    pass


def fd_step(lam: float) -> float:
    return FD_STEP_SCALE * max(1.0, abs(lam))


def solve_root(g, lo: float, hi: float) -> float:
    """The root of g on [lo, hi], where g changes sign, by Brent's method to
    within ROOT_XTOL + ROOT_RTOL |x|: the one scalar root solver of hypifs."""
    return brentq(g, lo, hi, xtol=ROOT_XTOL, rtol=ROOT_RTOL)


@dataclass(frozen=True, eq=False)
class Poly:
    """Polynomial parameter curve, coefficients in ascending order."""

    coeffs: tuple

    def __call__(self, lam):
        return np.polynomial.polynomial.polyval(lam, np.asarray(self.coeffs))

    def deriv(self) -> "Poly":
        return self._derivative

    @functools.cached_property
    def _derivative(self) -> "Poly":
        c = np.polynomial.polynomial.polyder(np.asarray(self.coeffs, dtype=float))
        return Poly(tuple(c) if len(c) else (0.0,))


def poly(*coeffs) -> Poly:
    return Poly(tuple(float(c) for c in coeffs))


@dataclass(frozen=True, eq=False)
class AffineMap:
    """x -> a(lam) * x + b(lam)."""

    slope: Poly
    offset: Poly
    dlam_exact = True

    def value(self, lam, x):
        return self.slope(lam) * x + self.offset(lam)

    def dx(self, lam, x):
        return self.slope(lam) * np.ones_like(np.asarray(x, dtype=float))

    def dlam(self, lam, x):
        return self.slope.deriv()(lam) * x + self.offset.deriv()(lam)


@dataclass(frozen=True, eq=False)
class RationalMap:
    """x -> (n0(lam) + n1(lam) x) / (d0(lam) + d1(lam) x)."""

    n0: Poly
    n1: Poly
    d0: Poly
    d1: Poly
    dlam_exact = True

    def value(self, lam, x):
        return (self.n0(lam) + self.n1(lam) * x) / (self.d0(lam) + self.d1(lam) * x)

    def dx(self, lam, x):
        den = self.d0(lam) + self.d1(lam) * x
        return (self.n1(lam) * self.d0(lam) - self.n0(lam) * self.d1(lam)) / (den * den)

    def dlam(self, lam, x):
        num = self.n0(lam) + self.n1(lam) * x
        den = self.d0(lam) + self.d1(lam) * x
        dnum = self.n0.deriv()(lam) + self.n1.deriv()(lam) * x
        dden = self.d0.deriv()(lam) + self.d1.deriv()(lam) * x
        return (dnum * den - num * dden) / (den * den)


@dataclass(frozen=True, eq=False)
class ShiftedMap:
    """base(x) + a(lam), with the base frozen at a fixed parameter."""

    base: object
    shift: Poly
    base_lam: float = 0.0
    dlam_exact = True

    def value(self, lam, x):
        return self.base.value(self.base_lam, x) + self.shift(lam)

    def dx(self, lam, x):
        return self.base.dx(self.base_lam, x)

    def dlam(self, lam, x):
        return self.shift.deriv()(lam) * np.ones_like(np.asarray(x, dtype=float))


@dataclass(frozen=True, eq=False)
class CustomMap:
    """Callback-backed map; missing dlam falls back to finite differences."""

    value_fn: object
    dx_fn: object
    dlam_fn: object = None

    @property
    def dlam_exact(self):
        return self.dlam_fn is not None

    def value(self, lam, x):
        return self.value_fn(lam, x)

    def dx(self, lam, x):
        return self.dx_fn(lam, x)

    def dlam(self, lam, x):
        if self.dlam_fn is not None:
            return self.dlam_fn(lam, x)
        h = fd_step(lam)
        return (self.value_fn(lam + h, x) - self.value_fn(lam - h, x)) / (2 * h)


def affine_map(a, b) -> AffineMap:
    """Affine map with constant or Poly coefficients."""
    a = a if isinstance(a, Poly) else poly(a)
    b = b if isinstance(b, Poly) else poly(b)
    return AffineMap(a, b)


def moebius_shift(c) -> RationalMap:
    """x -> (x + c(lam)) / (x + c(lam) + 1)."""
    c = c if isinstance(c, Poly) else poly(c)
    one = poly(1.0)
    c_plus_1 = Poly(tuple(np.polynomial.polynomial.polyadd(c.coeffs, [1.0])))
    return RationalMap(n0=c, n1=one, d0=c_plus_1, d1=one)


def bernoulli_psi(sign: int) -> AffineMap:
    """psi_0 = lam*x - (1-lam) for sign 0, psi_1 = lam*x + (1-lam) for sign 1."""
    if sign == 0:
        return AffineMap(poly(0.0, 1.0), poly(-1.0, 1.0))
    if sign == 1:
        return AffineMap(poly(0.0, 1.0), poly(1.0, -1.0))
    raise ValueError("sign must be 0 or 1")


@dataclass(frozen=True, eq=False)
class IfsFamily:
    maps: tuple
    domain: tuple  # (x_lo, x_hi)
    param_interval: tuple  # (lam_lo, lam_hi)

    def __post_init__(self):
        if len(self.maps) < 1:
            raise ValueError("need at least one map")
        if not self.domain[0] < self.domain[1]:
            raise ValueError("degenerate domain")

    @property
    def m(self) -> int:
        return len(self.maps)

    @property
    def diam(self) -> float:
        return self.domain[1] - self.domain[0]

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.domain[0] + self.domain[1])

    def map(self, j: int):
        if not 1 <= j <= self.m:
            raise ValueError(f"symbol {j} outside 1..{self.m}")
        return self.maps[j - 1]

    def check_lam(self, lam: float):
        lo, hi = self.param_interval
        if not lo - 1e-12 <= lam <= hi + 1e-12:
            raise EvaluationError(f"lambda {lam} outside parameter interval")

    @property
    def dlam_exact(self) -> bool:
        return all(mp.dlam_exact for mp in self.maps)

    def at(self, lam) -> "FrozenFamily":
        """The family frozen at `lam`, memoised for the most recent `lam` only."""
        frozen = _frozen_cache.get(self)
        if frozen is None or frozen.lam != lam:
            frozen = FrozenFamily(tuple(_freeze(mp, lam) for mp in self.maps),
                                  self.domain, lam)
            _frozen_cache[self] = frozen
        return frozen


@dataclass(frozen=True, eq=False)
class _FrozenAffine:
    src: AffineMap
    lam: float
    a: float
    b: float

    def value(self, x):
        return self.a * x + self.b

    def dx(self, x):
        return self.a * np.ones_like(np.asarray(x, dtype=float))

    @functools.cached_property
    def _dlam_coeffs(self):
        """(a'(lam), b'(lam)), built on the first dlam call only."""
        return self.src.slope.deriv()(self.lam), self.src.offset.deriv()(self.lam)

    def dlam(self, x):
        da, db = self._dlam_coeffs
        return da * x + db


@dataclass(frozen=True, eq=False)
class _FrozenRational:
    src: RationalMap
    lam: float
    n0: float
    n1: float
    d0: float
    d1: float
    det: float  # n1 d0 - n0 d1

    def value(self, x):
        return (self.n0 + self.n1 * x) / (self.d0 + self.d1 * x)

    def dx(self, x):
        den = self.d0 + self.d1 * x
        return self.det / (den * den)

    @functools.cached_property
    def _dlam_coeffs(self):
        """(n0', n1', d0', d1') at lam, built on the first dlam call only."""
        src = self.src
        return tuple(c.deriv()(self.lam) for c in (src.n0, src.n1, src.d0, src.d1))

    def dlam(self, x):
        dn0, dn1, dd0, dd1 = self._dlam_coeffs
        num = self.n0 + self.n1 * x
        den = self.d0 + self.d1 * x
        dnum = dn0 + dn1 * x
        dden = dd0 + dd1 * x
        return (dnum * den - num * dden) / (den * den)


@dataclass(frozen=True, eq=False)
class _BoundMap:
    """A map without polynomial coefficients, called at a fixed lambda."""

    inner: object
    lam: float

    def value(self, x):
        return self.inner.value(self.lam, x)

    def dx(self, x):
        return self.inner.dx(self.lam, x)

    def dlam(self, x):
        return self.inner.dlam(self.lam, x)


def _freeze(mp, lam):
    """`mp` at `lam` as a map of x alone.  Coefficients come from the same
    polyval calls as `mp.value` and `mp.dlam`, so the results are the same
    floats."""
    if type(mp) is AffineMap:
        return _FrozenAffine(mp, lam, mp.slope(lam), mp.offset(lam))
    if type(mp) is RationalMap:
        n0, n1, d0, d1 = mp.n0(lam), mp.n1(lam), mp.d0(lam), mp.d1(lam)
        return _FrozenRational(mp, lam, n0, n1, d0, d1, n1 * d0 - n0 * d1)
    return _BoundMap(mp, lam)


def concat_images(fns, y) -> np.ndarray:
    """concat_j fns[j](y), one level of the all-words tree: when y is indexed
    by the codes of the length-k words v, entry (j-1) m^k + code(v) of the
    result belongs to the word j.v."""
    n = np.size(y)
    out = np.empty(len(fns) * n)
    for j, f in enumerate(fns):
        out[j * n:(j + 1) * n] = f(y)
    return out


@dataclass(eq=False)
class FrozenFamily:
    """Maps of a family evaluated at one lambda, plus the natural projection
    of every word, built on demand.  It holds no reference to the family,
    so the per-family memo in `IfsFamily.at` does not keep its key alive."""

    maps: tuple  # each with value(x), dx(x) and dlam(x)
    domain: tuple
    lam: float
    _levels: list = field(default_factory=list, init=False, repr=False)

    @property
    def m(self) -> int:
        return len(self.maps)

    @functools.cached_property
    def tail_point(self) -> float:
        """Pi(1^infty), the fixed point of f_1: the root of f_1(x) - x on the
        domain padded by INVARIANCE_PAD |X| on each side, because a domain
        endpoint may be that fixed point up to rounding."""
        f = self.maps[0].value
        pad = INVARIANCE_PAD * (self.domain[1] - self.domain[0])
        lo, hi = self.domain[0] - pad, self.domain[1] + pad

        def g(x):
            return float(f(x)) - x

        if g(lo) * g(hi) > 0:
            raise EvaluationError(f"f_1(x) - x has no sign change on [{lo!r}, {hi!r}]")
        return solve_root(g, lo, hi)

    def level(self, k: int) -> np.ndarray:
        """Y_k[code(v)] = Pi(v . 1^infty) for every length-k word v, from
        Y_0 = [Pi(1^infty)] and Y_{k+1} = concat_j f_j(Y_k).  Read-only."""
        levels = self._levels
        if not levels:
            levels.append(np.array([self.tail_point]))
        while len(levels) <= k:
            y = concat_images([mp.value for mp in self.maps], levels[-1])
            y.flags.writeable = False
            levels.append(y)
        return levels[k]


_frozen_cache: WeakKeyDictionary = WeakKeyDictionary()


@dataclass
class AuditReport:
    gamma1: float
    gamma2: float
    invariant: bool
    derivative_ok: bool
    monotone_increasing: tuple
    grid_size: int
    log_dx_lipschitz: float  # max |d/dx log|f'|| over the grid, for variation bounds

    @property
    def passed(self) -> bool:
        return self.invariant and self.derivative_ok


_audit_cache: WeakKeyDictionary = WeakKeyDictionary()


def regularity_audit(fam: IfsFamily, grid_size: int = 256) -> AuditReport:
    """Sample |f'| and domain invariance on a (x, lambda) grid.

    Estimates are grid-resolution limited; a PASS is evidence, not proof.
    """
    cached = _audit_cache.get(fam)
    if cached is not None and cached.grid_size >= grid_size:
        return cached
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    lo, hi = fam.domain
    xs = np.linspace(lo, hi, grid_size)
    lams = np.linspace(*fam.param_interval, grid_size)[:, None]
    g1, g2 = np.inf, 0.0
    invariant = True
    deriv_ok = True
    monotone = []
    lip = 0.0
    pad = INVARIANCE_PAD * fam.diam
    step = xs[1] - xs[0]
    for mp in fam.maps:
        v = np.broadcast_to(np.asarray(mp.value(lams, xs[None, :]),
                                       dtype=float), (len(lams), len(xs)))
        d = np.broadcast_to(np.asarray(mp.dx(lams, xs[None, :]),
                                       dtype=float), (len(lams), len(xs)))
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(d))):
            raise EvaluationError("non-finite map evaluation in audit")
        ad = np.abs(d)
        g1 = min(g1, float(ad.min()))
        g2 = max(g2, float(ad.max()))
        if ad.min() <= 0.0 or ad.max() >= 1.0:
            deriv_ok = False
        if v.min() < lo - pad or v.max() > hi + pad:
            invariant = False
        monotone.append(bool(np.all(d > 0)))
        dl = np.abs(np.diff(np.log(np.maximum(ad, 1e-300)), axis=1))
        if dl.size:
            lip = max(lip, float(dl.max()) / step)
    report = AuditReport(gamma1=float(g1), gamma2=float(g2),
                         invariant=invariant, derivative_ok=deriv_ok,
                         monotone_increasing=tuple(monotone),
                         grid_size=grid_size, log_dx_lipschitz=float(lip))
    _audit_cache[fam] = report
    return report


def compose_word(fam: IfsFamily, u, lam: float, x):
    """f_u(x) and its x-derivative by the chain-rule product, for any
    iterable of symbols u; the empty word is the identity.
    """
    fam.check_lam(lam)
    y = np.asarray(x, dtype=float)
    dy = np.ones_like(y)
    for s in reversed(tuple(u)):
        mp = fam.map(s)
        dy = mp.dx(lam, y) * dy
        y = mp.value(lam, y)
    return y, dy


def project_words(fam: IfsFamily, words: np.ndarray, lam: float):
    """(f_w(x0), d/dlam f_w(x0)) for every row w of the (k, n) symbol array
    `words`, x0 the domain midpoint: the natural projection truncated at
    depth n and its parameter derivative, on `fam.at(lam)`.  The derivative
    follows the recursion of `projection_lambda_derivative` when every map
    has an exact dlam, and is a central difference at lam +- fd_step(lam)
    otherwise.

    When every map is an `AffineMap`, one pass gathers each word's
    coefficients by symbol (`_gathered_affine_pass`); any other family
    (Moebius, `CustomMap`, `ShiftedMap` or mixed) takes a pass that masks
    the batch by symbol and calls each frozen map on its share.  Both give
    the same floats."""
    maps = fam.at(lam).maps
    if all(type(mp) is _FrozenAffine for mp in maps):
        return _gathered_affine_pass(maps, words, fam.midpoint)
    k, n = words.shape
    exact = fam.dlam_exact

    def backward_pass(at):
        maps = fam.at(at).maps
        x, d = np.full(k, fam.midpoint), np.zeros(k)
        for pos in range(n - 1, -1, -1):
            col = words[:, pos]
            for j, mp in enumerate(maps, 1):
                mask = col == j
                if mask.any():
                    xm = x[mask]
                    if exact:
                        d[mask] = np.asarray(mp.dlam(xm)) + np.asarray(mp.dx(xm)) * d[mask]
                    x[mask] = mp.value(xm)
        return x, d

    x, d = backward_pass(lam)
    if not exact:
        h = fd_step(lam)
        d = (backward_pass(lam + h)[0] - backward_pass(lam - h)[0]) / (2 * h)
    return x, d


def _gathered_affine_pass(maps, words, x0):
    """`project_words` for frozen affine maps: per position, the tables of
    (a, b, a', b') indexed by the symbol column give x = a x + b and
    d = (a' x + b') + a d, the floats of `mp.value` and of
    `mp.dlam(x) + mp.dx(x) * d` (a * 1.0 = a).  Entry 0 of each table is
    a NaN, so the 1-based symbols index it directly."""
    a, b, da, db = (np.array((np.nan,) + c)
                    for c in zip(*((mp.a, mp.b) + mp._dlam_coeffs for mp in maps)))
    k, n = words.shape
    x, d = np.full(k, x0), np.zeros(k)
    for pos in range(n - 1, -1, -1):
        col = words[:, pos]
        a_col = a.take(col)
        d = da.take(col) * x + db.take(col) + a_col * d
        x = a_col * x + b.take(col)
    return x, d


def _pad_word(fam, u, depth):
    syms = list(u)
    if len(syms) < depth:
        syms += [1] * (depth - len(syms))  # 1^infty tail convention
    return syms[:depth]


def natural_projection(fam: IfsFamily, lam: float, u, depth: int):
    """f_{u|depth}(x0) with x0 the domain midpoint, plus the tail bound."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    syms = _pad_word(fam, u, depth)
    v, _ = compose_word(fam, syms, lam, fam.midpoint)
    aud = regularity_audit(fam)
    return float(v), aud.gamma2 ** depth * fam.diam


def projection_lambda_derivative(fam: IfsFamily, lam: float, u, depth: int,
                                 method: str = "auto") -> float:
    """d/dlam Pi^lam(u) truncated at `depth`.

    The recursion path peels one symbol at a time,
    d = a' + f' * d_next, and needs exact lambda-derivatives of the
    maps; the finite-difference path differentiates the truncated
    projection directly.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    fam.check_lam(lam)
    if method == "auto":
        method = "recursion" if fam.dlam_exact else "fd"
    syms = _pad_word(fam, u, depth)
    if method == "recursion":
        x = fam.midpoint
        d = 0.0
        for s in reversed(syms):
            mp = fam.map(s)
            d = float(mp.dlam(lam, x)) + float(mp.dx(lam, x)) * d
            x = float(mp.value(lam, x))
        return d
    if method == "fd":
        h = fd_step(lam)
        lo, hi = fam.param_interval
        if lam - h < lo or lam + h > hi:
            raise EvaluationError("finite-difference step leaves parameter interval")
        vp, _ = compose_word(fam, syms, lam + h, fam.midpoint)
        vm, _ = compose_word(fam, syms, lam - h, fam.midpoint)
        return float(vp - vm) / (2 * h)
    raise ValueError(f"unknown method {method!r}")


def cylinder_interval(fam: IfsFamily, lam: float, u):
    """Image interval f_u(X); endpoints via the domain endpoints for
    monotone maps, min/max over a small grid otherwise."""
    fam.check_lam(lam)
    aud = regularity_audit(fam)
    if all(aud.monotone_increasing) or _strictly_monotone(fam, lam):
        pts = np.array(fam.domain)
    else:
        pts = np.linspace(*fam.domain, 65)
    v, _ = compose_word(fam, u, lam, pts)
    return float(np.min(v)), float(np.max(v))


def _strictly_monotone(fam, lam) -> bool:
    xs = np.linspace(*fam.domain, 33)
    for mp in fam.maps:
        d = np.asarray(mp.dx(lam, xs))
        if not (np.all(d > 0) or np.all(d < 0)):
            return False
    return True

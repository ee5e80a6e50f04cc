"""Parametrized IFS families on a compact interval.

Maps carry closed-form x- and lambda-derivatives where available; a
`CustomMap` without a lambda-derivative differentiates its own value by
a central difference.  All evaluators accept numpy arrays in x.
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
CYLINDER_GRID = 65  # points of X on which cylinder_interval composes a word


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

    def value(self, lam, x):
        return _freeze(self, lam).value(x)

    def dx(self, lam, x):
        return _freeze(self, lam).dx(x)

    def dlam(self, lam, x):
        return _freeze(self, lam).dlam(x)


@dataclass(frozen=True, eq=False)
class RationalMap:
    """x -> (n0(lam) + n1(lam) x) / (d0(lam) + d1(lam) x)."""

    n0: Poly
    n1: Poly
    d0: Poly
    d1: Poly

    def value(self, lam, x):
        return _freeze(self, lam).value(x)

    def dx(self, lam, x):
        return _freeze(self, lam).dx(x)

    def dlam(self, lam, x):
        return _freeze(self, lam).dlam(x)


@dataclass(frozen=True, eq=False)
class ShiftedMap:
    """base(x) + a(lam), with the base frozen at a fixed parameter."""

    base: object
    shift: Poly
    base_lam: float = 0.0

    @functools.cached_property
    def frozen_base(self):
        """The base map at base_lam, frozen on first use."""
        return _freeze(self.base, self.base_lam)

    def value(self, lam, x):
        return self.frozen_base.value(x) + self.shift(lam)

    def dx(self, lam, x):
        return self.frozen_base.dx(x)

    def dlam(self, lam, x):
        return self.shift.deriv()(lam) * np.ones_like(np.asarray(x, dtype=float))


@dataclass(frozen=True, eq=False)
class CustomMap:
    """Callback-backed map; missing dlam falls back to finite differences."""

    value_fn: object
    dx_fn: object
    dlam_fn: object = None

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
    """`mp` at `lam`, a parameter or an array of them, as a map of x alone:
    the one evaluator of the affine and Moebius formulas, to which
    `AffineMap` and `RationalMap` delegate their own value, dx and dlam."""
    if type(mp) is AffineMap:
        return _FrozenAffine(mp, lam, mp.slope(lam), mp.offset(lam))
    if type(mp) is RationalMap:
        n0, n1, d0, d1 = mp.n0(lam), mp.n1(lam), mp.d0(lam), mp.d1(lam)
        return _FrozenRational(mp, lam, n0, n1, d0, d1, n1 * d0 - n0 * d1)
    return _BoundMap(mp, lam)


def concat_images(fns, y) -> np.ndarray:
    """concat_j fns[j](y) along the last axis, one level of the all-words
    tree: when that axis of y is indexed by the codes of the length-k words
    v, entry (j-1) m^k + code(v) of the result belongs to the word j.v."""
    n = y.shape[-1]
    out = np.empty(y.shape[:-1] + (len(fns) * n,))
    for j, f in enumerate(fns):
        out[..., j * n:(j + 1) * n] = f(y)
    return out


@dataclass(frozen=True, eq=False)
class Collocation:
    """Chebyshev collocation data of a frozen family on n nodes: the
    Chebyshev points of the second kind on the domain, and one barycentric
    interpolation matrix per map, taking values at the nodes to values of
    the interpolant at f_j(nodes)."""

    nodes: np.ndarray  # (n,)
    interp: np.ndarray  # (m, n, n)


def _chebyshev_collocation(maps, domain, n: int) -> Collocation:
    k = np.arange(n)
    lo, hi = domain
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * k / (n - 1))
    weights = np.where(k % 2 == 0, 1.0, -1.0)
    weights[[0, -1]] *= 0.5

    def interp_matrix(y):
        """Second barycentric formula; a point on a node gets its unit row."""
        diff = y[:, None] - nodes
        on_node = diff == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            c = weights / diff
            mat = c / c.sum(axis=1, keepdims=True)
        hit = on_node.any(axis=1)
        mat[hit] = on_node[hit]
        return mat

    interp = np.array([interp_matrix(mp.value(nodes)) for mp in maps])
    return Collocation(nodes, interp)


@dataclass(eq=False)
class FrozenFamily:
    """Maps of a family evaluated at one lambda, plus the natural projection
    of every word and Chebyshev collocation data, built on demand.  It holds no reference to the family,
    so the per-family memo in `IfsFamily.at` does not keep its key alive."""

    maps: tuple  # each with value(x), dx(x) and dlam(x)
    domain: tuple
    lam: float
    _levels: list = field(default_factory=list, init=False, repr=False)
    _collocations: dict = field(default_factory=dict, init=False, repr=False)

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

    def collocation(self, n: int) -> Collocation:
        """Chebyshev collocation data on n nodes, built once per n."""
        col = self._collocations.get(n)
        if col is None:
            col = self._collocations[n] = _chebyshev_collocation(
                self.maps, self.domain, n)
        return col


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
        frozen = _freeze(mp, lams)
        v = np.broadcast_to(np.asarray(frozen.value(xs[None, :]),
                                       dtype=float), (len(lams), len(xs)))
        d = np.broadcast_to(np.asarray(frozen.dx(xs[None, :]),
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


def project_words(fam: IfsFamily, words: np.ndarray, lam: float, x0):
    """(f_w(x0), d/dlam f_w(x0)) for every row w of the (k, n) symbol array
    `words`, x0 one point or one point per row: the one composition of
    maps over words, by the recursion d = dlam f + f' d on `fam.at(lam)`,
    one symbol at a time from the right.

    When every frozen map is affine, one pass gathers each word's
    coefficients by symbol (`_gathered_affine_pass`); any other family
    takes a pass that masks the batch by symbol and calls each frozen map
    on its share.  Both give the same floats.  Symbols are not checked."""
    maps = fam.at(lam).maps
    if all(type(mp) is _FrozenAffine for mp in maps):
        return _gathered_affine_pass(maps, words, x0)
    k, n = words.shape
    x, d = np.full(k, x0, dtype=float), np.zeros(k)
    for pos in range(n - 1, -1, -1):
        col = words[:, pos]
        for j, mp in enumerate(maps, 1):
            mask = col == j
            if mask.any():
                xm = x[mask]
                d[mask] = np.asarray(mp.dlam(xm)) + np.asarray(mp.dx(xm)) * d[mask]
                x[mask] = mp.value(xm)
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
    x, d = np.full(k, x0, dtype=float), np.zeros(k)
    for pos in range(n - 1, -1, -1):
        col = words[:, pos]
        a_col = a.take(col)
        d = da.take(col) * x + db.take(col) + a_col * d
        x = a_col * x + b.take(col)
    return x, d


def _word(fam: IfsFamily, lam: float, u, depth: int) -> np.ndarray:
    """The first `depth` symbols of u . 1^infty as a one-row symbol array,
    once lambda and every symbol are checked (ValueError for a symbol
    outside 1..m)."""
    fam.check_lam(lam)
    syms = list(u)[:depth]
    for s in syms:
        fam.map(s)
    return np.array([syms + [1] * (depth - len(syms))], dtype=int)


def natural_projection(fam: IfsFamily, lam: float, u, depth: int):
    """f_{u|depth}(x0) with x0 the domain midpoint, plus the tail bound."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    x, _ = project_words(fam, _word(fam, lam, u, depth), lam, fam.midpoint)
    return float(x[0]), regularity_audit(fam).gamma2 ** depth * fam.diam


def cylinder_interval(fam: IfsFamily, lam: float, u):
    """Image interval f_u(X): min and max of f_u over CYLINDER_GRID points
    of X, the endpoints included, so a monotone f_u gives its values at
    the endpoints."""
    u = list(u)
    words = np.repeat(_word(fam, lam, u, len(u)), CYLINDER_GRID, axis=0)
    x, _ = project_words(fam, words, lam, np.linspace(*fam.domain, CYLINDER_GRID))
    return float(np.min(x)), float(np.max(x))

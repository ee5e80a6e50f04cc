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


def fd_step(lam):
    return FD_STEP_SCALE * np.maximum(1.0, np.abs(lam))


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


class _FrozenEvaluated:
    """Base of the maps with polynomial coefficients, whose value, dx and
    dlam at lam are those of `_freeze(self, lam)`.  Each subclass gets the
    three in its own namespace, where perfbench's tracer wraps them."""

    def __init_subclass__(cls):
        for name in ("value", "dx", "dlam"):
            setattr(cls, name, vars(_FrozenEvaluated)[name])

    def value(self, lam, x):
        return _freeze(self, lam).value(x)

    def dx(self, lam, x):
        return _freeze(self, lam).dx(x)

    def dlam(self, lam, x):
        return _freeze(self, lam).dlam(x)


@dataclass(frozen=True, eq=False)
class AffineMap(_FrozenEvaluated):
    """x -> a(lam) * x + b(lam)."""

    slope: Poly
    offset: Poly


@dataclass(frozen=True, eq=False)
class RationalMap(_FrozenEvaluated):
    """x -> (n0(lam) + n1(lam) x) / (d0(lam) + d1(lam) x)."""

    n0: Poly
    n1: Poly
    d0: Poly
    d1: Poly


@dataclass(frozen=True, eq=False)
class ShiftedMap(_FrozenEvaluated):
    """base(x) + a(lam), with the base frozen at a fixed parameter."""

    base: object
    shift: Poly
    base_lam: float = 0.0

    @functools.cached_property
    def frozen_base(self):
        """The base map at base_lam, frozen on first use."""
        return _freeze(self.base, self.base_lam)


@dataclass(frozen=True, eq=False)
class CustomMap:
    """Callback-backed map; missing dlam falls back to finite differences.
    Callbacks receive lambda as an array that broadcasts against x, as the
    audit, the collocation and `project_words` pass it."""

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
        """The family frozen at `lam`: one value, memoised for the most
        recent one only, or an (L, 1) column of L values, whose collocation
        data then carry a leading lambda axis."""
        frozen = _frozen_cache.get(self)
        if np.ndim(lam) or frozen is None or frozen.lam != lam:
            frozen = FrozenFamily(tuple(_freeze(mp, lam) for mp in self.maps),
                                  self.domain, lam)
            if not np.ndim(lam):
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
class _FrozenShifted:
    src: ShiftedMap
    lam: float
    base: object  # src.frozen_base
    shift: float  # a(lam)

    def value(self, x):
        return self.base.value(x) + self.shift

    def dx(self, x):
        return self.base.dx(x)

    @functools.cached_property
    def _dshift(self):
        """a'(lam), built on the first dlam call only."""
        return self.src.shift.deriv()(self.lam)

    def dlam(self, x):
        return self._dshift * np.ones_like(np.asarray(x, dtype=float))


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
    the one evaluator of the affine, Moebius and shifted formulas, to which
    `AffineMap`, `RationalMap` and `ShiftedMap` delegate their own value,
    dx and dlam."""
    if type(mp) is AffineMap:
        return _FrozenAffine(mp, lam, mp.slope(lam), mp.offset(lam))
    if type(mp) is RationalMap:
        n0, n1, d0, d1 = mp.n0(lam), mp.n1(lam), mp.d0(lam), mp.d1(lam)
        return _FrozenRational(mp, lam, n0, n1, d0, d1, n1 * d0 - n0 * d1)
    if type(mp) is ShiftedMap:
        return _FrozenShifted(mp, lam, mp.frozen_base, mp.shift(lam))
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
    Chebyshev points of the second kind on the domain, their images under
    each map, log|f_j'| at the nodes, and one barycentric interpolation
    matrix per map, taking values at the nodes to values of the
    interpolant at f_j(nodes).  A family frozen at L lambdas gives images,
    logs and matrices a leading axis L."""

    nodes: np.ndarray  # (n,)
    images: np.ndarray  # (m, n) or (L, m, n), f_j(nodes)
    log_dx: np.ndarray  # (m, n) or (L, m, n), log|f_j'(nodes)|, -inf where f_j' = 0
    interp: np.ndarray  # (m, n, n) or (L, m, n, n)


def _chebyshev_collocation(maps, domain, n: int, lead: tuple) -> Collocation:
    """Collocation data of `maps`, frozen at one lambda (lead = ()) or at an
    (L, 1) column of them (lead = (L,)), all matrices in one stacked pass."""
    k = np.arange(n)
    lo, hi = domain
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * k / (n - 1))
    weights = np.where(k % 2 == 0, 1.0, -1.0)
    weights[[0, -1]] *= 0.5
    y = np.broadcast_to(nodes, lead + (n,))
    images = np.empty(lead + (len(maps), n))
    log_dx = np.empty_like(images)
    for j, mp in enumerate(maps):
        images[..., j, :] = mp.value(y)
        with np.errstate(divide="ignore"):  # a zero f_j' is the caller's to report
            log_dx[..., j, :] = np.log(np.abs(mp.dx(y)))
    # second barycentric formula; a point on a node gets its unit row
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c = weights / (images[..., None] - nodes)
        interp = c / c.sum(axis=-1, keepdims=True)
    on_node = np.isinf(c)  # y on a node, or so near one that 1/diff overflows
    hit = on_node.any(axis=-1)
    interp[hit] = on_node[hit]
    return Collocation(nodes, images, log_dx, interp)


@dataclass(eq=False)
class FrozenFamily:
    """Maps of a family evaluated at one lambda, plus the natural projection
    of every word and Chebyshev collocation data, built on demand; or at an
    (L, 1) column of lambdas, for collocation data only.  It holds no
    reference to the family, so the per-family memo in `IfsFamily.at` does
    not keep its key alive."""

    maps: tuple  # each with value(x), dx(x) and dlam(x)
    domain: tuple
    lam: float  # or an (L, 1) array
    _levels: list = field(default_factory=list, init=False, repr=False)
    _collocations: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def m(self) -> int:
        return len(self.maps)

    @property
    def lam_shape(self) -> tuple:
        """() for a family frozen at one lambda, (L,) at an (L, 1) column."""
        return np.shape(self.lam)[:-1]

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

        with np.errstate(divide="ignore", invalid="ignore"):  # f_1 may have a pole at an end
            ends = g(lo) * g(hi)
        if not (np.isfinite(ends) and ends <= 0):
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
                self.maps, self.domain, n, self.lam_shape)
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
    # sup |d/dx log|f'||, for variation bounds: closed form for affine and
    # Moebius maps, the largest secant over the x grid for the others
    log_dx_lipschitz: float
    method: str  # "exact" in x when every map is affine or Moebius, else "sampled"

    @property
    def passed(self) -> bool:
        return self.invariant and self.derivative_ok


_audit_cache: WeakKeyDictionary = WeakKeyDictionary()


def regularity_audit(fam: IfsFamily, grid_size: int = 256) -> AuditReport:
    """|f'|, monotonicity and domain invariance of every map over
    `grid_size` values of lambda spanning the parameter interval.

    Affine and Moebius maps are evaluated at the two domain endpoints only,
    which is exact in x: f' is constant for an affine map, and on a
    pole-free domain a Moebius map and |f'| = |det| / den^2 are monotone,
    so their extremes over X sit at the endpoints; a sign change of
    den = d0 + d1 x between the endpoints is a pole on X and raises
    EvaluationError.  log_dx_lipschitz is then 0, or the largest
    2 |d1| / |den| at the endpoints.  Any other map is sampled on
    `grid_size` points of X, both endpoints included, and its Lipschitz
    constant is the largest secant of log|f'| there.  lambda is sampled in
    either case, so a PASS is exact in x only, and evidence at grid
    resolution in lambda.
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
    exact = True
    for j, mp in enumerate(fam.maps, 1):
        at_ends = at_interval_ends(mp, lams, (lo, hi))
        exact = exact and at_ends is not None
        if at_ends is not None:
            v, d, (_, _, _, d1), den = at_ends
        else:
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
        if at_ends is not None:
            if np.any(np.signbit(den[:, 0]) != np.signbit(den[:, 1])):
                raise EvaluationError(f"Moebius map {j} has a pole "
                                      f"on the domain [{lo!r}, {hi!r}]")
            lip = max(lip, float(np.max(2 * np.abs(d1) / np.abs(den))))
        else:
            dl = np.abs(np.diff(np.log(np.maximum(ad, 1e-300)), axis=1))
            lip = max(lip, float(dl.max()) / step)
    report = AuditReport(gamma1=float(g1), gamma2=float(g2),
                         invariant=invariant, derivative_ok=deriv_ok,
                         monotone_increasing=tuple(monotone),
                         grid_size=grid_size, log_dx_lipschitz=float(lip),
                         method="exact" if exact else "sampled")
    _audit_cache[fam] = report
    return report


def at_interval_ends(mp, lams, ends):
    """The map `mp` frozen over the (L, 1) column `lams`, at the two points
    `ends` = (lo, hi): (value, dx, (n0, n1, d0, d1), den), value, dx and
    den = d0 + d1 x of shape (L, 2), an affine map a x + b taken as n0 = b,
    n1 = a, d0 = 1, d1 = 0; or None for a map with no closed form, any map
    but an `AffineMap` or `RationalMap`.  Where den keeps its sign between
    the two points, [lo, hi] holds no pole, and the map and
    |f'| = |n1 d0 - n0 d1| / den^2 are monotone on it, so their extremes
    over [lo, hi] are at these two points: the exact-in-x evaluation of
    `regularity_audit` and of the probe's prefix screen."""
    if type(mp) not in (AffineMap, RationalMap):
        return None
    frozen = _freeze(mp, lams)
    x = np.asarray(ends, dtype=float)[None, :]
    shape = (len(lams), 2)
    v = np.broadcast_to(np.asarray(frozen.value(x), dtype=float), shape)
    d = np.broadcast_to(np.asarray(frozen.dx(x), dtype=float), shape)
    if type(frozen) is _FrozenAffine:
        coeffs = (frozen.b, frozen.a, 1.0, 0.0)
    else:
        coeffs = (frozen.n0, frozen.n1, frozen.d0, frozen.d1)
    den = np.broadcast_to(coeffs[2] + coeffs[3] * x, shape)
    return v, d, coeffs, den


def project_words(fam: IfsFamily, words: np.ndarray, lam, x0, dlam: bool = True):
    """(f_w(x0), d/dlam f_w(x0)) for every row w of the (k, n) symbol array
    `words`, x0 one point or one point per row: the one composition of
    maps over words, by the recursion d = dlam f + f' d on the maps frozen
    at lambda, one symbol at a time from the right.  `lam` is one value,
    giving arrays of shape (k,), or a 1-D array of L values, giving (L, k);
    one value is the case L = 1.  Symbols are integers in 1..m, else ValueError.

    With `dlam=False` only x is composed, the same floats, and None stands
    in place of d: no map's dx or dlam is called and no d/dlam coefficient
    is built, so a caller that reads d on a few rows can screen by x first.

    Each map is frozen once over the lambda array.  When every map is
    affine, one pass gathers each word's coefficients by symbol for every
    lambda at once (`_gathered_affine_pass`); any other family takes a
    pass that masks the batch by symbol and calls each frozen map on its
    (rows, L) share.  Both give the same floats."""
    lams = np.atleast_1d(lam)
    if lams.ndim != 1 or not lams.size:
        raise ValueError("lam must be one value or a non-empty 1-D array")
    if words.size and (words.dtype.kind not in "iu" or words.min() < 1 or words.max() > fam.m):
        outside = ~np.isin(words, np.arange(1, fam.m + 1))
        raise ValueError(f"symbol {words.flat[np.argmax(outside)]} outside 1..{fam.m}"
                         if outside.any() else f"symbols of dtype {words.dtype}, not integers")
    frozen = [_freeze(mp, lams) for mp in fam.maps]
    if all(type(mp) is _FrozenAffine for mp in frozen):
        x, d = _gathered_affine_pass(frozen, words, x0, dlam)
    else:
        x = np.full((len(words), len(lams)), np.reshape(x0, (-1, 1)), dtype=float)
        d = np.zeros_like(x) if dlam else None
        for col in words.T[::-1]:
            for j, mp in enumerate(frozen, 1):
                mask = col == j
                if mask.any():
                    xm = x[mask]
                    if dlam:
                        d[mask] = np.asarray(mp.dlam(xm)) + np.asarray(mp.dx(xm)) * d[mask]
                    x[mask] = mp.value(xm)
        x, d = x.T, d if d is None else d.T
    if not np.ndim(lam):
        x, d = x[0], d if d is None else d[0]
    return x, d


def _gathered_affine_pass(frozen, words, x0, dlam):
    """`project_words` for affine maps, each frozen once over the L
    lambdas: the (m + 1, L) tables of (a, b), and of (a', b') when `dlam`,
    gathered once per symbol column for every lambda, give x = a x + b and
    d = (a' x + b') + a d, the floats of `mp.value` and of
    `mp.dlam(x) + mp.dx(x) * d` (a * 1.0 = a).  Row 0 of each table is a
    NaN, so the 1-based symbols index it directly."""
    coeffs = np.array([(mp.a, mp.b) + (mp._dlam_coeffs if dlam else ())
                       for mp in frozen]).transpose(1, 0, 2)
    L = coeffs.shape[2]
    a, b, *dab = np.concatenate((np.full((len(coeffs), 1, L), np.nan), coeffs), axis=1)
    x = np.full((len(words), L), np.reshape(x0, (-1, 1)), dtype=float)
    d = np.zeros_like(x) if dlam else None
    da, db = dab if dlam else (None, None)
    for col in np.ascontiguousarray(words.T)[::-1]:
        a_col = a.take(col, axis=0)
        if dlam:
            d = da.take(col, axis=0) * x + db.take(col, axis=0) + a_col * d
        x = a_col * x + b.take(col, axis=0)
    return x.T, d if d is None else d.T


def _word(fam: IfsFamily, lam: float, u, depth: int) -> np.ndarray:
    """The first `depth` symbols of u . 1^infty as a one-row symbol array,
    once lambda is checked (`project_words` checks the symbols)."""
    fam.check_lam(lam)
    syms = list(u)[:depth]
    return np.array([syms + [1] * (depth - len(syms))])


def natural_projection(fam: IfsFamily, lam: float, u, depth: int):
    """f_{u|depth}(x0) with x0 the domain midpoint, plus the tail bound."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    x, _ = project_words(fam, _word(fam, lam, u, depth), lam, fam.midpoint, dlam=False)
    return float(x[0]), regularity_audit(fam).gamma2 ** depth * fam.diam


def cylinder_interval(fam: IfsFamily, lam: float, u):
    """Image interval f_u(X): min and max of f_u over CYLINDER_GRID points
    of X, the endpoints included, so a monotone f_u gives its values at
    the endpoints."""
    u = list(u)
    words = np.repeat(_word(fam, lam, u, len(u)), CYLINDER_GRID, axis=0)
    x, _ = project_words(fam, words, lam, np.linspace(*fam.domain, CYLINDER_GRID),
                         dlam=False)
    return float(np.min(x)), float(np.max(x))

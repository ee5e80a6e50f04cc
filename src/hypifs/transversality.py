"""Transversality certification for vertical translation families and
Monte-Carlo probing of the transversality condition for general families."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ifs import (IfsFamily, ShiftedMap, cylinder_interval, poly, project_words,
                  regularity_audit, solve_root)

LAMBDA_SWEEP_GRID = 1024
NEAR_COLLISION_REL = 1e-3  # near-collision: |Phi| < NEAR_COLLISION_REL * diam(X)
FALSIFY_PHI_REL = 1e-9  # witness: |Phi| < FALSIFY_PHI_REL * diam(X) ...
FALSIFY_DPHI_TOL = 1e-6  # ... and |d/dlam Phi| < FALSIFY_DPHI_TOL


class PartitionError(RuntimeError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True, eq=False)
class TranslationFamily:
    """f_j^lam(x) = f_j(x) + a_j(lam); the base maps are evaluated at
    base_lam only."""

    base_maps: tuple
    translations: tuple  # Poly per map
    domain: tuple
    param_interval: tuple
    base_lam: float = 0.0
    gamma2_warning: bool = False

    @property
    def m(self):
        return len(self.base_maps)

    def to_ifs(self) -> IfsFamily:
        maps = tuple(ShiftedMap(b, a, self.base_lam)
                     for b, a in zip(self.base_maps, self.translations))
        return IfsFamily(maps, self.domain, self.param_interval)


@dataclass
class PairData:
    i: int
    j: int
    X_ij: tuple  # interval or None
    X_ji: tuple
    norm_fi: float
    norm_fj: float
    eta_ij: float
    margin1: float
    margin2: float


@dataclass
class TransversalityReport:
    verdict: str  # CERTIFIED-cond1 | CERTIFIED-cond2 | INCONCLUSIVE | FALSIFIED
    d_max: float = math.nan
    pairs: list = field(default_factory=list)
    empirical_eta: float = math.inf
    n_events: int = 0
    n_samples: int = 0
    witness: tuple = None  # (u, v, lam) on falsification
    seed: int = None

    def lines(self):
        out = [f"verdict: {self.verdict}"]
        if not math.isnan(self.d_max):
            out.append(f"d_max: {self.d_max:.12g}")
        for p in self.pairs:
            out.append(f"pair {p.i},{p.j}: eta={p.eta_ij:.12g} "
                       f"margin1={p.margin1:.12g} margin2={p.margin2:.12g}")
        if self.n_samples:
            out.append(f"samples: {self.n_samples}")
            out.append(f"near_collisions: {self.n_events}")
            out.append(f"empirical_eta: {self.empirical_eta:.12g}")
        if self.witness is not None:
            u, v, lam = self.witness
            out.append(f"witness: u={''.join(map(str, u))} "
                       f"v={''.join(map(str, v))} lambda={lam:.12g}")
        return out


def _sweep(fn, interval):
    xs = np.linspace(*interval, LAMBDA_SWEEP_GRID)
    vals = np.asarray(fn(xs), dtype=float)
    step = xs[1] - xs[0]
    slope = np.abs(np.diff(vals)).max() / step if step > 0 else 0.0
    pad = step * slope
    return float(vals.min()) - pad, float(vals.max()) + pad


def _base_image(tf: TranslationFamily, i: int):
    xs = np.linspace(*tf.domain, 257)
    v = np.asarray(tf.base_maps[i - 1].value(tf.base_lam, xs), dtype=float)
    return float(v.min()), float(v.max())


def _invert_base(tf: TranslationFamily, i: int, y: float) -> float:
    mp = tf.base_maps[i - 1]
    lo, hi = tf.domain

    def g(x):
        return float(mp.value(tf.base_lam, x)) - y

    glo, ghi = g(lo), g(hi)
    if glo * ghi > 0:  # y outside the image; clamp to the nearer endpoint
        return lo if abs(glo) < abs(ghi) else hi
    return solve_root(g, lo, hi)


def overlap_domain(tf: TranslationFamily, i: int, j: int):
    """X_ij = {x : exists lam, y with f_i(x) + a_i(lam) = f_j(y) + a_j(lam)},
    or None when the cylinders never overlap across the sweep."""
    if i == j:
        raise ValueError("need i != j")
    ai, aj = tf.translations[i - 1], tf.translations[j - 1]
    dlo, dhi = _sweep(lambda l: aj(l) - ai(l), tf.param_interval)
    fj_lo, fj_hi = _base_image(tf, j)
    fi_lo, fi_hi = _base_image(tf, i)
    tgt_lo = max(fj_lo + dlo, fi_lo)
    tgt_hi = min(fj_hi + dhi, fi_hi)
    if tgt_lo > tgt_hi:
        return None
    a = _invert_base(tf, i, tgt_lo)
    b = _invert_base(tf, i, tgt_hi)
    return (min(a, b), max(a, b))


def _sup_abs_dx(tf: TranslationFamily, i: int, interval) -> float:
    xs = np.linspace(interval[0], interval[1], 513)
    d = np.abs(np.asarray(tf.base_maps[i - 1].dx(tf.base_lam, xs), dtype=float))
    return float(d.max())


def d_max(tf: TranslationFamily) -> float:
    out = 0.0
    for i in range(1, tf.m + 1):
        sup_ap = max(abs(v) for v in
                     _sweep(tf.translations[i - 1].deriv(), tf.param_interval))
        sup_f = _sup_abs_dx(tf, i, tf.domain)
        out = max(out, sup_ap / (1.0 - sup_f))
    return out


def vertical_certificate(tf: TranslationFamily) -> TransversalityReport:
    """Sufficient-condition certificate: cond1 needs positive margin
    eta_ij - (|f_i'|_{X_ij} + |f_j'|_{X_ji}) D_max on every overlapping
    pair; cond2 applies when all maps and translations are monotone
    increasing.  Failure of both is INCONCLUSIVE, never FALSIFIED."""
    dmax = d_max(tf)
    aud = regularity_audit(tf.to_ifs())
    monotone_ok = all(aud.monotone_increasing)
    incr_translations = True
    for a in tf.translations:
        lo, _ = _sweep(a.deriv(), tf.param_interval)
        if lo < 0:
            incr_translations = False
    pairs = []
    all1 = True
    all2 = True
    any_pair = False
    for i in range(1, tf.m + 1):
        for j in range(i + 1, tf.m + 1):
            xij = overlap_domain(tf, i, j)
            xji = overlap_domain(tf, j, i)
            if xij is None and xji is None:
                continue
            any_pair = True
            ai = tf.translations[i - 1].deriv()
            aj = tf.translations[j - 1].deriv()
            lo, _ = _sweep(lambda l: np.abs(ai(l) - aj(l)),
                               tf.param_interval)
            eta = max(lo, 0.0)
            nfi = _sup_abs_dx(tf, i, xij) if xij else 0.0
            nfj = _sup_abs_dx(tf, j, xji) if xji else 0.0
            m1 = eta - (nfi + nfj) * dmax
            m2 = eta - nfj * dmax
            pairs.append(PairData(i, j, xij, xji, nfi, nfj, eta, m1, m2))
            if m1 <= 0:
                all1 = False
            if m2 <= 0:
                all2 = False
    if not any_pair or all1:
        verdict = "CERTIFIED-cond1"
    elif monotone_ok and incr_translations and all2:
        verdict = "CERTIFIED-cond2"
    else:
        verdict = "INCONCLUSIVE"
    return TransversalityReport(verdict=verdict, d_max=dmax, pairs=pairs)


def greedy_partition(intervals):
    """Split interval indices (0-based) into two classes with pairwise
    disjoint members, greedily by left endpoint; fails with a witness
    point when some point is covered more than twice."""
    if not intervals:
        raise ValueError("empty interval list")
    ivs = [(float(a), float(b)) for a, b in intervals]
    for a, b in ivs:
        if a > b:
            raise ValueError("malformed interval")
    for x in sorted({e for iv in ivs for e in iv}):
        mult = sum(1 for a, b in ivs if a <= x <= b)
        if mult > 2:
            raise PartitionError(
                f"point {x} covered by {mult} intervals", witness=x)
    # left endpoints ascending, ties broken by longer interval first
    order = sorted(range(len(ivs)),
                   key=lambda k: (ivs[k][0], -(ivs[k][1] - ivs[k][0])))
    class_plus = [order[0]]
    cur_b = ivs[order[0]][1]
    for k in order[1:]:
        if ivs[k][0] > cur_b:
            class_plus.append(k)
            cur_b = ivs[k][1]
    class_minus = [k for k in range(len(ivs)) if k not in class_plus]
    for cls in (class_plus, class_minus):
        for a in range(len(cls)):
            for b in range(a + 1, len(cls)):
                ia, ib = ivs[cls[a]], ivs[cls[b]]
                if max(ia[0], ib[0]) <= min(ia[1], ib[1]):
                    raise PartitionError(
                        "partition classes not disjoint",
                        witness=max(ia[0], ib[0]))
    return class_plus, class_minus


def build_pm_translation(base: IfsFamily, lam0: float,
                         halfwidth: float) -> TranslationFamily:
    """Translation family f_j + kappa(j) * lam with kappa in {-1, +1}
    from the greedy partition of the level-1 cylinder intervals; the
    halfwidth is shrunk until invariance and within-class disjointness
    hold at the sweep endpoints."""
    aud = regularity_audit(base)
    warn = aud.gamma2 >= 0.5
    intervals = [cylinder_interval(base, lam0, [j]) for j in range(1, base.m + 1)]
    if base.m == 1:
        plus, minus = [0], []
    else:
        plus, minus = greedy_partition(intervals)
    kappa = [1 if k in plus else -1 for k in range(base.m)]
    translations = tuple(poly(0.0, float(k)) for k in kappa)
    lo, hi = base.domain
    h = float(halfwidth)
    for _ in range(60):
        ok = True
        for lam in (-h, h):
            shifted = [(iv[0] + kp * lam, iv[1] + kp * lam)
                       for iv, kp in zip(intervals, kappa)]
            for a, b in shifted:
                if a < lo or b > hi:
                    ok = False
            for cls in (plus, minus):
                for x in range(len(cls)):
                    for y in range(x + 1, len(cls)):
                        ia, ib = shifted[cls[x]], shifted[cls[y]]
                        if max(ia[0], ib[0]) <= min(ia[1], ib[1]):
                            ok = False
        if ok:
            break
        h *= 0.5
        if h < 1e-15:
            raise ValueError("no positive halfwidth achieves invariance")
    return TranslationFamily(base_maps=base.maps, translations=translations,
                             domain=base.domain, param_interval=(-h, h),
                             base_lam=lam0, gamma2_warning=warn)


def mc_transversality_probe(fam: IfsFamily, samples: int = 10000,
                            depth: int = 40, seed: int = 0,
                            lam_grid: int = 17) -> TransversalityReport:
    """Sample word pairs with distinct first symbols and sweep lambda,
    recording near-collisions of the projections and the minimum
    |d/dlam Phi| over them.  A simultaneous near-zero of Phi and its
    derivative is a falsification witness; anything else is evidence."""
    if fam.m < 2:
        raise ValueError("need at least two symbols")
    if samples < 1:
        raise ValueError("need at least one sample")
    if depth < 1:
        raise ValueError("need depth >= 1")
    if lam_grid < 1:
        raise ValueError(f"need lam_grid >= 1, got {lam_grid}")
    eta0 = NEAR_COLLISION_REL * fam.diam
    falsify_phi_tol = FALSIFY_PHI_REL * fam.diam
    rng = np.random.default_rng(seed)
    u = rng.integers(1, fam.m + 1, size=(samples, depth))
    v = rng.integers(1, fam.m + 1, size=(samples, depth))
    clash = u[:, 0] == v[:, 0]
    v[clash, 0] = 1 + (v[clash, 0] % fam.m)  # force distinct first symbols
    lams = np.linspace(*fam.param_interval, lam_grid)
    emp_eta = math.inf
    events = 0
    witness = None
    for lam in lams:
        pu, du = project_words(fam, u, lam)
        pv, dv = project_words(fam, v, lam)
        phi = pu - pv
        dphi = du - dv
        near = np.abs(phi) < eta0
        events += int(near.sum())
        if near.any():
            emp_eta = min(emp_eta, float(np.abs(dphi[near]).min()))
            bad = near & (np.abs(phi) < falsify_phi_tol) & \
                (np.abs(dphi) < FALSIFY_DPHI_TOL)
            if bad.any() and witness is None:
                k = int(np.argmax(bad))
                witness = (tuple(u[k]), tuple(v[k]), float(lam))
    verdict = "FALSIFIED" if witness is not None else "INCONCLUSIVE"
    return TransversalityReport(verdict=verdict, empirical_eta=emp_eta,
                                n_events=events, n_samples=samples * lam_grid,
                                witness=witness, seed=seed)

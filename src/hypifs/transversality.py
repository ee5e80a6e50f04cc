"""Transversality certification for vertical translation families and
Monte-Carlo probing of the transversality condition for general families."""

from __future__ import annotations

import itertools
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


def _shifted(tf: IfsFamily, i: int) -> ShiftedMap:
    """Map i of the translation family `tf`, which must be a ShiftedMap."""
    mp = tf.map(i)
    if not isinstance(mp, ShiftedMap):
        raise ValueError(f"map {i} ({type(mp).__name__}) is not a ShiftedMap")
    return mp


def _base_image(tf: IfsFamily, i: int):
    xs = np.linspace(*tf.domain, 257)
    v = np.asarray(_shifted(tf, i).frozen_base.value(xs), dtype=float)
    return float(v.min()), float(v.max())


def _invert_base(tf: IfsFamily, i: int, y: float) -> float:
    base = _shifted(tf, i).frozen_base
    lo, hi = tf.domain

    def g(x):
        return float(base.value(x)) - y

    glo, ghi = g(lo), g(hi)
    if glo * ghi > 0:  # y outside the image; clamp to the nearer endpoint
        return lo if abs(glo) < abs(ghi) else hi
    return solve_root(g, lo, hi)


def overlap_domain(tf: IfsFamily, i: int, j: int):
    """X_ij = {x : exists lam, y with f_i(x) + a_i(lam) = f_j(y) + a_j(lam)},
    or None when the cylinders never overlap across the sweep."""
    if i == j:
        raise ValueError("need i != j")
    ai, aj = _shifted(tf, i).shift, _shifted(tf, j).shift
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


def _sup_abs_dx(tf: IfsFamily, i: int, interval) -> float:
    xs = np.linspace(interval[0], interval[1], 513)
    d = np.abs(np.asarray(_shifted(tf, i).frozen_base.dx(xs), dtype=float))
    return float(d.max())


def d_max(tf: IfsFamily) -> float:
    out = 0.0
    for i in range(1, tf.m + 1):
        sup_ap = max(abs(v) for v in
                     _sweep(_shifted(tf, i).shift.deriv(), tf.param_interval))
        sup_f = _sup_abs_dx(tf, i, tf.domain)
        out = max(out, sup_ap / (1.0 - sup_f))
    return out


def vertical_certificate(tf: IfsFamily) -> TransversalityReport:
    """Sufficient-condition certificate for a translation family, an
    IfsFamily of ShiftedMaps (a ValueError for any other map): cond1 needs
    positive margin eta_ij - (|f_i'|_{X_ij} + |f_j'|_{X_ji}) D_max on every
    overlapping pair; cond2 applies when all maps and translations are
    monotone increasing.  Failure of both is INCONCLUSIVE, never FALSIFIED."""
    dmax = d_max(tf)
    aud = regularity_audit(tf)
    monotone_ok = all(aud.monotone_increasing)
    shifts = [mp.shift for mp in tf.maps]
    incr_translations = not any(_sweep(a.deriv(), tf.param_interval)[0] < 0 for a in shifts)
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
            ai = shifts[i - 1].deriv()
            aj = shifts[j - 1].deriv()
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


def _class_overlap(ivs, classes):
    """The left end of the first overlap of two intervals `ivs[k]` whose
    indices k lie in one of `classes`, or None when every class is
    pairwise disjoint."""
    for cls in classes:
        for ka, kb in itertools.combinations(cls, 2):
            ia, ib = ivs[ka], ivs[kb]
            if max(ia[0], ib[0]) <= min(ia[1], ib[1]):
                return max(ia[0], ib[0])
    return None


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
    witness = _class_overlap(ivs, (class_plus, class_minus))
    if witness is not None:
        raise PartitionError("partition classes not disjoint", witness=witness)
    return class_plus, class_minus


def build_pm_translation(base: IfsFamily, lam0: float,
                         halfwidth: float) -> IfsFamily:
    """Translation family of ShiftedMaps f_j + kappa(j) * lam, the base
    maps frozen at lam0, with kappa in {-1, +1} from the greedy partition
    of the level-1 cylinder intervals; the halfwidth is shrunk until
    invariance and within-class disjointness hold at the sweep
    endpoints.  A halfwidth that is not positive, or one that 60 halvings
    do not bring to a valid one, raises ValueError."""
    if not halfwidth > 0:
        raise ValueError(f"halfwidth must be positive, got {halfwidth}")
    intervals = [cylinder_interval(base, lam0, [j]) for j in range(1, base.m + 1)]
    if base.m == 1:
        plus, minus = [0], []
    else:
        plus, minus = greedy_partition(intervals)
    kappa = [1 if k in plus else -1 for k in range(base.m)]
    lo, hi = base.domain
    h = float(halfwidth)
    for _ in range(60):
        ends = [[(a + kp * lam, b + kp * lam) for (a, b), kp in zip(intervals, kappa)]
                for lam in (-h, h)]
        if not any(a < lo or b > hi for ivs in ends for a, b in ivs) and \
                all(_class_overlap(ivs, (plus, minus)) is None for ivs in ends):
            break
        h *= 0.5
        if h < 1e-15:
            raise ValueError("no positive halfwidth achieves invariance")
    else:
        raise ValueError(f"no halfwidth within 60 halvings of {halfwidth} "
                         f"achieves invariance")
    maps = tuple(ShiftedMap(mp, poly(0.0, float(k)), lam0)
                 for mp, k in zip(base.maps, kappa))
    return IfsFamily(maps, base.domain, (-h, h))


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
        pu, du = project_words(fam, u, lam, fam.midpoint)
        pv, dv = project_words(fam, v, lam, fam.midpoint)
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

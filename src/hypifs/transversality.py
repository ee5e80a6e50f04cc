"""Transversality certification for vertical translation families and
Monte-Carlo probing of the transversality condition for general families."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .ifs import (IfsFamily, ShiftedMap, at_interval_ends, cylinder_interval, poly,
                  project_words, regularity_audit, solve_root)

LAMBDA_SWEEP_GRID = 1024
NEAR_COLLISION_REL = 1e-3  # near-collision: |Phi| < NEAR_COLLISION_REL * diam(X)
FALSIFY_PHI_REL = 1e-9  # witness: |Phi| < FALSIFY_PHI_REL * diam(X) ...
FALSIFY_DPHI_TOL = 1e-6  # ... and |d/dlam Phi| < FALSIFY_DPHI_TOL
# PROBE_CHUNK, the pairs of each block in every pass of the probe, and K, the
# symbols of each word the prefix screen composes.  On the benchmark's two
# probes (Bernoulli: 10,000 pairs of depth 40 at 17 lambdas on (0.5, 0.66);
# two identical maps: 2,000 pairs), the least of 75 in-process rounds (three
# runs of 25) on 2 vCPUs, Python 3.11, numpy 2.4: at K = 8 a round took
# 36.3, 32.3 and 36.8 ms with blocks of 512, 1024 and 2048 pairs, the
# Bernoulli probe peaking at 7.5, 7.6 and 7.6 MB traced; with 1024, 62.0 ms
# unscreened, and 36.6, 32.3, 34.1, 37.3 and 44.4 ms at K = 6, 8, 10, 12 and
# 14, the Bernoulli probe keeping 11.6, 7.8, 5.6, 3.8 and 2.4 % of its pairs
# and peaking at 7.9, 7.6, 7.7, 8.2 and 9.4 MB
PROBE_CHUNK = 1024
PREFIX_SYMBOLS = 8
PREFIX_PAD_REL = 1e-6  # delta / |X|: X' is X widened by delta at each end
PREFIX_SLACK_REL = 1e-9  # the least slack of the prefix screen's drop rule / |X|


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
    alphabet_size: int = 0  # m; from 10 maps on, lines() separates the witness symbols

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
            sep = "," if self.alphabet_size >= 10 else ""
            out.append(f"witness: u={sep.join(map(str, u))} "
                       f"v={sep.join(map(str, v))} lambda={lam:.12g}")
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


def _prefix_limits(fam: IfsFamily, lams, depth: int, eta0: float):
    """Per lambda, the least |Phi_K| at which the prefix screen drops a pair,
    eta0 + 2 Gamma^K (|X|/2 + delta) + slack; or None, and every pair goes
    on, unless every map is affine or Moebius, K < depth, m^K < 2^63 (so
    that the int64 codes of `_prefix_table` cannot wrap), and at every
    lambda of `lams` X' has no pole, Gamma < 1 and f_j(X') lies in X'
    narrowed by the slack at each end.

    Phi_K = f_{u_1..u_K}(x0) - f_{v_1..v_K}(x0) with x0 the midpoint of X.
    The tail images y_u = f_{u_{K+1}..}(x0) and y_v lie in the invariant
    X', where the prefixes have Lipschitz constant Gamma^K, Gamma =
    max_j sup_{X'} |f_j'|, so |Phi - Phi_K| <= 2 Gamma^K (|X|/2 + delta),
    and a drop has |Phi| >= eta0 + slack.  Both are read at the ends of X'
    (`at_interval_ends`), each raised by its rounding: with eps the machine
    epsilon, M = max |x| on X', A = |n0| + |n1| M, B = |d0| + |d1| M and
    D = min |den| on X', an evaluation on X' errs by at most
    rho = 2 eps (A + M B) / (D - 2 eps B) + eps M; det = n1 d0 - n0 d1 by
    2 eps (|n1 d0| + |n0 d1|), and den by 2 eps B.  Later symbols contract
    earlier errors, so a composition of n symbols errs by at most n rho,
    and its points stay within n rho of the exact ones, inside X' by the
    narrowed invariance.  The slack, PREFIX_SLACK_REL |X| + 2 (depth + K)
    rho + (K + 8) eps (eta0 + 4 M), covers the two compositions of each
    word and the roundings of x0, Gamma^K, the limit, the differences and
    the comparison: a dropped pair has computed |Phi| >= eta0, and the
    screen changes no report."""
    if depth <= PREFIX_SYMBOLS or fam.m ** PREFIX_SYMBOLS >= 2 ** 63:
        return None
    eps = np.finfo(float).eps
    delta = PREFIX_PAD_REL * fam.diam
    lo, hi = fam.domain[0] - delta, fam.domain[1] + delta
    big = max(abs(lo), abs(hi))
    gamma = rho = 0.0
    images = []
    for mp in fam.maps:
        with np.errstate(divide="ignore", invalid="ignore"):  # a pole at an end of X'
            at_ends = at_interval_ends(mp, lams[:, None], (lo, hi))
        if at_ends is None:
            return None
        v, d, (n0, n1, d0, d1), den = at_ends
        den_min = np.abs(den).min(axis=1, keepdims=True)
        den_err = 2 * eps * (np.abs(d0) + np.abs(d1) * big)
        if np.any(np.signbit(den[:, 0]) != np.signbit(den[:, 1])) or \
                np.any(den_min <= den_err):
            return None
        num_err = 2 * eps * (np.abs(n0) + np.abs(n1) * big)
        rho = np.maximum(rho, (num_err + big * den_err) / (den_min - den_err) + eps * big)
        det_err = 2 * eps * (np.abs(n1 * d0) + np.abs(n0 * d1))
        gamma = np.maximum(gamma, (np.abs(d).max(axis=1, keepdims=True) * (1 + 2 * eps)
                                   + det_err / den_min ** 2)
                           * (den_min / (den_min - den_err)) ** 2)
        images.append(v)
    slack = (PREFIX_SLACK_REL * fam.diam + 2 * (depth + PREFIX_SYMBOLS) * rho
             + (PREFIX_SYMBOLS + 8) * eps * (eta0 + 4 * big))
    images = np.concatenate(images, axis=1)
    # written so that a NaN anywhere fails it
    if not (np.all(gamma < 1) and np.all(images >= lo + slack) and np.all(images <= hi - slack)):
        return None
    return (eta0 + 2 * gamma ** PREFIX_SYMBOLS * (0.5 * fam.diam + delta) + slack)[:, 0]


def _prefix_table(fam: IfsFamily, lams, u, v):
    """(table, iu, iv): the first K = PREFIX_SYMBOLS symbols of every
    distinct prefix among the rows of u and of v, composed once from the
    midpoint of X, x only, as the columns of an (L, n) table, and the
    column of each row's prefix, for u and for v.  A prefix's code,
    sum (w_i - 1) m^(K - i), is built in place in int64 (m^K < 2^63
    wherever `_prefix_limits` applies); the table is composed one call per
    PROBE_CHUNK columns, one call in all for m = 2 and K = 8.  Rows are
    independent in `project_words`, so a row's column holds the floats of
    its own prefix's composition."""
    m, n = fam.m, len(u)
    codes = np.zeros(2 * n, dtype=np.int64)
    for k in range(PREFIX_SYMBOLS):
        codes *= m
        codes[:n] += u[:, k]
        codes[n:] += v[:, k]
        codes -= 1
    distinct, columns = np.unique(codes, return_inverse=True)
    powers = m ** np.arange(PREFIX_SYMBOLS - 1, -1, -1)
    table = np.empty((len(lams), len(distinct)))
    for cols in _blocks(np.arange(len(distinct))):
        prefixes = distinct[cols, None] // powers % m + 1
        table[:, cols], _ = project_words(fam, prefixes, lams, fam.midpoint, dlam=False)
    return table, columns[:n], columns[n:]


def _blocks(rows):
    """`rows` in consecutive pieces of PROBE_CHUNK entries, the last one shorter."""
    return (rows[r0:r0 + PROBE_CHUNK] for r0 in range(0, len(rows), PROBE_CHUNK))


def _screen(rows, phi, limit):
    """The entries of `rows` whose |phi(block)| is under `limit`, or NaN,
    at some lambda, phi read on each of their `_blocks`."""
    kept = [block[~(np.abs(phi(block)) >= limit).all(axis=0)] for block in _blocks(rows)]
    return np.concatenate(kept) if kept else rows  # no block: rows is already empty


def mc_transversality_probe(fam: IfsFamily, samples: int = 10000,
                            depth: int = 40, seed: int = 0,
                            lam_grid: int = 17) -> TransversalityReport:
    """Sample word pairs with distinct first symbols and sweep lambda,
    recording near-collisions of the projections and the minimum
    |d/dlam Phi| over them.  A simultaneous near-zero of Phi and its
    derivative is a falsification witness; anything else is evidence.
    The witness is the first bad pair at the first bad lambda.

    The pairs climb a ladder of screens (Phi_k, limit), each read over the
    whole grid PROBE_CHUNK rows at a time, and each keeps the rows whose
    |Phi_k| is under the limit, or NaN, at some lambda; the survivors of
    every block are pooled before the next screen.  The prefix screen,
    (Phi_K, `_prefix_limits`) with K = PREFIX_SYMBOLS, reads Phi_K from
    `_prefix_table`: each distinct K-prefix of u and of v is composed once,
    and a block gathers its rows' columns for u minus those for v.  It
    drops only pairs with |Phi| >= eta0 at every lambda, rounding
    included; it is on the ladder when every map is affine or Moebius,
    K < depth, m^K < 2^63, and at every lambda X widened by delta has no
    pole, is invariant and has Gamma = max_j sup |f_j'| < 1.  The last
    screen, (Phi, eta0), composes a block's rows of u, then of v, at full
    depth in one x-only call each (dlam=False; one call on both peaked
    0.4 MB higher), and drops the pairs with no near-collision.  One full
    call per block of the rows left, u's then v's, gives Phi, the same
    floats as the x-only pass, and d/dlam Phi: the near-collisions,
    empirical_eta and the witness.  Rows are independent in every pass, so
    no value depends on the blocks, and no dropped pair has a
    near-collision: no report changes.  Where every pair collides, as with
    two identical maps, every pair survives both screens, and the x-only
    and full passes run on every pair; the table has at most
    min(m^K, 2 samples) columns."""
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
    rows = np.arange(samples)
    limits = _prefix_limits(fam, lams, depth, eta0)
    if limits is not None:
        table, iu, iv = _prefix_table(fam, lams, u, v)
        rows = _screen(rows, lambda rows: table.take(iu[rows], axis=1)
                       - table.take(iv[rows], axis=1), limits[:, None])
        del table, iu, iv  # the later passes then peak as without the columns

    def phi_depth(rows):
        pu, _ = project_words(fam, u[rows], lams, fam.midpoint, dlam=False)
        pv, _ = project_words(fam, v[rows], lams, fam.midpoint, dlam=False)
        return pu - pv

    rows = _screen(rows, phi_depth, eta0)
    emp_eta = math.inf
    events = 0
    first_bad = (lam_grid, 0)  # the least (lambda index, row) of a bad pair
    for block in _blocks(rows):
        x, d = project_words(fam, np.concatenate((u[block], v[block])), lams, fam.midpoint)
        phi, dphi = x[:, :block.size] - x[:, block.size:], d[:, :block.size] - d[:, block.size:]
        near = np.abs(phi) < eta0
        events += int(near.sum())
        # a block may keep only pairs with a NaN Phi, and then has no near entry
        emp_eta = min(emp_eta, float(np.abs(dphi[near]).min(initial=math.inf)))
        bad = near & (np.abs(phi) < falsify_phi_tol) & (np.abs(dphi) < FALSIFY_DPHI_TOL)
        if bad.any():
            i, j = np.unravel_index(np.argmax(bad), bad.shape)
            first_bad = min(first_bad, (i, block[j]))
    i, k = first_bad
    witness = (tuple(u[k]), tuple(v[k]), float(lams[i])) if i < lam_grid else None
    verdict = "FALSIFIED" if witness is not None else "INCONCLUSIVE"
    return TransversalityReport(verdict=verdict, empirical_eta=emp_eta,
                                n_events=events, n_samples=samples * lam_grid,
                                witness=witness, seed=seed, alphabet_size=fam.m)

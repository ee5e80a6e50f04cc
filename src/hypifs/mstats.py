"""Measure diagnostics: symbolic alpha-energy and correlation dimension,
chaos-game sampling, empirical Fourier decay, and the measure-regularity
ratio probe across parameters."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ifs import (ROOT_RTOL, ROOT_XTOL, AuditFailure, IfsFamily, concat_images,
                  solve_root)
from .thermo import (CylinderMeasure, audit_prob_fns, gibbs_cylinder_measure,
                     transfer_spectrum)

CHAOS_BLOCK = 4096  # uniforms converted to Python floats per step of the chaos game
FOURIER_BLOCK = 2 ** 14  # elements of a (frequency x cell) temporary in _fourier_mean
TAIL_LEVELS = 5  # level sums in the geometric tail fit
ALPHA_LO, ALPHA_HI = 1e-3, 2.0  # the correlation-dimension search interval
SOBOLEV_PER_DECADE = 64  # log-grid frequencies per decade
SOBOLEV_BLOCK = 64  # frequencies averaged per block of the slope fit


@dataclass(eq=False)
class EmpiricalSample:
    points: np.ndarray
    family_id: str
    lam: float
    seed: int
    burn_in: int

    @property
    def count(self):
        return len(self.points)


def _energy_levels(measure: CylinderMeasure, fam: IfsFamily, lam: float,
                   max_depth: int):
    """(|f_u(X)|, sum_{i != j} mu(u.i) mu(u.j)) over the depth-n words u,
    for n = 0..max_depth: everything in the level sums but the exponent."""
    if max_depth + 1 > measure.depth:
        raise ValueError("depth exceeds measure availability")
    m = fam.m
    # f_u(x_lo) and f_u(x_hi) for all depth-n words u, one tree level per n
    values = [mp.value for mp in fam.at(lam).maps]
    lo, hi = np.array([fam.domain[0]]), np.array([fam.domain[1]])
    levels = []
    for n in range(0, max_depth + 1):
        if n > 0:
            lo, hi = concat_images(values, lo), concat_images(values, hi)
        child = measure.coarsen(n + 1).weights.reshape(-1, m)
        parent = child.sum(axis=1)
        levels.append((np.abs(hi - lo), parent ** 2 - (child ** 2).sum(axis=1)))
    return levels


def _level_sums(levels, alpha: float) -> np.ndarray:
    return np.asarray([float(np.sum(length ** (-alpha) * cross))
                       for length, cross in levels])


def energy_level_sums(measure: CylinderMeasure, fam: IfsFamily, lam: float,
                      alpha: float, max_depth: int):
    """S_n = sum_u |f_u(X)|^{-alpha} * sum_{i != j} mu(u.i) mu(u.j)
    for n = 0..max_depth; finite energy shows as a geometric tail."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return _level_sums(_energy_levels(measure, fam, lam, max_depth), alpha)


def tail_ratio(sums: np.ndarray):
    """Geometric ratio of the last TAIL_LEVELS level sums by log-LSQ fit."""
    tail = sums[-TAIL_LEVELS:]
    if np.any(tail <= 0):
        return 0.0, 0.0
    y = np.log(tail)
    x = np.arange(len(tail), dtype=float)
    fit = np.polyfit(x, y, 1)
    resid = y - np.polyval(fit, x)
    return float(math.exp(fit[0])), float(resid.std())


def energy(measure: CylinderMeasure, fam: IfsFamily, lam: float,
           alpha: float, max_depth: int):
    sums = energy_level_sums(measure, fam, lam, alpha, max_depth)
    ratio, spread = tail_ratio(sums)
    return {"sums": sums, "tail_ratio": ratio, "fit_spread": spread,
            "finite_looking": ratio < 1.0 - 3.0 * spread}


def correlation_dimension(fam: IfsFamily, lam: float, measure: CylinderMeasure):
    """The alpha at which the tail ratio of the energy level sums up to
    depth measure.depth - 1 crosses 1, by Brent's method."""
    max_depth = measure.depth - 1
    if max_depth < 8:
        raise ValueError("measure chain must reach depth >= 8")

    levels = _energy_levels(measure, fam, lam, max_depth)

    def ratio(a):
        return tail_ratio(_level_sums(levels, a))[0]

    if ratio(ALPHA_LO) >= 1.0:
        return {"alpha": ALPHA_LO, "bracket": (0.0, ALPHA_LO)}
    if ratio(ALPHA_HI) <= 1.0:
        return {"alpha": ALPHA_HI, "bracket": (ALPHA_HI, math.inf)}
    alpha = solve_root(lambda a: ratio(a) - 1.0, ALPHA_LO, ALPHA_HI)
    _, spread = tail_ratio(_level_sums(levels, alpha))
    slope = (ratio(min(alpha + 0.02, ALPHA_HI)) -
             ratio(max(alpha - 0.02, ALPHA_LO))) / 0.04
    half = spread / max(abs(slope), 1e-9) + ROOT_XTOL + ROOT_RTOL * alpha
    return {"alpha": alpha, "bracket": (alpha - half, alpha + half)}


def chaos_game_sample(fam: IfsFamily, prob_fns, lam: float, count: int,
                      burn_in: int, seed: int, family_id: str = "") -> EmpiricalSample:
    """Random iteration x <- f_j(x), j ~ p_.(x); deterministic per seed."""
    if count < 1 or burn_in < 0:
        raise ValueError("need count >= 1 and burn_in >= 0")
    frozen = fam.at(lam)
    audit_prob_fns(prob_fns, frozen, grid=257)
    rng = np.random.default_rng(seed)
    uni = rng.random(count + burn_in)
    x = fam.midpoint
    out = np.empty(count)
    values = [mp.value for mp in frozen.maps]
    last = len(prob_fns) - 1
    # the last curve is never evaluated: its symbol is the default
    curves = list(enumerate(prob_fns[:last]))
    for s in range(0, len(uni), CHAOS_BLOCK):
        for k, u in enumerate(uni[s:s + CHAOS_BLOCK].tolist(), s):
            acc = 0.0
            j = last
            for jj, f in curves:
                acc += float(f(lam, x))
                if u < acc:
                    j = jj
                    break
            x = float(values[j](x))
            if k >= burn_in:
                out[k - burn_in] = x
    return EmpiricalSample(points=out, family_id=family_id, lam=lam,
                           seed=seed, burn_in=burn_in)


def _fourier_mean(pts: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """mean_k exp(i xi x_k) for every xi in `freqs`, the points in [0, 1].

    Local Taylor moments (Anderson & Dahleh, SIAM J. Sci. Comput. 1996):
    [0, 1] is cut into ceil(xi_max) cells with centres c_b, so every offset
    d = x - c_b has |xi d| <= a <= 1/2, and
        sum_k exp(i xi x_k) = sum_b exp(i xi c_b) sum_{k<K} (i xi)^k M_k[b],
    M_k[b] = sum_{x in b} d^k / k!, with K the least order whose term bound
    a^K / K! is at most 2^-53.  When the moments would not be fewer than the
    points, every point is its own cell (K = 1, d = 0): the direct sum."""
    n = len(pts)
    xi_max = float(np.abs(freqs).max(initial=0.0))
    cells = max(1, math.ceil(xi_max))
    a = xi_max / (2 * cells)
    order, term = 0, 1.0
    while term > 2.0 ** -53:
        order += 1
        term *= a / order
    if cells * order < n:
        b = np.minimum((pts * cells).astype(np.intp), cells - 1)
        centres = (np.arange(cells) + 0.5) / cells
        d = pts - centres[b]
        moments, w = [], np.ones(n)
        for k in range(order):
            moments.append(np.bincount(b, weights=w, minlength=cells))
            w = w * d / (k + 1)
    else:
        centres, moments = pts, [np.ones(n)]
    rows = max(1, FOURIER_BLOCK // len(centres))
    out = np.empty(len(freqs), dtype=complex)
    for s in range(0, len(freqs), rows):
        ixi = 1j * freqs[s:s + rows, None]
        # sum_k (i xi)^k M_k[b] by Horner, then the phase of each cell
        acc = np.empty((len(ixi), len(centres)), dtype=complex)
        acc[...] = moments[-1]
        for mk in moments[-2::-1]:
            acc *= ixi
            acc += mk
        acc *= np.exp(ixi * centres)
        out[s:s + rows] = acc.sum(axis=1)
    return out / n


def sobolev_estimate(sample: EmpiricalSample, xi_max: float = 1e3):
    """HEURISTIC Fourier-decay slope fit.

    Computes the debiased empirical |nu_hat(xi)|^2 on a log-spaced grid,
    block-averages it, drops blocks below the sampling noise floor, and
    fits the log-log slope over the upper two decades.  Decade-wide
    blocks suppress the log-periodic oscillation of
    self-similar spectra.  The estimate is evidence, not a rigorous
    Sobolev dimension.  The grid holds at least two blocks in the upper
    two decades for every `xi_max` >= 100; below that, where the window
    is the whole grid, an `xi_max` that leaves fewer raises ValueError.
    """
    pts = np.asarray(sample.points, dtype=float)
    n = len(pts)
    if n < 10 ** 4:
        import warnings
        warnings.warn("sobolev_estimate is unreliable below 1e4 samples")
    if not np.all(np.isfinite(pts)):
        raise ValueError("sobolev_estimate needs finite sample points")
    decades = math.log10(xi_max) if 1.0 < xi_max < math.inf else 0.0
    n_freqs = round(SOBOLEV_PER_DECADE * decades)
    if decades >= 2:
        # N points space log10 xi by decades / (N - 1), so the upper two
        # decades hold floor(2 (N - 1) / decades) + 1 of them: raise N
        # where rounding leaves fewer than two blocks there
        n_freqs = max(n_freqs, math.ceil((2 * SOBOLEV_BLOCK - 1) * decades / 2) + 1)
    freqs = np.logspace(0.0, decades, n_freqs)
    # slope fit restricted to the upper two decades
    sel = freqs >= xi_max / 100.0
    window = int(np.count_nonzero(sel))
    if window < 2 * SOBOLEV_BLOCK:
        raise ValueError(
            f"xi_max = {xi_max:g} leaves {window} frequencies in the upper "
            f"two decades, fewer than two blocks of {SOBOLEV_BLOCK}")
    if np.ptp(pts) == 0.0:
        return {"slope": 0.0, "dim_s": 0.0, "label": "HEURISTIC",
                "frequencies": np.array([]), "power": np.array([])}
    # the dimension is affine-invariant, so normalize to unit diameter
    # to decouple the frequency window from the sampling scale
    pts = (pts - pts.min()) / np.ptp(pts)
    power = np.abs(_fourier_mean(pts, freqs)) ** 2 - 1.0 / n  # debias the i.i.d. floor
    f_sel, p_sel = freqs[sel], power[sel]
    block = SOBOLEV_BLOCK
    nb = len(f_sel) // block
    fb, pb = [], []
    floor = 3.0 / (n * math.sqrt(block))  # residual noise after block averaging
    for b in range(nb):
        chunk = p_sel[b * block:(b + 1) * block]
        mean = float(chunk.mean())
        if mean > floor:
            fb.append(float(np.exp(np.log(f_sel[b * block:(b + 1) * block]).mean())))
            pb.append(mean)
    if len(fb) < 2:
        # decay is below the noise floor everywhere: treat as fast decay
        return {"slope": -2.0, "dim_s": 2.0, "label": "HEURISTIC",
                "frequencies": freqs, "power": power}
    slope = float(np.polyfit(np.log(fb), np.log(pb), 1)[0])
    dim_s = max(0.0, -slope)
    return {"slope": slope, "dim_s": dim_s, "label": "HEURISTIC",
            "frequencies": freqs, "power": power}


def m_condition_probe(fam: IfsFamily, pot, lam_pairs, r: int = 8):
    """Max per-symbol log-ratio of cylinder masses across parameter pairs,
    R(lam, lam') = max_w |log(mu_lam(w)/mu_lam'(w))| / r, fitted as
    R ~ c * |dlam|^theta by log-log regression."""
    lam_pairs = list(lam_pairs)
    if len(lam_pairs) < 3:
        raise ValueError("need at least 3 parameter pairs")
    cache = {}

    def mu(lam):
        key = round(lam, 15)
        if key not in cache:
            spec = transfer_spectrum(fam, pot, lam, r)
            cache[key] = gibbs_cylinder_measure(spec).weights
        return cache[key]

    rows = []
    for la, lb in lam_pairs:
        wa, wb = mu(la), mu(lb)
        za, zb = wa < 1e-300, wb < 1e-300
        if np.any(za != zb):
            k = int(np.argmax(za != zb))
            raise AuditFailure(f"support mismatch at cylinder code {k}")
        keep = ~za
        ratio = 0.0
        if la != lb and keep.any():
            ratio = float(np.abs(np.log(wa[keep] / wb[keep])).max()) / r
        rows.append({"lam": la, "lam2": lb, "dlam": abs(la - lb), "R": ratio})
    pts = [(math.log(row["dlam"]), math.log(row["R"]))
           for row in rows if row["dlam"] > 0 and row["R"] > 0]
    if len(pts) >= 2:
        xs, ys = zip(*pts)
        theta, logc = np.polyfit(xs, ys, 1)
    else:
        theta, logc = float("nan"), float("nan")
    return {"rows": rows, "theta": float(theta), "c": float(math.exp(logc))
            if math.isfinite(logc) else float("nan")}

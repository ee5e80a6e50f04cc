"""Measure diagnostics: symbolic alpha-energy and correlation dimension,
chaos-game sampling, empirical Fourier decay, and the measure-regularity
ratio probe across parameters."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ifs import AuditFailure, IfsFamily, concat_images
from .thermo import (CylinderMeasure, audit_prob_fns, gibbs_cylinder_measure,
                     transfer_spectrum)


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


def energy_level_sums(measure: CylinderMeasure, fam: IfsFamily, lam: float,
                      alpha: float, max_depth: int):
    """S_n = sum_u |f_u(X)|^{-alpha} * sum_{i != j} mu(u.i) mu(u.j)
    for n = 0..max_depth; finite energy shows as a geometric tail."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if max_depth + 1 > measure.depth:
        raise ValueError("depth exceeds measure availability")
    m = fam.m
    # f_u(x_lo) and f_u(x_hi) for all depth-n words u, one tree level per n
    values = [mp.value for mp in fam.at(lam).maps]
    lo, hi = np.array([fam.domain[0]]), np.array([fam.domain[1]])
    sums = []
    for n in range(0, max_depth + 1):
        if n > 0:
            lo, hi = concat_images(values, lo), concat_images(values, hi)
        child = measure.coarsen(n + 1).weights.reshape(-1, m)
        parent = child.sum(axis=1)
        cross = parent ** 2 - (child ** 2).sum(axis=1)
        sums.append(float(np.sum(np.abs(hi - lo) ** (-alpha) * cross)))
    return np.asarray(sums)


def tail_ratio(sums: np.ndarray, levels: int = 5):
    """Geometric ratio of the last `levels` level sums by log-LSQ fit."""
    tail = sums[-levels:]
    if np.any(tail <= 0):
        return 0.0, 0.0
    y = np.log(tail)
    x = np.arange(len(tail), dtype=float)
    slope, _ = np.polyfit(x, y, 1)
    resid = y - np.polyval(np.polyfit(x, y, 1), x)
    return float(math.exp(slope)), float(resid.std())


def energy(measure: CylinderMeasure, fam: IfsFamily, lam: float,
           alpha: float, max_depth: int):
    sums = energy_level_sums(measure, fam, lam, alpha, max_depth)
    ratio, spread = tail_ratio(sums)
    return {"sums": sums, "tail_ratio": ratio, "fit_spread": spread,
            "finite_looking": ratio < 1.0 - 3.0 * spread}


def correlation_dimension(fam: IfsFamily, lam: float, measure: CylinderMeasure,
                          max_depth: int = None, alpha_hi: float = 2.0):
    """Bisection on alpha for tail ratio 1 of the energy level sums."""
    if max_depth is None:
        max_depth = measure.depth - 1
    if max_depth < 8 and measure.depth - 1 < 8:
        raise ValueError("measure chain must reach depth >= 8")

    def ratio(a):
        sums = energy_level_sums(measure, fam, lam, a, max_depth)
        return tail_ratio(sums)[0]

    lo, hi = 1e-3, alpha_hi
    rlo, rhi = ratio(lo), ratio(hi)
    if rlo >= 1.0:
        return {"alpha": lo, "bracket": (0.0, lo)}
    if rhi <= 1.0:
        return {"alpha": hi, "bracket": (hi, math.inf)}
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ratio(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    _, spread = tail_ratio(energy_level_sums(measure, fam, lam, alpha, max_depth))
    slope = (ratio(min(alpha + 0.02, alpha_hi)) -
             ratio(max(alpha - 0.02, 1e-3))) / 0.04
    half = spread / max(abs(slope), 1e-9) + (hi - lo)
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
    maps = frozen.maps
    for k in range(count + burn_in):
        acc = 0.0
        j = len(prob_fns) - 1
        for jj, f in enumerate(prob_fns):
            acc += float(f(lam, x))
            if uni[k] < acc:
                j = jj
                break
        x = float(maps[j].value(x))
        if k >= burn_in:
            out[k - burn_in] = x
    return EmpiricalSample(points=out, family_id=family_id, lam=lam,
                           seed=seed, burn_in=burn_in)


def sobolev_estimate(sample: EmpiricalSample, xi_max: float = 1e3,
                     per_decade: int = 64, block: int = 64):
    """HEURISTIC Fourier-decay slope fit.

    Computes the debiased empirical |nu_hat(xi)|^2 on a log-spaced grid,
    block-averages it, drops blocks below the sampling noise floor, and
    fits the log-log slope over the upper two decades.  Decade-wide
    blocks (the default) suppress the log-periodic oscillation of
    self-similar spectra.  The estimate is evidence, not a rigorous
    Sobolev dimension.
    """
    pts = np.asarray(sample.points, dtype=float)
    n = len(pts)
    if n < 10 ** 4:
        import warnings
        warnings.warn("sobolev_estimate is unreliable below 1e4 samples")
    if np.ptp(pts) == 0.0:
        return {"slope": 0.0, "dim_s": 0.0, "label": "HEURISTIC",
                "frequencies": np.array([]), "power": np.array([])}
    # the dimension is affine-invariant, so normalize to unit diameter
    # to decouple the frequency window from the sampling scale
    pts = (pts - pts.min()) / np.ptp(pts)
    decades = math.log10(xi_max)
    freqs = np.logspace(0.0, decades, int(round(per_decade * decades)))
    power = np.empty_like(freqs)
    for k, xi in enumerate(freqs):
        z = np.exp(1j * xi * pts).mean()
        power[k] = abs(z) ** 2 - 1.0 / n  # debias the flat i.i.d. floor
    # slope fit restricted to the upper two decades
    sel = freqs >= xi_max / 100.0
    f_sel, p_sel = freqs[sel], power[sel]
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

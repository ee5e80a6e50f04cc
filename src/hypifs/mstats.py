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

CHAOS_SEGMENT = 128  # most chain steps per lockstep segment of the chaos game
CHAOS_BUDGET = 16  # lockstep passes before the scalar loop finishes the chain
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
    passes: int = 0  # lockstep passes the chaos game ran
    scalar_from: int | None = None  # the first chain step the scalar loop ran, if any

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


def _chaos_steps(values, curves, lam, u, x):
    """f_j(x) for every entry, j the first symbol with u < p_1(x) + ... +
    p_j(x), else the last: the scalar loop's float operations, as arrays.
    Every curve and every map is evaluated on every entry, each once; the
    choices are merged from the last symbol down, so the first hit wins."""
    acc, hits = 0.0, []
    for _, f in curves:
        acc = acc + np.asarray(f(lam, x), dtype=float)
        hits.append(u < acc)
    out = values[-1](x)
    for value, hit in zip(values[-2::-1], hits[::-1]):
        out = np.where(hit, value(x), out)
    return out


def _scalar_finish(values, curves, last, lam, uni, x, out, start):
    """Run the chain one Python step at a time from its exact state
    x = x_start, writing x_{k + 1} to out[k] for k = start..len(uni) - 1."""
    x = float(x)
    for k in range(start, len(uni)):
        u = float(uni[k])
        acc = 0.0
        j = last
        for jj, f in curves:
            acc += float(f(lam, x))
            if u < acc:
                j = jj
                break
        x = float(values[j](x))
        out[k] = x


def _segment_length(n):
    """Chain steps per lockstep segment: ceil(sqrt(n) / 2), so that a short
    chain pays few array calls, and at most CHAOS_SEGMENT."""
    return min(CHAOS_SEGMENT, math.ceil(math.sqrt(n) / 2))


def chaos_game_sample(fam: IfsFamily, prob_fns, lam: float, count: int,
                      burn_in: int, seed: int, family_id: str = "") -> EmpiricalSample:
    """Random iteration x <- f_j(x), j ~ p_.(x); deterministic per seed.

    The chain x_0 = fam.midpoint, x_{k+1} = f_{j_k}(x_k), j_k the first j
    with u_k < p_1(x_k) + ... + p_j(x_k), over count + burn_in uniforms u_k,
    is cut into segments of L = _segment_length(n) steps, the last padded
    with u = 0 steps that are never returned.  A pass advances all the
    segments in lockstep, one `_chaos_steps` call per step position, which
    evaluates every curve and every map at every segment's state and keeps
    the map the scalar loop would choose; the uniforms and states are
    stored step-major, so that the call reads and writes one row each.  The
    first pass starts every segment at the midpoint; each later pass starts
    segment b where segment b - 1 ended in the pass before.  When no
    segment's end differs, bit for bit, from the start the next segment
    used, every x_{k+1} is the step applied to x_k, and x_0 is exact, so by
    induction the array is the sequential chain bit for bit: the stopping
    rule is a certificate, not a tolerance.  A chain that couples within L
    steps is certified after 2 passes.  A pass after the first ends after
    step t once every segment but the last holds, bit for bit, the state the
    pass before held at t, and the last segment has run its real steps:
    from there on, every path is the one already stored.  The last segment is
    left out, since its padded u = 0 steps need never couple.  The segments
    before the first stale start are exact and are not run again.  Each
    state a pass steps from is a state of the same chain begun at the
    midpoint at a later time (or one of its padded steps), so every curve
    and map is evaluated in the domain, and the map kept at each state is
    the one the scalar loop would apply there.  Once CHAOS_BUDGET passes
    are spent (a weak contraction couples slowly), the scalar loop
    finishes the chain from the first stale segment start.  The sample
    records its passes and that step, `scalar_from`.

    Bit-identity with the scalar loop needs every curve and map to give,
    elementwise on an array, what it gives on one float.  The built-in maps
    and curves are plain ufunc arithmetic and do; a user curve must too.
    x ** 2 need not: numpy squares an array by a multiplication, while a
    float is raised by pow(), which can differ by an ulp."""
    if count < 1 or burn_in < 0:
        raise ValueError("need count >= 1 and burn_in >= 0")
    frozen = fam.at(lam)
    audit_prob_fns(prob_fns, frozen)
    n = count + burn_in
    values = [mp.value for mp in frozen.maps]
    last = len(prob_fns) - 1
    # the last curve is never evaluated: its symbol is the default
    curves = list(enumerate(prob_fns[:last]))
    seg = _segment_length(n)
    nb = -(-n // seg)
    # step-major, so that each lockstep step reads and writes one row
    steps = np.zeros((seg, nb))  # steps[t, b] = u_{b seg + t}
    steps.T.flat[:n] = np.random.default_rng(seed).random(n)
    states = np.empty((seg, nb))  # states[t, b] = x_{b seg + t + 1}
    starts = np.full(nb, fam.midpoint)
    lo = 0  # segments before lo are exact
    tail = n - (nb - 1) * seg  # the last segment's steps that are not padding
    scalar_from = None
    for passes in range(1, CHAOS_BUDGET + 1):
        x = starts[lo:]
        for t in range(seg):
            x = _chaos_steps(values, curves, lam, steps[t, lo:], x)
            rejoined = (passes > 1 and t + 1 >= tail and
                        np.array_equal(x[:-1].view(np.int64), states[t, lo:-1].view(np.int64)))
            states[t, lo:] = x
            if rejoined:
                break
        ends = states[-1, lo:-1]
        stale = np.flatnonzero(ends.view(np.int64) != starts[lo + 1:].view(np.int64))
        if not len(stale):
            break
        lo += int(stale[0]) + 1
        starts[lo:] = states[-1, lo - 1:-1]
    else:
        scalar_from = lo * seg
        _scalar_finish(values, curves, last, lam, steps.T.flat, starts[lo], states.T.flat,
                       scalar_from)
    del steps
    chain = states.T.ravel()  # x_1, x_2, ... in chain order
    return EmpiricalSample(points=chain[burn_in:n], family_id=family_id, lam=lam,
                           seed=seed, burn_in=burn_in, passes=passes,
                           scalar_from=scalar_from)


def _exact_phase(xi: np.ndarray, c: np.ndarray) -> np.ndarray:
    """exp(i xi c) on the grid xi[:, None] * c, its argument not rounded:
    Dekker's product splits xi c into p + e exactly, and
    exp(i (p + e)) = exp(i p) (1 + i e) to within e^2 / 2."""
    def split(v):
        t = v * 134217729.0  # 2^27 + 1: two halves of 26 bits
        hi = t - (t - v)
        return hi, v - hi

    xi = xi[:, None]
    (xh, xl), (ch, cl) = split(xi), split(c)
    p = xi * c
    e = ((xh * ch - p) + xh * cl + xl * ch) + xl * cl
    phase = np.exp(1j * p)
    return phase + 1j * e * phase


def _fourier_mean(pts: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """mean_k exp(i xi x_k) for every xi in `freqs`, the points in [0, 1].

    Local Taylor moments (Anderson & Dahleh, SIAM J. Sci. Comput. 1996):
    [0, 1] is cut into N = ceil(xi_max) cells with centres c_b, so every
    offset d = x - c_b has |xi d| <= a <= 1/2, and
        sum_k exp(i xi x_k) = sum_{k<K} (i xi)^k S_k(xi),
        S_k(xi) = sum_b exp(i xi c_b) M_k[b],
    M_k[b] = sum_{x in b} d^k / k!, with K the least order whose term bound
    a^K / K! is at most 2^-53.  Each cell sums the powers d^k first and
    divides by k! once, so the K divisions run over cells, not points.
    Horner over k runs on one value per frequency, after the cell sums.

    The phases come from a factorised table, as in a nonuniform FFT (Dutt &
    Rokhlin, SIAM J. Sci. Comput. 1993): with R = isqrt(N), Q = ceil(N / R)
    and M padded with zero cells to QR, cell b = qR + r has the centre
    c_b = qR / N + (r + 1/2) / N, so exp(i xi c_b) is an outer phase
    exp(i xi qR / N) times an inner one exp(i xi (r + 1/2) / N): Q + R
    complex exponentials per frequency, not N.  The sum over r is one real
    matrix product of M, laid out as (k, q) rows by r columns, with the
    (R x frequency) inner phases viewed as interleaved real and imaginary
    parts; a multiply-and-sum over q with the outer phases ends it.  Each
    outer phase serves R cells, so its argument is kept exact
    (`_exact_phase`), and d = (x - qR / N) - (r + 1/2) / N is measured from
    the centre the table holds; the factorisation then costs no accuracy.

    When the moments would not be fewer than the points, the mean is the
    direct sum of exp(i xi x_k).  Every temporary holds at most about
    FOURIER_BLOCK elements, by blocks of frequencies."""
    n = len(pts)
    xi_max = float(np.abs(freqs).max(initial=0.0))
    cells = max(1, math.ceil(xi_max))
    a = xi_max / (2 * cells)
    order, term = 0, 1.0
    while term > 2.0 ** -53:
        order += 1
        term *= a / order
    out = np.empty(len(freqs), dtype=complex)
    if cells * order >= n:
        rows = max(1, FOURIER_BLOCK // n)
        for s in range(0, len(freqs), rows):
            out[s:s + rows] = np.exp(1j * freqs[s:s + rows, None] * pts).sum(axis=1)
        return out / n
    r_len = math.isqrt(cells)
    q_len = -(-cells // r_len)
    inner = (np.arange(r_len) + 0.5) / cells
    outer = np.arange(q_len) * r_len / cells
    b = np.minimum((pts * cells).astype(np.intp), cells - 1)
    d = (pts - np.repeat(outer, r_len)[b]) - np.tile(inner, q_len)[b]
    moments, w = np.zeros((order, q_len * r_len)), np.ones(n)
    for k in range(order):
        moments[k, :cells] = np.bincount(b, weights=w, minlength=cells)
        w *= d
    del b, d, w
    moments /= np.array([math.factorial(k) for k in range(order)], dtype=float)[:, None]
    moments = moments.reshape(order * q_len, r_len)  # rows (k, q), columns r
    rows = max(1, FOURIER_BLOCK // (q_len * order))
    for s in range(0, len(freqs), rows):
        xi = freqs[s:s + rows]
        # sum_r exp(i xi (r + 1/2) / N) M_k[qR + r], laid out (k, xi, q)
        part = (moments @ np.exp(1j * (inner[:, None] * xi)).view(float)).view(complex)
        part = np.ascontiguousarray(part.reshape(order, q_len, len(xi)).transpose(0, 2, 1))
        part *= _exact_phase(xi, outer)
        sums = part.sum(axis=-1)  # S_k(xi), summed pairwise over q
        ixi = 1j * xi
        acc = sums[-1]
        for sk in sums[-2::-1]:
            acc = acc * ixi + sk
        out[s:s + rows] = acc
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

"""Sampled reference for `ifs.regularity_audit`: every map, affine and
Moebius ones included, evaluated on the whole (lambda, x) grid, with the
Lipschitz constant of log|f'| read off its largest secant."""

import numpy as np

from hypifs.ifs import INVARIANCE_PAD, AuditReport, EvaluationError, _freeze


def sampled_audit(fam, grid_size=256):
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
    return AuditReport(gamma1=float(g1), gamma2=float(g2),
                       invariant=invariant, derivative_ok=deriv_ok,
                       monotone_increasing=tuple(monotone),
                       grid_size=grid_size, log_dx_lipschitz=float(lip),
                       method="sampled")

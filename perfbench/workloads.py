"""The four workloads.  Each makes its inputs from the seed once, then
offers the same list of operations for every round; `check` tests an
operation's output against oracles and properties the method must have
and returns (attempted, failed) operation counts; `finish` runs the
checks that need all rounds and returns the workload's accuracy in digits.

A check never compares with a stored copy of an earlier output, except
that every round must repeat the first one exactly (same seed, same
inputs, so the program must give the same answer).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import warnings
from fractions import Fraction

import numpy as np

import hypifs
from hypifs import cli

import oracles

NUMERICAL_ERRORS = (hypifs.ConvergenceError, hypifs.AuditFailure,
                    hypifs.EvaluationError, ValueError, ZeroDivisionError)
FIXED = (-1e-9, 1e-9)  # parameter interval of a family that does not vary


class Workload:
    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.smoke = smoke
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.problems = []
        self._first = {}

    def expect(self, ok: bool, message: str):
        if not ok and message not in self.problems:
            self.problems.append(message)

    def repeat_check(self, key, value):
        """Every round must reproduce the first round's output."""
        if key not in self._first:
            self._first[key] = value
        else:
            self.expect(value == self._first[key], f"{key}: round differs from round 1")


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class BlackwellScan(Workload):
    """h/chi region scans of the Blackwell measure through the CLI.

    Each operation is one `hypifs region blackwell` run over a band
    {eps, 1 - eps} x 12 values of p: the mirrored pair lets every cell be
    checked against its image under eps <-> 1 - eps.  The p grid lies in
    [0.1, 0.425] (or its mirror): away from p = 1/2, where the maps
    degenerate, and from p near 0, where the power iteration needs several
    times more steps and the run's work would depend on the seed.  It
    contains p = 1/4 (or 3/4), where r = 8 is accurate to about 1e-7, for
    the comparison with the collocation reference.  An anchor operation
    scans {0.45, 0.55} x {0.225, 0.775}, four cells known to be
    supercritical.
    """

    name = "blackwell-scan"
    DEPTH = 8
    REF_TOL = 2e-6  # r = 8 against the r -> infinity reference near p = 1/4
    ANCHOR = ((0.45, 0.55), (0.225, 0.775))

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        bands, n_p = (1, 4) if smoke else (6, 12)
        self.configs = []
        self.probe_p = []
        width = (0.42 - 0.08) / bands
        for b in range(bands):
            # one eps per stratum: the power iteration's step count grows
            # as eps falls, so stratifying keeps the work the same per seed
            eps = float(0.08 + width * (b + self.rng.random()))
            step = float(self.rng.uniform(0.02, 0.025))
            below = int(self.rng.integers(n_p // 3, n_p // 2 + 1))
            lo, hi = 0.25 - below * step, 0.25 + (n_p - 1 - below) * step
            if self.rng.random() < 0.5:
                lo, hi, probe = 1.0 - hi, 1.0 - lo, 0.75
            else:
                probe = 0.25
            self.configs.append(self._write_config(f"band{b}", (eps, 1.0 - eps),
                                                   (lo, hi), n_p))
            self.probe_p.append(probe)
        self.configs.append(self._write_config("anchor", *self.ANCHOR, 2))
        self.reference_cells = {}

    def _write_config(self, tag, eps_range, p_range, n_p):
        out = os.path.join(self.workdir, tag)
        os.makedirs(out, exist_ok=True)
        path = os.path.join(self.workdir, f"{tag}.cfg")
        with open(path, "w") as fh:
            fh.write(f"region.eps_range = {eps_range[0]!r}, {eps_range[1]!r}\n"
                     f"region.p_range = {p_range[0]!r}, {p_range[1]!r}\n"
                     f"run.grid1 = 2\nrun.grid2 = {n_p}\nrun.depth = {self.DEPTH}\n")
        return path, out

    def warm_up(self):
        path, out = self._write_config("warmup", (0.3, 0.7), (0.3, 0.3), 1)
        code, _ = _run_cli(["--config", path, "--out", out, "region", "blackwell"])
        self.expect(code == 0, "warm-up scan failed")

    def ops(self):
        return [(lambda path=path, out=out: _run_cli(
            ["--config", path, "--out", out, "region", "blackwell"]))
            for path, out in self.configs]

    def check(self, i, result):
        code, text = result
        path, out = self.configs[i]
        with open(os.path.join(out, "region_blackwell.csv"), newline="") as fh:
            rows = [(float(r["eps"]), float(r["p"]), float(r["value"]), r["verdict"])
                    for r in csv.DictReader(fh)]
        self.repeat_check(f"scan {i}", rows)
        self.expect(code == 0, f"scan {i} exited with {code}")
        self.expect(f"cells: {len(rows)}" in text, f"scan {i}: cell count not reported")
        failed = sum(1 for *_, v, verdict in rows
                     if verdict not in ("SUPERCRITICAL", "SUBCRITICAL") or math.isnan(v))
        cells = {(e, p): (v, verdict) for e, p, v, verdict in rows}
        ps = sorted({p for _, p, _, _ in rows})
        epss = sorted({e for e, _, _, _ in rows})
        for e, p, v, verdict in rows:
            self.expect(verdict in ("AUDIT-FAIL", "DEGENERATE")
                        or (verdict == "SUPERCRITICAL") == (v > 1),
                        f"scan {i}: verdict {verdict} disagrees with value {v}")
        for p in ps:
            a, b = cells[(epss[0], p)][0], cells[(epss[-1], p)][0]
            self.expect(abs(a - b) <= 1e-10 * max(1.0, abs(a)),
                        f"scan {i}: eps <-> 1-eps mirror differs at p={p}: {a} vs {b}")
        if i == len(self.configs) - 1:
            for key, (v, _) in cells.items():
                self.expect(v > 1, f"anchor cell {key} = {v} is not above 1")
                self.reference_cells[key] = v
        else:
            probe = self.probe_p[i]
            p = min(ps, key=lambda q: abs(q - probe))
            self.expect(abs(p - probe) < 1e-9, f"scan {i}: grid misses p = {probe}")
            for e in epss:
                self.reference_cells[(e, p)] = cells[(e, p)][0]
        return len(rows), failed

    def finish(self):
        worst_anchor = 0.0
        eps_a, p_a = self.ANCHOR
        for (e, p), v in self.reference_cells.items():
            err = abs(v - oracles.blackwell_ratio(e, p))
            self.expect(err <= self.REF_TOL,
                        f"cell ({e}, {p}) = {v} is {err:.2e} from the collocation value")
            if e in eps_a and p in p_a:
                worst_anchor = max(worst_anchor, err)
        return oracles.digits(worst_anchor)


def _e2_family():
    """Continued fractions with digits {1, 2}: x -> 1/(k + x) on [1/3, 1]."""
    return hypifs.IfsFamily(
        tuple(hypifs.RationalMap(hypifs.poly(1.0), hypifs.poly(0.0),
                                 hypifs.poly(float(k)), hypifs.poly(1.0))
              for k in (1, 2)),
        domain=(1.0 / 3.0, 1.0), param_interval=FIXED)


def _affine_family(ratios, offsets):
    return hypifs.IfsFamily(tuple(hypifs.affine_map(a, b)
                                  for a, b in zip(ratios, offsets)),
                            domain=(0.0, 1.0), param_interval=FIXED)


class E2Bowen(Workload):
    """Bowen roots P(s) = 0 on a fixed ladder of depths: E_2 (exact
    oracle), the middle-thirds Cantor set, and a seeded three-map
    non-homogeneous self-similar set (root = similarity dimension)."""

    name = "e2-bowen"
    ORACLE_TOL = 1e-6  # at every rung with r >= 10
    ROOT_TOL = 1e-10  # bowen_root stops once |P(s)| <= tol (its default)
    AFFINE_TOL = 1e-8

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.ladder = (8, 10) if smoke else (8, 10, 12, 14)
        ratios = np.sort(self.rng.uniform(0.15, 0.3, 3))
        gap = (1.0 - ratios.sum()) / 2.0
        offsets = (0.0, ratios[0] + gap, 1.0 - ratios[2])
        self.ratios = tuple(float(r) for r in ratios)
        self.offsets = tuple(float(b) for b in offsets)
        self.cases = [("e2", r) for r in self.ladder] + [("cantor", 8), ("affine", 8)]
        self.roots = {}

    def _family(self, kind):
        if kind == "e2":
            return _e2_family()
        if kind == "cantor":
            return _affine_family((1 / 3, 1 / 3), (0.0, 2 / 3))
        return _affine_family(self.ratios, self.offsets)

    def warm_up(self):
        hypifs.bowen_root(self._family("cantor"), 0.0, r=4)

    def ops(self):
        return [(lambda kind=kind, r=r: hypifs.bowen_root(self._family(kind), 0.0, r=r))
                for kind, r in self.cases]

    def check(self, i, result):
        kind, r = self.cases[i]
        s = result["s"]
        lo, hi = result["partition_bracket"]
        self.repeat_check(f"{kind} r={r}", (s, lo, hi))
        self.expect(lo - self.ROOT_TOL <= 0.0 <= hi + self.ROOT_TOL,
                    f"{kind} r={r}: bracket [{lo}, {hi}] misses 0")
        if kind == "e2":
            self.roots[r] = s
            if r >= 10:
                self.expect(abs(s - oracles.E2_DIMENSION) <= self.ORACLE_TOL,
                            f"E2 r={r}: s={s!r} is off the oracle")
        elif kind == "cantor":
            self.expect(abs(s - oracles.CANTOR_DIMENSION) <= self.AFFINE_TOL,
                        f"Cantor root {s!r} != log 2/log 3")
        else:
            sim = oracles.similarity_dimension(self.ratios)
            self.expect(abs(s - sim) <= self.AFFINE_TOL,
                        f"affine root {s!r} != similarity dimension {sim!r}")
        return 1, 0

    def finish(self):
        return oracles.digits(abs(self.roots[max(self.ladder)] - oracles.E2_DIMENSION))


BERNOULLI_INTERVAL = (0.5, 0.66)
PSI0 = ((0.0, 1.0), (-1.0, 1.0))  # psi_0(x) = lam x - (1 - lam), ascending coeffs
WITNESS_PHI_TOL = 1e-9 * 2.0  # the probe's falsification tolerance, 1e-9 |X|
WITNESS_DPHI_TOL = 1e-6


class McProbe(Workload):
    """Monte-Carlo transversality probe: the Bernoulli-convolution family
    (INCONCLUSIVE, with near-collisions) and a family of two identical
    maps (FALSIFIED, witness confirmed in exact arithmetic)."""

    name = "mc-probe"
    DEPTH = 40
    LAM_GRID = 17

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.samples = 500 if smoke else 10000
        self.ident_samples = 200 if smoke else 2000
        self.probe_seeds = [int(s) for s in self.rng.integers(0, 2 ** 31, size=2)]
        self.witness = None

    def _bernoulli(self):
        return hypifs.bernoulli_family(BERNOULLI_INTERVAL)

    def _identical(self):
        psi = hypifs.affine_map(hypifs.poly(*PSI0[0]), hypifs.poly(*PSI0[1]))
        return hypifs.IfsFamily((psi, psi), domain=(-1.0, 1.0),
                                param_interval=BERNOULLI_INTERVAL)

    def warm_up(self):
        hypifs.mc_transversality_probe(self._bernoulli(), samples=50, depth=8,
                                       seed=0, lam_grid=3)

    def ops(self):
        return [
            lambda: hypifs.mc_transversality_probe(
                self._bernoulli(), samples=self.samples, depth=self.DEPTH,
                seed=self.probe_seeds[0], lam_grid=self.LAM_GRID),
            lambda: hypifs.mc_transversality_probe(
                self._identical(), samples=self.ident_samples, depth=self.DEPTH,
                seed=self.probe_seeds[1], lam_grid=self.LAM_GRID),
        ]

    def check(self, i, rep):
        self.repeat_check(f"probe {i}", (rep.verdict, rep.n_samples, rep.n_events,
                                         rep.empirical_eta, rep.witness))
        if i == 0:
            self.expect(rep.verdict == "INCONCLUSIVE" and rep.witness is None,
                        f"Bernoulli probe: {rep.verdict}, witness {rep.witness}")
            self.expect(rep.n_events > 0, "Bernoulli probe: no near-collisions")
            self.expect(0 < rep.empirical_eta < math.inf,
                        f"Bernoulli probe: eta = {rep.empirical_eta}")
        else:
            self.expect(rep.verdict == "FALSIFIED" and rep.witness is not None,
                        f"identical maps: {rep.verdict}")
            self.witness = rep.witness
        return 1, 0

    def finish(self):
        if self.witness is None:
            return oracles.digits(1.0)
        u, v, lam = self.witness
        lam = Fraction(lam)
        x0 = Fraction(0)  # the domain midpoint
        pu, du = oracles.affine_composition((PSI0, PSI0), u, lam, x0)
        pv, dv = oracles.affine_composition((PSI0, PSI0), v, lam, x0)
        phi, dphi = abs(float(pu - pv)), abs(float(du - dv))
        self.expect(phi < WITNESS_PHI_TOL and dphi < WITNESS_DPHI_TOL,
                    f"witness not confirmed: |Phi| = {phi}, |dPhi| = {dphi}")
        return oracles.digits(phi)


def _constant_probs(m):
    return [lambda lam, x: np.full(np.shape(x), 1.0 / m)] * m


class ChaosSobolev(Workload):
    """Chaos-game samples followed by the Sobolev-dimension heuristic on
    the uniform measure on [0, 1], the middle-thirds Cantor measure and
    the place-dependent Bernoulli convolution (lam = 0.6, rho = 0.2)."""

    name = "chaos-sobolev"
    BURN_IN = 100
    LAM, RHO = 0.6, 0.2
    KS_MAX = 0.01  # about 3/sqrt(n) at n = 1e5
    MOMENT_Z = 5.0
    DIGITS_CAP = 2.0

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.count = 10000 if smoke else 100000
        self.chain_seeds = [int(s) for s in self.rng.integers(0, 2 ** 31, size=3)]
        self.sample = None  # the last chaos-game sample, for the estimate after it
        rho = self.RHO
        self.measures = [
            ("uniform", _affine_family((0.5, 0.5), (0.0, 0.5)), _constant_probs(2), 0.0),
            ("cantor", _affine_family((1 / 3, 1 / 3), (0.0, 2 / 3)), _constant_probs(2), 0.0),
            ("bernoulli", hypifs.bernoulli_family(),
             [lambda lam, x: 0.5 + rho * np.asarray(x, dtype=float),
              lambda lam, x: 0.5 - rho * np.asarray(x, dtype=float)], self.LAM),
        ]
        self.dim_s = {}

    def warm_up(self):
        name, fam, probs, lam = self.measures[0]
        sample = hypifs.chaos_game_sample(fam, probs, lam, 1000, 10, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            hypifs.sobolev_estimate(sample)

    def _sample(self, k):
        name, fam, probs, lam = self.measures[k]
        self.sample = hypifs.chaos_game_sample(fam, probs, lam, self.count, self.BURN_IN,
                                               self.chain_seeds[k], family_id=name)
        return self.sample

    def _estimate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return hypifs.sobolev_estimate(self.sample)

    def ops(self):
        """Per measure: the chaos game, then the estimate on its sample."""
        ops = []
        for k in range(len(self.measures)):
            ops += [lambda k=k: self._sample(k), self._estimate]
        return ops

    def check(self, i, result):
        name = self.measures[i // 2][0]
        if i % 2 == 0:
            self.repeat_check(f"{name} sample", result.points.tobytes())
            self.expect(result.count == self.count, f"{name}: {result.count} points")
            return 1, 0
        points = self.sample.points
        dim_s = result["dim_s"]
        self.repeat_check(f"{name} dim_s", dim_s)
        self.dim_s[name] = dim_s
        if self.smoke:
            return 1, 0  # the statistical checks need the full sample
        if name == "uniform":
            self.expect(1.7 <= dim_s <= 2.3, f"uniform dim_s {dim_s} outside [1.7, 2.3]")
            ks = oracles.ks_uniform(points)
            self.expect(ks <= self.KS_MAX, f"uniform sample KS distance {ks}")
        elif name == "cantor":
            self.expect(abs(dim_s - oracles.CANTOR_DIMENSION) <= 0.08,
                        f"Cantor dim_s {dim_s} too far from log 2/log 3")
        else:
            f1 = float(hypifs.bernoulli_moments(self.LAM, self.RHO, 1)[0])
            mean, err = oracles.mean_and_error(points ** 2)
            self.expect(abs(mean - f1) <= self.MOMENT_Z * err,
                        f"Bernoulli second moment {mean} vs F1 {f1} (se {err:.2e})")
        return 1, 0

    def finish(self):
        # a 1e5-point sample resolves dim_s to about 0.005-0.01 (its spread
        # over seeds), so more than two digits would be sampling noise
        return oracles.digits(abs(self.dim_s["cantor"] - oracles.CANTOR_DIMENSION),
                              cap=self.DIGITS_CAP)


WORKLOADS = {w.name: w for w in (BlackwellScan, E2Bowen, McProbe, ChaosSobolev)}

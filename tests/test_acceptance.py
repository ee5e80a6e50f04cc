"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion and then
asserts it, so `pytest -v -s` doubles as a checklist.
"""

import math
import time

import numpy as np
import pytest
from test_apps import blackwell_cell_value

import hypifs as hi
from hypifs.mstats import correlation_dimension


def report(num, name, ok):
    print(f"\n[{num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def affine_fam(ratios, offsets, interval=(0.0, 1e-9)):
    maps = tuple(hi.affine_map(a, b) for a, b in zip(ratios, offsets))
    return hi.IfsFamily(maps, (0.0, 1.0), interval)


UNIFORM = lambda lam, x: 0.5 * np.ones_like(np.asarray(x, dtype=float))


def test_01_bowen_root_exactness():
    t0 = time.time()
    s1 = hi.bowen_root(affine_fam([0.5, 0.5], [0.0, 0.5]), 0.0)["s"]
    t1 = time.time() - t0
    t0 = time.time()
    s2 = hi.bowen_root(affine_fam([1 / 3, 1 / 3], [0.0, 2 / 3]), 0.0)["s"]
    t2 = time.time() - t0
    ok = (abs(s1 - 1.0) < 1e-6 and
          abs(s2 - math.log(2) / math.log(3)) < 1e-6 and
          t1 < 1.0 and t2 < 1.0)
    report(1, "bowen root exactness", ok)


def test_02_transfer_spectrum_closed_forms():
    fam = affine_fam([0.5, 0.5], [0.0, 0.5])
    pot = hi.constant_bernoulli_potential([0.3, 0.7])
    spec = hi.transfer_spectrum(fam, pot, 0.0, 6)
    words = hi.enumerate_words(2, 6)
    prod = np.prod(np.where(words == 1, 0.3, 0.7), axis=1)
    ok = (abs(spec.gamma - 1.0) < 1e-12 and
          np.abs(spec.h - 1.0).max() < 1e-12 and
          np.abs(spec.nu - prod).max() < 1e-12)
    report(2, "transfer-spectrum closed forms", ok)


def test_03_bernoulli_sandwich_and_region():
    lo0, hi0 = hi.bernoulli_entropy_bounds(0.55, 0.0, 12)
    lower, _ = hi.bernoulli_entropy_bounds(0.668, 0.45, 12)
    t0 = time.time()
    grid = hi.bernoulli_region_scan((0.0, 0.45), (0.51, 0.668), (50, 50), 12)
    dt = time.time() - t0
    ok = (abs(lo0 - math.log(2)) < 1e-12 and
          abs(hi0 - math.log(2)) < 1e-12 and
          lower > -math.log(0.668) and
          grid.values.shape == (50, 50) and dt < 10.0)
    report(3, "bernoulli-convolution sandwich and region scan", ok)


def test_04_moment_oracle():
    F = hi.bernoulli_moments(0.5, 0.0, 2)
    ok = abs(F[0] - 1 / 3) < 1e-12 and abs(F[1] - 1 / 5) < 1e-12
    report(4, "moment recursion uniform-law oracle", ok)


def test_05_blackwell_region():
    cells = [blackwell_cell_value(e, p, r=8)
             for e, p in [(0.45, 0.775), (0.55, 0.775), (0.45, 0.225)]]
    sym = abs(blackwell_cell_value(0.3, 0.7, r=8) -
              blackwell_cell_value(0.7, 0.7, r=8))
    t0 = time.time()
    grid = hi.blackwell_region_scan((0.05, 0.95), (0.05, 0.95), (50, 50), r=8)
    dt = time.time() - t0
    ok = (all(v > 1.0 for v in cells) and sym < 1e-6 and
          grid.values.shape == (50, 50) and dt < 60.0)
    report(5, "blackwell supercritical region", ok)


def test_06_cross_method_entropy():
    lo, up = hi.bernoulli_entropy_bounds(0.6, 0.2, 10)
    fam = hi.bernoulli_family()
    pot = hi.bernoulli_potential(0.2)
    spec = hi.transfer_spectrum(fam, pot, 0.6, 10)
    h, _ = hi.entropy(spec)
    slack = 2.0 * spec.truncation_bound
    ok = lo - slack <= h <= up + slack
    report(6, "cross-method entropy agreement", ok)


def test_07_transversality_certificates():
    tf3 = hi.build_pm_translation(affine_fam([0.3, 0.3], [0.2, 0.4]),
                                  0.0, 0.05)
    rep3 = hi.vertical_certificate(tf3)
    tf6 = hi.build_pm_translation(affine_fam([0.6, 0.6], [0.1, 0.3]),
                                  0.0, 0.05)
    rep6 = hi.vertical_certificate(tf6)
    ident = affine_fam([0.5, 0.5], [0.25, 0.25], (0.4, 0.6))
    probe = hi.mc_transversality_probe(ident, samples=2000, depth=30, seed=1)
    ok = (rep3.verdict == "CERTIFIED-cond1" and
          all(p.margin1 >= 1.1 for p in rep3.pairs) and
          rep6.verdict == "INCONCLUSIVE" and
          probe.verdict == "FALSIFIED" and probe.witness is not None)
    report(7, "vertical certificates and falsification", ok)


def test_08_monte_carlo_transversality_evidence():
    fam = hi.bernoulli_family((0.5, 0.66))
    t0 = time.time()
    a = hi.mc_transversality_probe(fam, samples=10000, depth=40, seed=7)
    dt = time.time() - t0
    b = hi.mc_transversality_probe(fam, samples=10000, depth=40, seed=7)
    ok = (a.verdict == "INCONCLUSIVE" and a.witness is None and
          a.empirical_eta > 0 and
          a.empirical_eta == b.empirical_eta and a.n_events == b.n_events and
          dt < 30.0)
    report(8, "monte-carlo transversality evidence", ok)


def test_09_pressure_drop():
    homog = affine_fam([0.5, 0.5], [0.0, 0.5])
    hetero = affine_fam([0.5, 1 / 3], [0.0, 2 / 3])
    ok = True
    for n in range(1, 7):
        for t in (0.5, 1.0):
            rh = hi.pressure_drop_check(homog, t, 0.0, n)
            rs = hi.pressure_drop_check(hetero, t, 0.0, n)
            ok = ok and rh["holds"] and rs["holds"]
            ok = ok and abs(rh["Z_A"] - rh["rhs"]) <= 1e-12 * rh["Z_A"]
            if n >= 2:  # the bound is tight for a single symbol
                ok = ok and rs["Z_A"] > rs["rhs"]
    report(9, "pressure-drop inequality", ok)


def test_10_continued_fractions():
    over, slack = hi.cf_overlap(1e-4, 0.4142)
    fam = hi.cf_family(1e-4, 0.4142)
    s = hi.bowen_root(fam, 0.0, r=8)["s"]
    ok = over and abs(slack - 0.298) < 1e-3 and s > 1.0
    report(10, "continued-fraction overlap and Bowen root", ok)


def test_11_correlation_dimension():
    cantor = affine_fam([1 / 3, 1 / 3], [0.0, 2 / 3])
    pot = hi.constant_bernoulli_potential([0.5, 0.5])
    mu = hi.gibbs_cylinder_measure(hi.transfer_spectrum(cantor, pot, 0.0, 12))
    d1 = correlation_dimension(cantor, 0.0, mu)["alpha"]
    sep = affine_fam([0.3, 0.4], [0.0, 0.6])
    s = hi.bowen_root(sep, 0.0)["s"]
    spec = hi.transfer_spectrum(sep, hi.t_log_derivative_potential(s), 0.0, 12)
    d2 = correlation_dimension(sep, 0.0,
                               hi.gibbs_cylinder_measure(spec))["alpha"]
    ok = (abs(d1 - math.log(2) / math.log(3)) < 0.02 and abs(d2 - s) < 0.03)
    report(11, "correlation dimension estimates", ok)


def test_12_condition_m_probe():
    fam = hi.bernoulli_family()
    pot = hi.bernoulli_potential(0.2)
    deltas = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1)
    res = hi.m_condition_probe(fam, pot, [(0.55, 0.55 + d) for d in deltas],
                               r=8)
    cees = [row["R"] / row["dlam"] for row in res["rows"]]
    ok = res["theta"] >= 0.9 and max(cees) < 10 * max(res["c"], min(cees))
    report(12, "condition (M) ratio probe", ok)


def test_13_sobolev_heuristic():
    uni_fam = affine_fam([0.5, 0.5], [0.0, 0.5])
    s_u = hi.chaos_game_sample(uni_fam, [UNIFORM, UNIFORM], 0.0,
                               100000, 100, seed=3)
    d_u = hi.sobolev_estimate(s_u)["dim_s"]
    s_d = hi.EmpiricalSample(np.full(100000, 0.5), "", 0.0, 0, 0)
    d_d = hi.sobolev_estimate(s_d)["dim_s"]
    cantor_fam = hi.bernoulli_family((1 / 3 - 1e-9, 0.5))
    s_c = hi.chaos_game_sample(cantor_fam, [UNIFORM, UNIFORM], 1 / 3,
                               100000, 100, seed=3)
    d_c = hi.sobolev_estimate(s_c)["dim_s"]
    ok = 1.7 <= d_u <= 2.3 and d_d <= 0.1 and abs(d_c - 0.63) <= 0.08
    report(13, "sobolev heuristic sanity", ok)

"""Energy sums, correlation dimension, sampling, Fourier decay, (M) probe."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypifs import mstats
from hypifs.apps import bernoulli_family, bernoulli_potential, blackwell_family
from hypifs.ifs import (AuditFailure, CustomMap, IfsFamily, affine_map,
                        bernoulli_psi, moebius_shift)
from hypifs.mstats import (SOBOLEV_BLOCK, SOBOLEV_PER_DECADE, EmpiricalSample,
                           _fourier_mean, chaos_game_sample,
                           correlation_dimension, energy, energy_level_sums,
                           m_condition_probe, sobolev_estimate, tail_ratio)
from hypifs.thermo import (constant_bernoulli_potential,
                           gibbs_cylinder_measure, log_probability_potential,
                           transfer_spectrum)
from hypifs.words import enumerate_words
from word_refs import compose_word


@pytest.fixture(scope="module")
def cantor():
    return IfsFamily((affine_map(1 / 3, 0.0), affine_map(1 / 3, 2 / 3)),
                     (0.0, 1.0), (0.0, 1e-9))


@pytest.fixture(scope="module")
def cantor_measure(cantor):
    pot = constant_bernoulli_potential([0.5, 0.5])
    return gibbs_cylinder_measure(transfer_spectrum(cantor, pot, 0.0, 12))


def test_energy_level_sums_closed_form(cantor, cantor_measure):
    # uniform Cantor: S_n = (1/2) * (2/3^alpha)^{-...}; ratio is (3^a)/2 ...
    alpha = 0.4
    sums = energy_level_sums(cantor_measure, cantor, 0.0, alpha, 8)
    # each level: m(u)^2 - sum m(ui)^2 = (2^-n)^2 / 2, count 2^n, length 3^-n
    expect = [3.0 ** (alpha * n) * 2.0 ** (-n) / 2.0 for n in range(9)]
    assert sums == pytest.approx(expect, rel=1e-9)
    ratio, spread = tail_ratio(sums)
    assert ratio == pytest.approx(3.0 ** alpha / 2.0, rel=1e-9)
    assert spread < 1e-9


def test_energy_finite_vs_infinite(cantor, cantor_measure):
    d_c = math.log(2) / math.log(3)
    assert energy(cantor_measure, cantor, 0.0, 0.4, 10)["finite_looking"]
    assert not energy(cantor_measure, cantor, 0.0, d_c + 0.2,
                      10)["finite_looking"]


def test_energy_validation(cantor, cantor_measure):
    with pytest.raises(ValueError):
        energy_level_sums(cantor_measure, cantor, 0.0, -0.5, 5)
    with pytest.raises(ValueError):
        energy_level_sums(cantor_measure, cantor, 0.0, 0.5, 20)


def test_correlation_dimension_cantor(cantor, cantor_measure):
    res = correlation_dimension(cantor, 0.0, cantor_measure)
    assert res["alpha"] == pytest.approx(math.log(2) / math.log(3), abs=1e-6)


def test_chaos_game_deterministic(cantor):
    uni = lambda lam, x: 0.5 * np.ones_like(np.asarray(x, dtype=float))
    a = chaos_game_sample(cantor, [uni, uni], 0.0, 500, 50, seed=9)
    b = chaos_game_sample(cantor, [uni, uni], 0.0, 500, 50, seed=9)
    assert np.array_equal(a.points, b.points)
    assert a.count == 500
    assert np.all((a.points >= 0) & (a.points <= 1))


def test_chaos_game_audits_probabilities(cantor):
    bad = lambda lam, x: 0.7 * np.ones_like(np.asarray(x, dtype=float))
    with pytest.raises(AuditFailure):
        chaos_game_sample(cantor, [bad, bad], 0.0, 100, 10, seed=0)


def test_sobolev_dirac_degenerate():
    sample = EmpiricalSample(np.full(20000, 0.3), "", 0.0, 0, 0)
    res = sobolev_estimate(sample)
    assert res["dim_s"] == 0.0
    assert res["label"] == "HEURISTIC"


def test_sobolev_uniform_slope():
    rng = np.random.default_rng(5)
    sample = EmpiricalSample(rng.random(100000), "", 0.0, 5, 0)
    res = sobolev_estimate(sample)
    assert 1.7 <= res["dim_s"] <= 2.3
    assert res["slope"] == pytest.approx(-2.0, abs=0.3)


def test_sobolev_rejects_non_finite_points():
    pts = np.random.default_rng(3).random(100000)
    pts[7] = np.nan
    with pytest.raises(ValueError, match="finite"):
        sobolev_estimate(EmpiricalSample(pts, "", 0.0, 3, 0))


@pytest.mark.parametrize("xi_max", [50.0, 98.0, 0.5])
def test_sobolev_rejects_windows_below_two_blocks(xi_max):
    sample = EmpiricalSample(np.random.default_rng(2).random(10000), "", 0.0, 2, 0)
    with pytest.raises(ValueError, match="xi_max"):
        sobolev_estimate(sample, xi_max)


def test_sobolev_window_holds_two_blocks_from_100_to_2000():
    """No integer xi_max in [100, 2000] leaves fewer than two blocks in
    the upper two decades (a Dirac sample stops right after that check);
    the default xi_max = 1000 keeps its grid of 64 frequencies per decade."""
    dirac = EmpiricalSample(np.full(10000, 0.3), "", 0.0, 0, 0)
    for xi_max in range(100, 2001):
        sobolev_estimate(dirac, float(xi_max))
    sample = EmpiricalSample(np.random.default_rng(2).random(10000), "", 0.0, 2, 0)
    for xi_max in (100.0, 101.0, 150.0, 200.0, 250.0, 2000.0):
        freqs = sobolev_estimate(sample, xi_max)["frequencies"]
        assert np.count_nonzero(freqs >= xi_max / 100.0) >= 2 * SOBOLEV_BLOCK
    default = sobolev_estimate(sample)["frequencies"]
    assert default.tobytes() == np.logspace(0.0, 3.0, 3 * SOBOLEV_PER_DECADE).tobytes()


def test_sobolev_warns_small_sample():
    rng = np.random.default_rng(1)
    sample = EmpiricalSample(rng.random(500), "", 0.0, 1, 0)
    with pytest.warns(UserWarning):
        sobolev_estimate(sample)


def test_m_condition_probe_validation(cantor):
    pot = constant_bernoulli_potential([0.5, 0.5])
    with pytest.raises(ValueError):
        m_condition_probe(cantor, pot, [(0.0, 0.0)])


def test_m_condition_probe_holder_fit():
    fam = IfsFamily((bernoulli_psi(0), bernoulli_psi(1)),
                    (-1.0, 1.0), (0.55, 0.66))
    from hypifs.apps import bernoulli_potential
    pot = bernoulli_potential(0.2)
    pairs = [(0.6, 0.6 + d) for d in (1e-3, 3e-3, 1e-2, 3e-2)]
    res = m_condition_probe(fam, pot, pairs, r=5)
    assert res["theta"] >= 0.9
    assert all(row["R"] >= 0 for row in res["rows"])


@pytest.mark.parametrize("kind", ["bernoulli", "blackwell"])
def test_energy_level_sums_match_per_word_lengths(kind):
    if kind == "bernoulli":
        fam, lam, pot = bernoulli_family(), 0.6, bernoulli_potential(0.2)
    else:
        fam, prob_fns = blackwell_family(0.3, 0.3)
        lam, pot = 0.3, log_probability_potential(prob_fns)
    measure = gibbs_cylinder_measure(transfer_spectrum(fam, pot, lam, 7))
    alpha = 0.6
    ref = []
    for n in range(7):
        lengths = np.concatenate([
            np.abs(compose_word(fam, w, lam, np.array([fam.domain[1]]))[0] -
                   compose_word(fam, w, lam, np.array([fam.domain[0]]))[0])
            for w in enumerate_words(fam.m, n)])
        child = measure.coarsen(n + 1).weights.reshape(-1, fam.m)
        cross = child.sum(axis=1) ** 2 - (child ** 2).sum(axis=1)
        ref.append(float(np.sum(lengths ** (-alpha) * cross)))
    sums = energy_level_sums(measure, fam, lam, alpha, 6)
    assert sums.tobytes() == np.array(ref).tobytes()


def test_chaos_game_needs_one_curve_per_map():
    fam = bernoulli_family()
    one = lambda lam, x: np.ones_like(np.asarray(x, dtype=float))
    third = lambda lam, x: np.full_like(np.asarray(x, dtype=float), 1 / 3)
    with pytest.raises(ValueError, match="one probability curve per map"):
        chaos_game_sample(fam, [one], 0.6, 100, 10, seed=0)
    with pytest.raises(ValueError, match="one probability curve per map"):
        chaos_game_sample(fam, [third, third, third], 0.6, 100, 10, seed=0)


@given(st.integers(1, 3000), st.floats(1.0, 1e4), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
@example(3000, 50.0, 0)  # cells * K < n: binned moments
@example(200, 9999.0, 1)  # one cell per point: the direct sum
def test_fourier_mean_matches_direct_sum(n, xi_max, seed):
    rng = np.random.default_rng(seed)
    pts = rng.random(n)
    pts[0], pts[-1] = 0.0, 1.0
    freqs = np.concatenate([np.logspace(0.0, math.log10(xi_max), 24), [xi_max]])
    ref = np.array([np.exp(1j * xi * pts).mean() for xi in freqs])
    err = np.abs(_fourier_mean(pts, freqs) - ref).max()
    assert err <= 1e-14 * (1 + xi_max)


@pytest.mark.parametrize("n", [10 ** 4, 10 ** 5])
def test_fourier_mean_dirichlet_kernel(n):
    # x_k = k/(n-1): sum_k e^{i theta k} = e^{i theta (n-1)/2} sin(n theta/2) / sin(theta/2)
    pts = np.arange(n) / (n - 1)
    freqs = np.logspace(0.0, 3.0, 192)
    theta = freqs / (n - 1)
    exact = (np.exp(0.5j * theta * (n - 1)) * np.sin(0.5 * n * theta)
             / np.sin(0.5 * theta) / n)
    assert np.abs(_fourier_mean(pts, freqs) - exact).max() <= 1e-14


def _chaos_reference(fam, prob_fns, lam, count, burn_in, seed):
    """The chaos game as one scalar loop that evaluates every curve."""
    uni = np.random.default_rng(seed).random(count + burn_in)
    x = fam.midpoint
    out = np.empty(count)
    maps = fam.at(lam).maps
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
    return out


def _constant_curves(probs):
    return [lambda lam, x, p=p: np.full(np.shape(x), p) for p in probs]


def _chaos_cases():
    halves = _constant_curves([0.5, 0.5])
    bw_fam, bw_probs = blackwell_family(0.2, 0.3)
    three = IfsFamily((affine_map(0.2, 0.0), affine_map(0.25, 0.35), affine_map(0.3, 0.7)),
                      (0.0, 1.0), (0.0, 1e-9))
    three_probs = [lambda lam, x: 0.2 + 0.1 * np.asarray(x, dtype=float),
                   lambda lam, x: 0.3 - 0.05 * np.asarray(x, dtype=float),
                   lambda lam, x: 0.5 - 0.05 * np.asarray(x, dtype=float)]
    uniform = IfsFamily((affine_map(0.5, 0.0), affine_map(0.5, 0.5)), (0.0, 1.0), (0.0, 1e-9))
    cantor = IfsFamily((affine_map(1 / 3, 0.0), affine_map(1 / 3, 2 / 3)),
                       (0.0, 1.0), (0.0, 1e-9))
    return {
        "uniform": (uniform, halves, 0.0, 9000, 100),
        "cantor": (cantor, halves, 0.0, 5000, 100),
        "bernoulli": (bernoulli_family(), bernoulli_potential(0.2).prob_fns, 0.6, 5000, 100),
        "blackwell": (bw_fam, bw_probs, 0.3, 5000, 100),
        "three-map": (three, three_probs, 0.0, 5000, 100),
        "one-point": (uniform, halves, 0.0, 1, 0),
    }


@pytest.mark.parametrize("name", list(_chaos_cases()))
def test_chaos_game_matches_scalar_reference(name):
    fam, probs, lam, count, burn_in = _chaos_cases()[name]
    sample = chaos_game_sample(fam, probs, lam, count, burn_in, seed=17)
    ref = _chaos_reference(fam, probs, lam, count, burn_in, seed=17)
    assert sample.points.tobytes() == ref.tobytes()


@st.composite
def _chaos_families(draw):
    """2-4 affine maps (either orientation) or Moebius maps x -> (x + c) /
    (x + c + 1) on [0, 1], some behind CustomMap, with constant curves or
    the curves p_1, p_2 tilted by rho (x - 1/2)."""
    m = draw(st.integers(2, 4))
    maps = []
    for _ in range(m):
        if draw(st.booleans()):
            mp = moebius_shift(draw(st.floats(0.05, 3.0)))
        else:
            a = draw(st.floats(0.05, 0.7)) * draw(st.sampled_from([1.0, -1.0]))
            b = max(-a, 0.0) + draw(st.floats(0.0, 1.0)) * (1.0 - abs(a))
            mp = affine_map(a, b)
        if draw(st.booleans()):
            mp = CustomMap(mp.value, mp.dx)
        maps.append(mp)
    fam = IfsFamily(tuple(maps), (0.0, 1.0), (0.0, 1e-9))
    if draw(st.booleans()):
        rho = draw(st.floats(-0.9, 0.9))
        sign = [1.0, -1.0] + [0.0] * (m - 2)
        probs = [lambda lam, x, s=s: (1.0 + s * rho * (np.asarray(x, dtype=float) - 0.5)) / m
                 for s in sign]
    else:
        w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m)))
        probs = _constant_curves(w / w.sum())
    return fam, probs


@given(_chaos_families(), st.integers(1, 1500), st.integers(0, 50),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
@example((IfsFamily((affine_map(0.5, 0.0), affine_map(0.5, 0.5)), (0.0, 1.0), (0.0, 1e-9)),
          _constant_curves([0.5, 0.5])), 1, 0, 0)
@example((IfsFamily((affine_map(0.5, 0.25),), (0.0, 1.0), (0.0, 1e-9)),
          _constant_curves([1.0])), 40, 0, 3)
@example((IfsFamily((affine_map(0.3, 0.0), affine_map(0.3, 0.35), affine_map(0.3, 0.7)),
                   (0.0, 1.0), (0.0, 1e-9)),
          [lambda lam, x: 0.3, lambda lam, x: 0.3, lambda lam, x: 0.4]), 200, 5, 1)
def test_chaos_game_is_the_scalar_chain(case, count, burn_in, seed):
    fam, probs = case
    sample = chaos_game_sample(fam, probs, 0.0, count, burn_in, seed)
    ref = _chaos_reference(fam, probs, 0.0, count, burn_in, seed)
    assert sample.points.tobytes() == ref.tobytes()


def _recording_finish(monkeypatch):
    """Record the first uncertified step of every scalar finish."""
    starts = []
    finish = mstats._scalar_finish

    def recorded(*args):
        starts.append(args[-1])
        finish(*args)

    monkeypatch.setattr(mstats, "_scalar_finish", recorded)
    return starts


def test_chaos_game_hands_a_slowly_coupling_chain_to_the_scalar_loop(monkeypatch):
    # contraction 0.99: two starts agree to the last bit only after about
    # 3700 steps, far beyond CHAOS_BUDGET sweeps
    starts = _recording_finish(monkeypatch)
    fam = IfsFamily((affine_map(0.99, 0.0), affine_map(0.99, 0.01)), (0.0, 1.0), (0.0, 1e-9))
    probs = _constant_curves([0.5, 0.5])
    sample = chaos_game_sample(fam, probs, 0.0, 3000, 100, seed=5)
    assert len(starts) == 1 and 0 < starts[0] < 3100
    assert sample.points.tobytes() == _chaos_reference(fam, probs, 0.0, 3000, 100, 5).tobytes()


@pytest.mark.parametrize("name", ["uniform", "bernoulli", "blackwell", "three-map"])
@pytest.mark.parametrize("budget", [1, 20])
def test_chaos_game_budget_path_matches_scalar_reference(monkeypatch, name, budget):
    starts = _recording_finish(monkeypatch)
    monkeypatch.setattr(mstats, "CHAOS_BUDGET", budget)
    fam, probs, lam, count, burn_in = _chaos_cases()[name]
    sample = chaos_game_sample(fam, probs, lam, count, burn_in, seed=23)
    assert len(starts) == 1
    ref = _chaos_reference(fam, probs, lam, count, burn_in, seed=23)
    assert sample.points.tobytes() == ref.tobytes()

"""Transfer spectra, pressure, Bowen roots, entropy, partition sums."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypifs import ifs, thermo
from hypifs.apps import (bernoulli_entropy_bounds, bernoulli_family,
                         bernoulli_moments, bernoulli_potential, blackwell_family,
                         cf_family, similarity_dimension)
from hypifs.ifs import (AuditFailure, CustomMap, IfsFamily, RationalMap,
                        affine_map, bernoulli_psi, moebius_shift, poly)
from hypifs.thermo import (CollocationUnresolved, CylinderMeasure, Potential,
                           bowen_root, collocation_h_chi,
                           constant_bernoulli_potential, entropy,
                           gibbs_cylinder_measure, log_probability_potential,
                           lyapunov_exponent,
                           partition_sum, pressure, pressure_bracket,
                           pressure_drop_check, t_log_derivative_potential,
                           transfer_spectrum)
from hypifs.words import enumerate_words
from word_refs import compose_word


@pytest.fixture
def dyadic():
    return IfsFamily((affine_map(0.5, 0.0), affine_map(0.5, 0.5)),
                     (0.0, 1.0), (0.0, 1e-9))


@pytest.fixture
def cantor():
    return IfsFamily((affine_map(1 / 3, 0.0), affine_map(1 / 3, 2 / 3)),
                     (0.0, 1.0), (0.0, 1e-9))


def test_constant_potential_validation():
    with pytest.raises(ValueError):
        constant_bernoulli_potential([0.3, 0.6])
    with pytest.raises(ValueError):
        constant_bernoulli_potential([1.2, -0.2])


def test_truncation_bound_decays(dyadic):
    pot = t_log_derivative_potential(1.0)
    b5 = transfer_spectrum(dyadic, pot, 0.0, 5).truncation_bound
    b8 = transfer_spectrum(dyadic, pot, 0.0, 8).truncation_bound
    assert 0 <= b8 <= b5


def test_spectrum_constant_bernoulli_closed_form(dyadic):
    pot = constant_bernoulli_potential([0.3, 0.7])
    spec = transfer_spectrum(dyadic, pot, 0.0, 5)
    words = enumerate_words(2, 5)
    prod = np.prod(np.where(words == 1, 0.3, 0.7), axis=1)
    assert spec.gamma == pytest.approx(1.0, abs=1e-12)
    assert np.abs(spec.h - 1.0).max() < 1e-12
    assert np.abs(spec.nu - prod).max() < 1e-12


def test_spectrum_normalization(dyadic):
    pot = t_log_derivative_potential(0.7)
    spec = transfer_spectrum(dyadic, pot, 0.0, 6)
    assert spec.nu.sum() == pytest.approx(1.0, abs=1e-12)
    assert float(spec.h @ spec.nu) == pytest.approx(1.0, abs=1e-12)
    assert spec.residual_right < 1e-8 and spec.residual_left < 1e-8


def test_pressure_homogeneous_closed_form(dyadic):
    # P(t) = log(m) + t log(gamma) for equicontractive affine families
    for t in (0.0, 0.5, 1.3):
        p = pressure(dyadic, t, 0.0, r=6)
        assert p == pytest.approx(math.log(2) - t * math.log(2), abs=1e-10)


def test_pressure_partition_bracket(cantor):
    lo, hi = pressure_bracket(cantor, 0.8, 0.0, n=7)
    exact = math.log(2) - 0.8 * math.log(3)
    assert lo - 1e-12 <= exact <= hi + 1e-12
    assert 0.5 * (lo + hi) == pytest.approx(exact, abs=1e-9)


def test_gibbs_measure_consistency(dyadic):
    pot = constant_bernoulli_potential([0.4, 0.6])
    spec = transfer_spectrum(dyadic, pot, 0.0, 6)
    mu = gibbs_cylinder_measure(spec)
    assert mu.total_mass == pytest.approx(1.0, abs=1e-12)
    coarse = mu.coarsen(1)
    assert coarse.weights == pytest.approx([0.4, 0.6], abs=1e-10)


def test_coarsen_range_check(dyadic):
    mu = CylinderMeasure(3, 2, np.full(8, 1 / 8))
    with pytest.raises(ValueError):
        mu.coarsen(4)


def test_entropy_and_lyapunov_bernoulli(dyadic):
    pot = constant_bernoulli_potential([0.3, 0.7])
    spec = transfer_spectrum(dyadic, pot, 0.0, 8)
    h, shannon = entropy(spec)
    expect = -(0.3 * math.log(0.3) + 0.7 * math.log(0.7))
    assert h == pytest.approx(expect, abs=1e-10)
    assert shannon == pytest.approx(expect, rel=0.2)
    chi = lyapunov_exponent(dyadic, 0.0, gibbs_cylinder_measure(spec))
    assert chi == pytest.approx(math.log(2), abs=1e-10)


def test_bowen_root_exact(dyadic, cantor):
    assert bowen_root(dyadic, 0.0)["s"] == pytest.approx(1.0, abs=1e-14)
    assert bowen_root(cantor, 0.0)["s"] == pytest.approx(
        math.log(2) / math.log(3), abs=1e-14)


E2 = IfsFamily(tuple(RationalMap(poly(1.0), poly(0.0), poly(float(k)), poly(1.0))
                     for k in (1, 2)), (1 / 3, 1.0), (0.0, 1e-9))
E2_DIMENSION = 0.5312805062772051  # Jenkinson & Pollicott, Adv. Math. 2018


def test_bowen_root_oracles(cantor):
    res = bowen_root(cantor, 0.0)
    assert abs(res["s"] - math.log(2) / math.log(3)) <= 1e-14
    assert abs(res["pressure_at_s"]) <= 1e-14
    # continued fractions with digits {1, 2}: the collocation root is
    # limited by rounding, not by a truncation depth
    res = bowen_root(E2, 0.0, r=14)
    assert res["backend"] == "collocation"
    assert abs(res["s"] - E2_DIMENSION) <= 1e-13
    assert res["error_estimate"] <= 1e-13


def as_custom_maps(fam):
    """`fam` with every map a CustomMap of its value and dx."""
    return IfsFamily(tuple(CustomMap(mp.value, mp.dx) for mp in fam.maps),
                     fam.domain, fam.param_interval)


def test_bowen_root_solves_each_pressure_once(cantor, monkeypatch):
    coll, cyl, ts, rungs = [], [], [], []
    eigen_step = thermo._perron_log
    bowen_solve = thermo._bowen_solve
    rung_check = thermo._collocation_rung

    def recording_solve(P, m, slope, near=None):
        def recorded(t):  # `_bowen_solve` memoises this, so once per t
            ts.append(t)
            return P(t)
        return bowen_solve(recorded, m, slope, near)

    def recording_collocation(op):
        coll.append((op.shape[0], op.tobytes()))
        return eigen_step(op)

    def recording_rung(frozen, n, read):
        rungs.append(n)
        return rung_check(frozen, n, read)

    def recording_cylinder(fam, t, lam, r=8):
        cyl.append(t)
        return pressure(fam, t, lam, r)

    monkeypatch.setattr(thermo, "_bowen_solve", recording_solve)
    monkeypatch.setattr(thermo, "_perron_log", recording_collocation)
    monkeypatch.setattr(thermo, "_collocation_rung", recording_rung)
    monkeypatch.setattr(thermo, "pressure", recording_cylinder)
    n, n2 = thermo.COLLOCATION_LADDER[:2]
    for fam in (cantor, as_custom_maps(cantor)):
        coll.clear()
        ts.clear()
        rungs.clear()
        s = bowen_root(fam, 0.0)["s"]
        assert cyl == [] and len(ts) == len(set(ts)) > 0 and s in ts
        # each t is one eigen-solve at N, and s one more at 2N, on t log|f_j'|
        # at the nodes; each rung is checked once
        frozen = fam.at(np.array([[0.0]]))
        solves = [(n, t) for t in ts] + [(n2, s)]
        assert coll == [(k, thermo._collocation_operator(
            frozen, np.exp(t * frozen.collocation(k).log_dx))[0].tobytes())
            for k, t in solves]
        assert rungs == [n, n2]

    coll.clear()
    rungs.clear()
    # f_2([0, 0.9]) = [2/3, 29/30] leaves the domain: no collocation
    escaping = IfsFamily(cantor.maps, (0.0, 0.9), cantor.param_interval)
    assert bowen_root(escaping, 0.0)["backend"] == "cylinder"
    assert coll == [] and len(cyl) == len(set(cyl)) > 0
    # every pair stops at its unusable coarser rung, so the finest is not read
    assert rungs == list(thermo.COLLOCATION_LADDER[:-1])


# E2 with lambda in the denominator, x -> 1/(k + lam + x): it leaves the
# domain for every lam > 0, as f_2(1) = 1/(3 + lam) < 1/3
SHIFTED_E2 = IfsFamily(tuple(RationalMap(poly(1.0), poly(0.0), poly(float(k), 1.0), poly(1.0))
                             for k in (1, 2)), E2.domain, (0.0, 0.5))


def test_bowen_root_checks_the_node_images_at_lam_not_over_the_parameter_interval():
    assert not ifs.regularity_audit(SHIFTED_E2).invariant
    res = bowen_root(SHIFTED_E2, 0.0)
    assert res["backend"] == "collocation"
    assert abs(res["s"] - E2_DIMENSION) <= 1e-12
    assert bowen_root(SHIFTED_E2, 0.3)["backend"] == "cylinder"


def test_bowen_root_falls_back_where_collocation_is_unresolved():
    # |f_1'| ~ 0.994 at the fixed point of f_1: even P_96 and P_192 differ
    # by ~1e-11 at the root of P_96
    fam = cf_family(1e-5, 0.4142)
    res = bowen_root(fam, 0.0, r=8)
    assert res["backend"] == "cylinder"
    lo, hi = res["partition_bracket"]
    assert lo <= 0.0 <= hi


def test_bowen_root_settles_on_a_later_rung_pair():
    # P_24 and P_48 differ by ~1e-9 at the root, P_48 and P_96 agree: the
    # first two rungs alone left the depth-8 cylinder root 1.0490, whose
    # error estimate was 8.5
    fam = cf_family(0.001, 0.5)
    res = bowen_root(fam, 0.0)
    assert res["backend"] == "collocation" and res["error_estimate"] < 1e-12
    assert abs(res["s"] - _root_on_384_nodes(fam)) <= 1e-12


def test_bowen_root_of_slow_cf_family_settles_on_collocation():
    # |f_1'| ~ 0.98 at the fixed point of f_1: the rung pairs (24, 48) and
    # (48, 96) differ by ~4e-6 and ~1e-10 at their roots, (96, 192) agrees.
    # Checking every point of the root solve at 2N gave up at t ~ 17.3 and
    # left the depth-8 cylinder root 1.3285, whose error estimate was 50
    fam = cf_family(1e-4, 0.4142)
    res = bowen_root(fam, 0.0, r=8)
    assert res["backend"] == "collocation" and res["error_estimate"] < 1e-12
    assert abs(res["s"] - _root_on_384_nodes(fam)) <= 1e-12


def _root_on_384_nodes(fam):
    """The root in [0.5, 1.5] of P_384 at lambda = 0, the reference for a
    settled Bowen root."""
    frozen = fam.at(0.0)
    return ifs.solve_root(
        lambda t: collocation_pressure(frozen, t_log_derivative_potential(t), 384), 0.5, 1.5)


def test_bowen_root_solves_later_pairs_near_the_last_root(monkeypatch):
    # cf(1e-4, 0.4142) settles on (96, 192).  A solve from [0, t_hi] takes
    # about 20 eigen-solves at every rung; from a bracket around the last
    # root, the solves at 48 and 96 nodes together take fewer than the
    # first one at 24
    eigen_step = thermo._perron_log
    sizes = []

    def counting(op):
        sizes.append(op.shape[0])
        return eigen_step(op)

    monkeypatch.setattr(thermo, "_perron_log", counting)
    fam = cf_family(1e-4, 0.4142)
    res = bowen_root(fam, 0.0)
    assert res["backend"] == "collocation"
    assert sizes.count(192) == 1 and sizes.count(48) + sizes.count(96) < sizes.count(24)
    assert abs(res["s"] - _root_on_384_nodes(fam)) <= 1e-12


@pytest.mark.parametrize("near, lo, hi", [((0.9, 0.01), 0.9, 1.06), ((1.2, 0.01), 0.88, 1.2),
                                          ((0.9, 5.0), 0.0, 2.0)],
                         ids=["right", "left", "past-t_hi"])
def test_bowen_solve_widens_a_bracket_around_a_near_root(near, lo, hi):
    # P(t) = log 2 (1 - t), root 1, t_hi = log 2 / slope = 2: d doubles from
    # 0.01 until P changes sign between s0 and s0 +- d, on the side where
    # P(s0) puts the root (0.9 + 0.16, 1.2 - 0.32); a bracket that passes
    # t_hi falls back to [0, 2]
    read = []

    def P(t):
        read.append(t)
        return math.log(2) * (1 - t)

    s, p_s = thermo._bowen_solve(P, 2, 0.5 * math.log(2), near)
    assert (min(read), max(read)) == (pytest.approx(lo), pytest.approx(hi))
    assert len(read) == len(set(read))  # each point once
    assert abs(s - 1.0) <= 1e-15 and p_s == P(s)


def _placed(ratios):
    """(ratios, offsets): the contraction ratios placed left to right on
    [0, 1] with equal gaps."""
    gap = (1.0 - sum(ratios)) / (len(ratios) - 1)
    offsets = np.concatenate([[0.0], np.cumsum(np.add(ratios, gap))[:-1]])
    return ratios, offsets


@st.composite
def _separated_affine(draw):
    """2-4 contraction ratios in [0.05, 0.24] placed left to right on [0, 1]
    with positive gaps."""
    return _placed(draw(st.lists(st.floats(0.05, 0.24), min_size=2, max_size=4)))


@given(_separated_affine())
@settings(max_examples=25, deadline=None)
def test_bowen_root_of_affine_family_is_similarity_dimension(case):
    ratios, offsets = case
    fam = IfsFamily(tuple(affine_map(a, b) for a, b in zip(ratios, offsets)),
                    (0.0, 1.0), (0.0, 1e-9))
    s = bowen_root(fam, 0.0, r=4)["s"]
    assert abs(s - similarity_dimension(ratios)) <= 1e-12


ROUNDING = 64 * np.finfo(float).eps  # two eigen-solves' rounding of a pressure


def collocation_pressure(frozen, pot, n=thermo.COLLOCATION_LADDER[0]):
    """P_n of `pot` on the frozen family's n Chebyshev nodes: the log of the
    Perron root of sum_j diag(exp(g_j)) B_j for the weights g_j of `pot`."""
    nodes = frozen.collocation(n).nodes
    g = np.array([g_j(nodes) for g_j in pot.weights(frozen)])
    return thermo._perron_log(thermo._collocation_operator(frozen, np.exp(g)))


@pytest.mark.parametrize("r", range(4, 11))
def test_truncation_bound_holds_on_e2(r):
    spec = transfer_spectrum(E2, t_log_derivative_potential(E2_DIMENSION), 0.0, r)
    p_coll = collocation_pressure(E2.at(0.0), t_log_derivative_potential(E2_DIMENSION))
    assert abs(p_coll) <= ROUNDING  # P(s*) = 0
    assert abs(spec.pressure - p_coll) <= spec.truncation_bound + ROUNDING


@given(_separated_affine(), st.floats(0.0, 2.0), st.integers(1, 6))
# nu is ~2.4e-4 per cylinder here: a stopping rule on its absolute change
# ended after 2 steps with a left residual of 1.4e-8
@example(_placed([0.1875, 0.1875, 0.09375, 0.09375]), 1e-8, 6)
@settings(max_examples=25, deadline=None)
def test_truncation_bound_holds_on_affine_families(case, t, r):
    ratios, offsets = case
    fam = IfsFamily(tuple(affine_map(a, b) for a, b in zip(ratios, offsets)),
                    (0.0, 1.0), (0.0, 1e-9))
    spec = transfer_spectrum(fam, t_log_derivative_potential(t), 0.0, r)
    p_coll = collocation_pressure(fam.at(0.0), t_log_derivative_potential(t))
    assert abs(p_coll - math.log(sum(a ** t for a in ratios))) <= ROUNDING
    assert abs(spec.pressure - p_coll) <= spec.truncation_bound + ROUNDING


def test_bowen_root_bracket_contains_zero(cantor):
    res = bowen_root(cantor, 0.0)
    lo, hi = res["partition_bracket"]
    assert lo - 1e-9 <= 0.0 <= hi + 1e-9


def test_partition_sum_modes(cantor):
    z_inf, z_sup = partition_sum(cantor, [1, 2], 1.0, 0.0, 4)
    assert z_inf == pytest.approx(z_sup)  # affine: derivative is constant
    assert z_inf == pytest.approx((2 / 3) ** 4)


def test_partition_sum_of_an_empty_subset_names_it(cantor):
    with pytest.raises(ValueError, match="partition subset is empty"):
        partition_sum(cantor, [], 1.0, 0.0, 4)


def test_partition_sum_moebius_one_pass():
    # x -> 1/(k + x) is decreasing, so the sums run on the full x-grid and
    # |f_u'| is not constant: inf and sup differ
    t = E2_DIMENSION
    z_inf, z_sup = partition_sum(E2, [1, 2], t, 0.0, 4)
    assert z_inf < z_sup
    xs = np.linspace(*E2.domain, 65)
    dx = np.array([np.abs(compose_word(E2, w, 0.0, xs)[1])
                   for w in enumerate_words(2, 4)])
    assert z_inf == pytest.approx(np.sum(dx.min(axis=1) ** t), rel=1e-13)
    assert z_sup == pytest.approx(np.sum(dx.max(axis=1) ** t), rel=1e-13)
    for n in (4, 6, 8):
        lo, hi = pressure_bracket(E2, t, 0.0, n)
        assert lo < 0.0 < hi


def test_pressure_drop_homogeneous_equality(dyadic):
    for t in (0.5, 1.0):
        res = pressure_drop_check(dyadic, t, 0.0, 5)
        assert res["holds"]
        assert res["Z_A"] == pytest.approx(res["rhs"], rel=1e-12)


def test_pressure_drop_strict():
    fam = IfsFamily((affine_map(0.5, 0.0), affine_map(1 / 3, 2 / 3)),
                    (0.0, 1.0), (0.0, 1e-9))
    res = pressure_drop_check(fam, 1.0, 0.0, 5)
    assert res["holds"]
    assert res["Z_A"] > res["rhs"]


def test_place_dependent_potential_audit():
    fam = IfsFamily((bernoulli_psi(0), bernoulli_psi(1)),
                    (-1.0, 1.0), (0.5, 0.66))
    bad = log_probability_potential(
        [lambda lam, x: 0.5 + 0.6 * np.asarray(x, dtype=float),
         lambda lam, x: 0.5 - 0.6 * np.asarray(x, dtype=float)])
    with pytest.raises(AuditFailure):
        transfer_spectrum(fam, bad, 0.6, 4)


def _tilted_probs(m, rho):
    """p_1 = (1 + rho (x - 1/2)) / m, p_2 = (1 - rho (x - 1/2)) / m, others 1/m."""
    def p(j):
        sign = (1.0, -1.0, 0.0)[min(j, 2)]
        return lambda lam, x: (1.0 + sign * rho * (np.asarray(x, dtype=float) - 0.5)) / m
    return [p(j) for j in range(m)]


@st.composite
def _family_cases(draw):
    """Affine or Moebius families on [0, 1] with lambda-dependent
    coefficients, some maps hidden behind CustomMap."""
    m = draw(st.integers(2, 3))
    moebius = draw(st.booleans())
    unit = st.floats(0.0, 0.25)
    maps = []
    for _ in range(m):
        if moebius:
            mp = moebius_shift(poly(draw(st.floats(0.1, 2.0)), draw(st.floats(0.0, 1.0))))
        else:
            mp = affine_map(poly(draw(st.floats(0.05, 0.3)), draw(st.floats(0.0, 0.2))),
                            poly(draw(unit), draw(unit)))
        if draw(st.booleans()):
            mp = CustomMap(mp.value, mp.dx)
        maps.append(mp)
    fam = IfsFamily(tuple(maps), (0.0, 1.0), (0.0, 1.0))
    depth = draw(st.integers(1, 8 if m == 2 else 6))
    lams = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2))
    return fam, depth, lams, draw(st.floats(-0.9, 0.9)), draw(st.floats(0.1, 2.0))


@given(_family_cases())
@settings(max_examples=25, deadline=None)
def test_builtin_tables_match_per_word_composition(case):
    fam, depth, lams, rho, t = case
    probs = _tilted_probs(fam.m, rho)
    logp, tlog = log_probability_potential(probs), t_log_derivative_potential(t)
    const_probs = np.arange(1, fam.m + 1) / (fam.m * (fam.m + 1) // 2)
    const = constant_bernoulli_potential(const_probs)
    # the table of constant probabilities, written out: log p_{w_1}
    ref_const = np.repeat(np.log(const_probs), fam.m ** (depth - 1))
    words = enumerate_words(fam.m, depth)
    for lam in lams:
        # one-element arrays, not scalars: numpy squares an array with a
        # multiplication but a scalar with pow(), which can differ by an ulp
        x0 = np.array([fam.at(lam).tail_point])
        ys = [compose_word(fam, w[1:], lam, x0)[0] for w in words]
        ref_logp = np.concatenate([np.log(probs[w[0] - 1](lam, y))
                                   for w, y in zip(words, ys)])
        ref_tlog = np.concatenate([t * np.log(np.abs(fam.maps[w[0] - 1].dx(lam, y)))
                                   for w, y in zip(words, ys)])
        assert logp.table(fam, lam, depth).tobytes() == ref_logp.tobytes()
        assert tlog.table(fam, lam, depth).tobytes() == ref_tlog.tobytes()
        assert const.table(fam, lam, depth).tobytes() == ref_const.tobytes()


@given(_family_cases(), st.sampled_from(["log-probability", "tlog", "constant"]))
@settings(max_examples=25, deadline=None)
def test_gibbs_measure_has_mass_one_and_consistent_coarsenings(case, kind):
    fam, depth, lams, rho, t = case
    const_probs = np.arange(1, fam.m + 1) / (fam.m * (fam.m + 1) // 2)
    pot = {"log-probability": log_probability_potential(_tilted_probs(fam.m, rho)),
           "tlog": t_log_derivative_potential(t),
           "constant": constant_bernoulli_potential(const_probs)}[kind]
    for lam in lams:
        mu = gibbs_cylinder_measure(transfer_spectrum(fam, pot, lam, depth))
        assert np.all(mu.weights > 0)
        assert mu.total_mass == pytest.approx(1.0, abs=1e-12)
        assert mu.coarsen(depth).weights.tobytes() == mu.weights.tobytes()
        for d in range(1, depth):
            coarse = mu.coarsen(d)
            # each depth-d cylinder weighs what its depth-(d+1) children weigh
            children = mu.coarsen(d + 1).weights.reshape(-1, fam.m).sum(axis=1)
            assert np.allclose(coarse.weights, children, rtol=1e-13, atol=0.0)
            assert coarse.total_mass == pytest.approx(1.0, abs=1e-12)
        if kind == "constant":
            assert mu.coarsen(1).weights == pytest.approx(const_probs, abs=1e-10)


@given(_family_cases())
@settings(max_examples=25, deadline=None)
def test_pressure_of_log_probability_potentials_is_zero(case):
    # sum_j p_j = 1 makes the transfer operator fix the constant 1
    fam, depth, lams, rho, _ = case
    pot = log_probability_potential(_tilted_probs(fam.m, rho))
    for lam in lams:
        assert abs(transfer_spectrum(fam, pot, lam, depth).pressure) <= ROUNDING
        p_coll = collocation_pressure(fam.at(lam), pot)
        assert abs(p_coll) <= ROUNDING


def test_transfer_spectrum_checks_size_before_tables():
    def weights(frozen):
        raise AssertionError("a table was built")

    pot = Potential(kind="probe", weights=weights)
    with pytest.raises(ValueError, match="exceeds cap"):
        transfer_spectrum(THREE_MAPS, pot, 0.0, 40)
    with pytest.raises(ValueError, match="depth must be positive"):
        transfer_spectrum(THREE_MAPS, pot, 0.0, 0)


def test_truncation_bound_computed_on_read():
    fam = IfsFamily((bernoulli_psi(0), bernoulli_psi(1)), (-1.0, 1.0), (0.5, 0.66))
    pot = log_probability_potential(_tilted_probs(2, 0.4))
    spec = transfer_spectrum(fam, pot, 0.6, 6)
    assert fam not in ifs._audit_cache  # no audit until the bound is read
    bound = spec.truncation_bound
    assert fam in ifs._audit_cache
    b, alpha = pot.variation(fam, 0.6)
    assert 0 < alpha < 1  # the clamp into (0, 1) leaves alpha as it is
    assert bound == b * alpha ** 7


def test_user_potential_without_default_variation(dyadic):
    pot = Potential("user", lambda frozen: [np.zeros_like] * frozen.m)
    spec = transfer_spectrum(dyadic, pot, 0.0, 4)
    assert spec.pressure == pytest.approx(math.log(2), abs=1e-12)
    with pytest.raises(ValueError, match="no variation bound"):
        spec.truncation_bound


def test_builtin_potentials_declare_all_their_data():
    declared = {f.name for f in dataclasses.fields(Potential)}
    for pot in (constant_bernoulli_potential([0.5, 0.5]),
                log_probability_potential(_tilted_probs(2, 0.2)),
                t_log_derivative_potential(0.7)):
        assert set(vars(pot)) == declared


def test_probability_audit_is_per_family_object():
    # curves positive on [-1/2, 1/2] but not on [-1, 1]; a memo keyed on a
    # recycled id(fam) would skip the second family's audit
    pot = log_probability_potential(
        [lambda lam, x: 0.5 + 0.6 * np.asarray(x, dtype=float),
         lambda lam, x: 0.5 - 0.6 * np.asarray(x, dtype=float)])
    for _ in range(5):
        good = IfsFamily((affine_map(0.4, -0.3), affine_map(0.4, 0.3)),
                         (-0.5, 0.5), (0.0, 1e-9))
        pot.table(good, 0.0, 3)
        del good
        bad = IfsFamily((affine_map(0.5, -0.5), affine_map(0.5, 0.5)),
                        (-1.0, 1.0), (0.0, 1e-9))
        with pytest.raises(AuditFailure):
            pot.table(bad, 0.0, 3)
        del bad


def _csr_products(A):
    """y = A @ x summed as scipy's csr_matvec sums a row: one product per
    stored entry, added in ascending column order.  Written as separate numpy
    multiplies and adds, so no compiler can fuse them into multiply-adds."""
    A = A.tocsr()
    A.sort_indices()
    k = int(A.indptr[1])
    assert (np.diff(A.indptr) == k).all()  # every row holds k entries
    data, cols = A.data.reshape(-1, k), A.indices.reshape(-1, k)

    def apply(x):
        y = data[:, 0] * x[cols[:, 0]]
        for j in range(1, k):
            y = y + data[:, j] * x[cols[:, j]]
        np.testing.assert_array_max_ulp(A @ x, y, maxulp=2)
        return y
    return apply


def _csr_spectrum(fam, pot, lam, r, tol=1e-12, max_iter=10000):
    """Power iteration on the scipy CSR operator M[w, (i.w)|_r] = exp(phi(i.w)),
    applied in csr_matvec's summation order: the reference the array products
    must reproduce bit for bit."""
    m = fam.m
    n, base = m ** r, m ** (r - 1)
    phi_vals = pot.table(fam, lam, r + 1)
    w = np.arange(n)
    rows, cols, vals = [], [], []
    for i in range(1, m + 1):
        rows.append(w)
        cols.append((i - 1) * base + w // m)
        vals.append(np.exp(phi_vals[(i - 1) * n + w]))
    A = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))
    M, Mt = _csr_products(A), _csr_products(A.T)
    h, nu, gamma = np.ones(n), np.full(n, 1.0 / n), 1.0
    for iters in range(1, max_iter + 1):
        h_new, nu_new = M(h), Mt(nu)
        g_new = float(h_new.max())
        h_new = h_new / g_new
        nu_new = nu_new / nu_new.sum()
        delta = max(np.abs(h_new - h).max(), np.abs(nu_new - nu).max() / nu_new.max(),
                    abs(g_new - gamma) / max(g_new, 1e-300))
        h, nu, gamma = h_new, nu_new, g_new
        if delta < tol:
            break
    gamma = float(nu @ M(h)) / float(nu @ h)
    nu = nu / nu.sum()
    h = h / float(h @ nu)
    res_r = float(np.abs(M(h) - gamma * h).max() / np.abs(h).max())
    res_l = float(np.abs(Mt(nu) - gamma * nu).max() / np.abs(nu).max())
    return gamma, h, nu, iters, res_r, res_l


def _blackwell_case():
    fam, probs = blackwell_family(0.2, 0.3)
    return fam, log_probability_potential(probs), 0.3


THREE_MAPS = IfsFamily((affine_map(0.2, 0.0), affine_map(0.25, 0.35), affine_map(0.3, 0.7)),
                       (0.0, 1.0), (0.0, 1e-9))
PLACE_DEPENDENT = [lambda lam, x: 0.2 + 0.1 * np.asarray(x, dtype=float),
                   lambda lam, x: 0.3 - 0.05 * np.asarray(x, dtype=float),
                   lambda lam, x: 0.5 - 0.05 * np.asarray(x, dtype=float)]


@pytest.mark.parametrize("case, r", [
    (_blackwell_case, 1), (_blackwell_case, 8),
    (lambda: (bernoulli_family(), bernoulli_potential(0.2), 0.6), 10),
    (lambda: (THREE_MAPS, t_log_derivative_potential(0.7), 0.0), 6),
    (lambda: (THREE_MAPS, constant_bernoulli_potential([0.2, 0.3, 0.5]), 0.0), 4),
    (lambda: (THREE_MAPS, log_probability_potential(PLACE_DEPENDENT), 0.0), 5),
])
def test_transfer_spectrum_matches_csr_reference(case, r):
    fam, pot, lam = case()
    spec = transfer_spectrum(fam, pot, lam, r)
    gamma, h, nu, iters, res_r, res_l = _csr_spectrum(fam, pot, lam, r)
    assert (spec.gamma, spec.iterations) == (gamma, iters)
    assert (spec.residual_right, spec.residual_left) == (res_r, res_l)
    assert spec.h.tobytes() == h.tobytes()
    assert spec.nu.tobytes() == nu.tobytes()


def _partition_sum_per_point(fam, subset, t, lam, n):
    """partition_sum as a loop over the points of the full grid, one
    all-words tree per x: the reference the one-pass sums must reproduce bit
    for bit, on the small grid too where the audit is exact."""
    subset = list(subset)
    k = len(subset)
    maps = [fam.at(lam).maps[j - 1] for j in subset]
    lo = np.full(k ** n, np.inf)
    hi = np.full(k ** n, -np.inf)
    for x in np.linspace(*fam.domain, thermo.PARTITION_GRID):
        y = np.array([float(x)])
        dy = np.ones(1)
        for _ in range(n):
            dy = np.tile(dy, k) * np.concatenate([np.abs(mp.dx(y)) for mp in maps])
            y = np.concatenate([mp.value(y) for mp in maps])
        lo = np.minimum(lo, dy)
        hi = np.maximum(hi, dy)
    return float(np.sum(lo ** t)), float(np.sum(hi ** t))


# |f'| is not constant, and f_1 decreases: the sums run on the full grid
QUADRATIC = IfsFamily((CustomMap(lambda lam, x: 0.4 - 0.3 * x + 0.1 * x * x,
                                 lambda lam, x: -0.3 + 0.2 * x),
                       CustomMap(lambda lam, x: 0.6 + 0.2 * x + 0.1 * x * x,
                                 lambda lam, x: 0.2 + 0.2 * x)),
                      (0.0, 1.0), (0.0, 1e-9))


PARTITION_CASES = {
    "e2": (E2, [1, 2]),
    "cantor": (IfsFamily((affine_map(1 / 3, 0.0), affine_map(1 / 3, 2 / 3)),
                         (0.0, 1.0), (0.0, 1e-9)), [1, 2]),
    "three-maps": (THREE_MAPS, [1, 2, 3]),
    "three-maps-subset": (THREE_MAPS, [3, 1]),
    "custom": (QUADRATIC, [1, 2]),
}


@pytest.mark.parametrize("custom, points", [(False, max(3, thermo.PARTITION_GRID // 8)),
                                            (True, thermo.PARTITION_GRID)])
def test_partition_grid_follows_the_audit_method(custom, points, monkeypatch):
    # E2's maps decrease, yet every word of Moebius maps is Moebius, with
    # |f_u'| monotone: the exact audit takes the small grid, a custom map
    # the full one
    fam = E2
    if custom:
        fam = IfsFamily(tuple(CustomMap(mp.value, mp.dx) for mp in E2.maps),
                        E2.domain, E2.param_interval)
    seen = []
    concat = thermo.concat_images

    def recorded(fns, y):
        seen.append(len(y))
        return concat(fns, y)

    monkeypatch.setattr(thermo, "concat_images", recorded)
    partition_sum(fam, [1, 2], E2_DIMENSION, 0.0, 3)
    assert seen[0] == points


@pytest.mark.parametrize("block", [thermo.PARTITION_BLOCK, 100])
@pytest.mark.parametrize("fam, subset", PARTITION_CASES.values(), ids=PARTITION_CASES)
def test_partition_sum_matches_per_point_loop(fam, subset, block, monkeypatch):
    monkeypatch.setattr(thermo, "PARTITION_BLOCK", block)  # 100: many blocks
    for n in range(1, 7):
        for t in (0.0, E2_DIMENSION, 1.7):
            assert partition_sum(fam, subset, t, 0.0, n) == \
                _partition_sum_per_point(fam, subset, t, 0.0, n)


COLLOCATION_CASES = {
    "e2": E2,
    "cantor": PARTITION_CASES["cantor"][0],
    "three-maps": THREE_MAPS,
    "cf": cf_family(0.05, 1.0),
}


@pytest.mark.parametrize("fam", COLLOCATION_CASES.values(), ids=COLLOCATION_CASES)
def test_collocation_pressure_of_log_derivative_is_exact(fam):
    # the weights g_j = t log|f_j'| at the nodes, and t times the nodes'
    # log|f_j'| that bowen_root reads, give the floats of |f_j'|^t written
    # out: eigvals(sum_j diag(exp(t log|f_j'|)) B_j)
    frozen = fam.at(0.0)
    for n in thermo.COLLOCATION_LADDER[:2]:
        col = frozen.collocation(n)
        log_dx = np.array([np.log(np.abs(mp.dx(col.nodes))) for mp in frozen.maps])
        for t in (0.0, 0.25, E2_DIMENSION, 1.0, 1.9):
            ev = np.linalg.eigvals(np.einsum("jk,jkl->kl", np.exp(t * log_dx), col.interp))
            lead = ev[np.argmax(np.abs(ev))]
            assert lead.imag == 0 and lead.real > 0
            assert collocation_pressure(
                frozen, t_log_derivative_potential(t), n) == math.log(lead.real)
            op = thermo._collocation_operator(frozen, np.exp(t * col.log_dx))
            assert thermo._perron_log(op) == math.log(lead.real)


def test_collocation_row_of_an_image_a_subnormal_distance_from_a_node():
    # 1/(y - node) overflows for the image y = 5e-324 of the node 0: its row
    # is the node's unit row, the limit of the barycentric formula, not NaNs
    fam = IfsFamily((affine_map(0.25, 5e-324), affine_map(0.25, 0.0)), (0.0, 1.0), (0.0, 1.0))
    col = fam.at(0.0).collocation(24)
    assert col.nodes[-1] == 0.0 and col.images[0, -1] == 5e-324
    assert col.interp[0, -1].tolist() == col.interp[1, -1].tolist() == [0.0] * 23 + [1.0]
    assert not np.isnan(col.interp).any()


@pytest.mark.parametrize("fam", [SHIFTED_E2, bernoulli_family(), QUADRATIC],
                         ids=["shifted-e2", "bernoulli", "quadratic"])
def test_collocation_log_dx_is_the_log_of_each_maps_derivative(fam):
    # at one lambda and in a column of them; QUADRATIC's dx ignores lambda
    lams = np.linspace(*fam.param_interval, 3)
    for n in thermo.COLLOCATION_LADDER[:2]:
        column = fam.at(lams[:, None]).collocation(n)
        assert column.log_dx.shape == (3, fam.m, n)
        for i, lam in enumerate(lams):
            frozen = fam.at(lam)
            col = frozen.collocation(n)
            log_dx = np.array([np.log(np.abs(mp.dx(col.nodes))) for mp in frozen.maps])
            assert col.log_dx.shape == log_dx.shape
            assert col.log_dx.tobytes() == column.log_dx[i].tobytes() == log_dx.tobytes()


def test_bowen_root_of_custom_map_copies_is_the_closed_form_result(cantor):
    # the collocation operator reads only value and dx, so a CustomMap copy
    # of a family gives the floats of the family itself
    for fam in (E2, cantor):
        assert bowen_root(as_custom_maps(fam), 0.0) == bowen_root(fam, 0.0)


MIXED = IfsFamily((affine_map(0.3, 0.0), moebius_shift(2.0)), (0.0, 1.0), (0.0, 1e-9))


@pytest.mark.parametrize("fam", [MIXED, QUADRATIC], ids=["mixed", "quadratic"])
def test_bowen_root_collocation_of_general_families_matches_deep_cylinders(fam):
    res = bowen_root(fam, 0.0)
    assert res["backend"] == "collocation"
    slope = -math.log(ifs.regularity_audit(fam).gamma2)
    s16, _ = thermo._bowen_solve(lambda t: pressure(fam, t, 0.0, r=16), fam.m, slope)
    assert abs(res["s"] - s16) <= 1e-11


def test_collocation_h_chi_of_the_cantor_measure_is_exact(cantor):
    # constant 1/2 probabilities on {x/3, x/3 + 2/3}: h = log 2, chi = log 3
    h, chi = collocation_h_chi(cantor, constant_bernoulli_potential([0.5, 0.5]), 0.0)
    assert abs(h / chi - math.log(2) / math.log(3)) <= 1e-13
    assert abs(h - math.log(2)) <= 1e-13 and abs(chi - math.log(3)) <= 1e-13


@pytest.mark.parametrize("n", thermo.COLLOCATION_LADDER[:3])
def test_stationary_vector_integrates_x_squared_to_the_first_moment(n):
    # place-dependent Bernoulli convolution: l^T x^2 is F_1 of the exact
    # moment recursion, at every rung
    frozen = bernoulli_family().at(np.array([[0.6]]))
    p = thermo._curve_values(bernoulli_potential(0.2).prob_fns, frozen,
                             frozen.collocation(n).nodes)
    [ell] = thermo._stationary_vectors(thermo._collocation_operator(frozen, p))
    assert abs(ell.sum() - 1.0) <= 1e-14
    assert abs(ell @ frozen.collocation(n).nodes ** 2
               - bernoulli_moments(0.6, 0.2, 1)[0]) <= 1e-14


@pytest.mark.parametrize("rho", [0.2, 0.45])
def test_collocation_entropy_lies_in_the_moment_sandwich(rho):
    # at rho = 0.2 the twelve-term sandwich is as narrow as rounding, so
    # it is widened by ROUNDING; at rho = 0.45 it is 2e-3 wide
    h, chi = collocation_h_chi(bernoulli_family(), bernoulli_potential(rho), 0.6)
    lo, up = bernoulli_entropy_bounds(0.6, rho, 12)
    assert lo - ROUNDING <= h <= up + ROUNDING
    assert abs(chi + math.log(0.6)) <= 1e-14  # chi = -log lam for affine maps


def test_stationary_vector_of_a_singular_system_is_unresolved():
    # every vector is fixed by the identity, so the bordered system is
    # singular; LinAlgError is a ValueError and must not leak out
    [unresolved] = thermo._stationary_vectors(np.eye(4)[None])
    with pytest.raises(CollocationUnresolved, match="stationary system"):
        raise unresolved


def test_stationary_vectors_of_a_stack_with_a_singular_matrix_are_the_single_solves():
    # the identity fixes every vector, so its bordered system is singular:
    # the stacked solve fails and each system is solved alone
    frozen = bernoulli_family().at(np.array([[0.55], [0.6], [0.65]]))
    p = thermo._curve_values(bernoulli_potential(0.2).prob_fns, frozen,
                             frozen.collocation(24).nodes)
    ops = thermo._collocation_operator(frozen, p)
    ops[1] = np.eye(24)
    ells = thermo._stationary_vectors(ops)
    assert isinstance(ells[1], CollocationUnresolved)
    assert str(ells[1]) == "stationary system: Singular matrix"
    for k in (0, 2):
        bordered = np.block([[ops[k].T - np.eye(24), np.ones((24, 1))],
                             [np.ones((1, 24)), np.zeros((1, 1))]])
        alone = np.linalg.solve(bordered, np.eye(25)[:, -1:])[:24, 0]
        assert ells[k].tobytes() == alone.tobytes()


def test_collocation_h_chi_is_unresolved_where_a_node_image_leaves_the_domain(cantor):
    # f_2([0, 0.9]) = [2/3, 29/30] leaves the domain at every rung
    escaping = IfsFamily(cantor.maps, (0.0, 0.9), cantor.param_interval)
    with pytest.raises(CollocationUnresolved, match="leaves the domain"):
        collocation_h_chi(escaping, constant_bernoulli_potential([0.5, 0.5]), 0.0)


def test_collocation_h_chi_needs_probability_curves(cantor):
    with pytest.raises(ValueError, match="no probability curves"):
        collocation_h_chi(cantor, t_log_derivative_potential(1.0), 0.0)


def test_collocation_ladder_reads_each_rung_once_and_skips_unresolved_rungs():
    values = {24: None, 48: 1.0, 96: 1.0 + 2e-13, 192: 5.0}
    read = []

    def value(n, rows):
        assert rows == [0]
        read.append(n)
        return [CollocationUnresolved("no value") if values[n] is None else values[n]]

    [(v, gap)] = thermo._collocation_ladder(value, thermo.COLLOCATION_LADDER)
    assert v == 1.0 + 2e-13 and gap == pytest.approx(2e-13)  # the value at 96, not 48
    assert read == [24, 48, 96]  # the unresolved 24 settles no pair; 192 unread
    values.update({96: 2.0})
    read.clear()
    [unresolved] = thermo._collocation_ladder(value, thermo.COLLOCATION_LADDER)
    with pytest.raises(CollocationUnresolved, match="24/48: no value; 48/96"):
        raise unresolved
    assert read == [24, 48, 96, 192]


def test_collocation_ladder_reads_finer_rungs_only_for_unsettled_lambdas():
    # lambda 0 settles at 24/48, lambda 1 at 48/96, lambda 2 never; lambda
    # 3 is unresolved at 24 and settles at 48/96
    table = {0: {24: 1.0, 48: 1.0},
             1: {24: 1.0, 48: 2.0, 96: 2.0},
             2: {24: 1.0, 48: 2.0, 96: 3.0, 192: 4.0},
             3: {24: None, 48: 5.0, 96: 5.0}}
    read = []

    def value(n, rows):
        read.append((n, list(rows)))
        return [CollocationUnresolved("no value") if table[i][n] is None else table[i][n]
                for i in rows]

    res = thermo._collocation_ladder(value, thermo.COLLOCATION_LADDER, 4)
    assert res[0] == (1.0, 0.0) and res[1] == (2.0, 0.0) and res[3] == (5.0, 0.0)
    assert isinstance(res[2], CollocationUnresolved)
    assert str(res[2]) == ("no rung pair settles (24/48: 1.00e+00; 48/96: 1.00e+00; "
                           "96/192: 1.00e+00)")
    assert read == [(24, [0, 1, 2, 3]), (48, [0, 1, 2, 3]), (96, [1, 2, 3]), (192, [2])]


def _blackwell_row(eps, ps):
    fam, prob_fns = blackwell_family(eps, ps[0])
    return fam, log_probability_potential(prob_fns)


def _row_cases():
    """(family, potential, lambdas) of a Blackwell row, whose maps are
    Moebius in lambda, or of a place-dependent Bernoulli row, whose maps are
    affine in lambda."""
    away_from_half = st.floats(0.02, 0.98).filter(lambda p: abs(p - 0.5) > 1e-6)
    blackwell = st.builds(
        lambda eps, ps: (*_blackwell_row(eps, ps), np.array(ps)),
        st.floats(0.02, 0.98).filter(lambda e: abs(e - 0.5) > 1e-6),
        st.lists(away_from_half, min_size=1, max_size=12))
    bernoulli = st.builds(
        lambda rho, lams: (bernoulli_family(), bernoulli_potential(rho), np.array(lams)),
        st.floats(0.0, 0.45), st.lists(st.floats(0.5, 0.7), min_size=1, max_size=12))
    return st.one_of(blackwell, bernoulli)


def _described(outcomes):
    """Outcomes with each exception replaced by its type and message."""
    return [(type(o), str(o)) if isinstance(o, Exception) else o for o in outcomes]


def _scalar_calls(fam, pot, lams):
    """The outcome of collocation_h_chi at each lambda alone, described."""
    out = []
    for lam in lams:
        try:
            out.append(collocation_h_chi(fam, pot, lam))
        except (CollocationUnresolved, AuditFailure) as exc:
            out.append(exc)
    return _described(out)


@given(_row_cases())
@example((*_blackwell_row(0.01, [0.001]), np.array([0.001, 0.3, 0.999])))
@settings(max_examples=25, deadline=None)
def test_collocation_h_chi_over_a_lambda_array_stacks_its_scalar_calls(case):
    # the explicit example's first and last cells are unresolved at 192 nodes
    fam, pot, lams = case
    outcomes = collocation_h_chi(fam, pot, lams)
    assert len(outcomes) == len(lams)
    assert _described(outcomes) == _scalar_calls(fam, pot, lams)


def test_collocation_h_chi_of_a_one_value_array_is_the_scalar_call():
    fam, pot = _blackwell_row(0.2, [0.3])
    assert collocation_h_chi(fam, pot, np.array([0.3])) == [collocation_h_chi(fam, pot, 0.3)]


@pytest.mark.parametrize("lam", [np.array([]), np.array([[0.3, 0.4]])])
def test_collocation_h_chi_rejects_a_lambda_array_that_is_not_1d(lam):
    fam, pot = _blackwell_row(0.2, [0.3])
    with pytest.raises(ValueError, match="1-D"):
        collocation_h_chi(fam, pot, lam)


def test_collocation_h_chi_audits_each_lambda(cantor):
    # p_1 = lam, p_2 = 1 - lam on the Cantor maps: h is the entropy of
    # (lam, 1 - lam) and chi = log 3; at lam = 1.2 the curve p_2 is negative
    pot = log_probability_potential([lambda lam, x: lam + 0 * x,
                                     lambda lam, x: 1 - lam + 0 * x])
    lams = np.array([0.3, 1.2, 0.5])
    outcomes = collocation_h_chi(cantor, pot, lams)
    assert isinstance(outcomes[1], AuditFailure)
    assert str(outcomes[1]) == "probability curve non-positive on domain"
    for k, lam in ((0, 0.3), (2, 0.5)):
        h, chi = outcomes[k]
        assert abs(h + lam * math.log(lam) + (1 - lam) * math.log(1 - lam)) <= 1e-14
        assert abs(chi - math.log(3)) <= 1e-14
    assert _described(outcomes) == _scalar_calls(cantor, pot, lams)
    off_one = log_probability_potential([lambda lam, x: lam + 0 * x,
                                         lambda lam, x: 0.5 + 0 * x])
    outcomes = collocation_h_chi(cantor, off_one, np.array([0.5, 0.3]))
    assert isinstance(outcomes[0], tuple)
    assert str(outcomes[1]) == "probability curves do not sum to 1"
    with pytest.raises(AuditFailure, match="do not sum to 1"):
        collocation_h_chi(cantor, off_one, 0.3)


def test_collocation_h_chi_singular_matrix_leaves_its_neighbours_settled(monkeypatch):
    fam, pot = _blackwell_row(0.2, [0.3])
    lams = np.linspace(0.1, 0.4, 7)
    ref = _scalar_calls(fam, pot, lams)
    operator = thermo._collocation_operator
    solves = []

    def one_singular(frozen, w):
        # the identity at lambda = lams[3]: every vector is fixed, so its
        # bordered system is singular at every rung
        ops = operator(frozen, w)
        ops[frozen.lam[:, 0] == lams[3]] = np.eye(ops.shape[-1])
        return ops

    def recording(a, b):
        solves.append(a.shape)
        return solve(a, b)

    solve = np.linalg.solve
    monkeypatch.setattr(thermo, "_collocation_operator", one_singular)
    monkeypatch.setattr(np.linalg, "solve", recording)
    outcomes = collocation_h_chi(fam, pot, lams)
    assert isinstance(outcomes[3], CollocationUnresolved)
    assert "stationary system" in str(outcomes[3])
    assert _described(outcomes[:3] + outcomes[4:]) == ref[:3] + ref[4:]
    # the stack of 7 bordered systems at 16 nodes fails and is solved again
    # one system at a time
    assert solves[:8] == [(7, 17, 17)] + [(1, 17, 17)] * 7
    with pytest.raises(CollocationUnresolved) as info:
        collocation_h_chi(fam, pot, lams[3])
    assert str(info.value) == str(outcomes[3])


def test_collocation_h_chi_splits_a_long_row_by_the_stack_cap(monkeypatch):
    fam, pot = _blackwell_row(0.3, [0.2])
    lams = np.linspace(0.05, 0.45, 40)
    outcomes = collocation_h_chi(fam, pot, lams)
    with monkeypatch.context() as first_pair:
        first_pair.setattr(thermo, "H_CHI_LADDER", thermo.H_CHI_LADDER[:2])
        climbing = sum(isinstance(o, CollocationUnresolved)
                       for o in collocation_h_chi(fam, pot, lams))
    assert 0 < climbing < 40  # lambdas that 16/24 leaves unsettled
    operator = thermo._collocation_operator
    stacks = []

    def recording(frozen, w):
        stacks.append(w.shape[:-2] + (w.shape[-1],))
        return operator(frozen, w)

    monkeypatch.setattr(thermo, "_collocation_operator", recording)
    monkeypatch.setattr(thermo, "COLLOCATION_STACK", 9 * 2 * 24 ** 2)
    assert collocation_h_chi(fam, pot, lams) == outcomes
    # 20 lambdas per stack at 16 nodes (9 * 2 * 24^2 // (2 * 16^2)), 9 at 24,
    # 2 at 48 for the climbing lambdas, and one at 96 and 192
    assert [L for L, n in stacks if n == 16] == [20, 20]
    assert [L for L, n in stacks if n == 24] == [9, 9, 9, 9, 4]
    assert [L for L, n in stacks if n == 48] == [2] * (climbing // 2) + [1] * (climbing % 2)
    assert all(L <= max(1, 9 * 24 ** 2 // n ** 2) for L, n in stacks)


def _h_chi_at(fam, pot, lam, n):
    """(h, chi) of `pot` at lam from the n-node rung alone, the floats that
    `collocation_h_chi` reads at n."""
    frozen = fam.at(np.array([[lam]]))
    col = frozen.collocation(n)
    p = thermo._curve_values(pot.prob_fns, frozen, col.nodes)
    w = np.stack([(p * np.log(p)).sum(axis=-2), (p * col.log_dx).sum(axis=-2)], axis=1)
    [ell] = thermo._stationary_vectors(thermo._collocation_operator(frozen, p))
    return tuple(map(float, -(w[0] * ell).sum(axis=-1)))


@pytest.mark.parametrize("p, rungs", [(0.3, [16, 24]), (0.15, [16, 24, 48]),
                                      (0.05, [16, 24, 48, 96])],
                         ids=["16/24", "24/48", "48/96"])
def test_blackwell_cell_takes_the_finer_rung_of_its_settling_pair(monkeypatch, p, rungs):
    # at eps = 0.2 the 16/24 gap of the second cell is 8e-11 and its 24/48
    # gap 6e-15; the third cell's 24/48 gap is 1.5e-10 and its 48/96 gap 2e-16
    fam, pot = _blackwell_row(0.2, [p])
    rung_check = thermo._collocation_rung
    read = []

    def recording(frozen, n, rd):
        read.append(n)
        return rung_check(frozen, n, rd)

    monkeypatch.setattr(thermo, "_collocation_rung", recording)
    h, chi = collocation_h_chi(fam, pot, p)
    assert read == rungs
    assert (h, chi) == _h_chi_at(fam, pot, p, rungs[-1])
    h_ref, chi_ref = _h_chi_at(fam, pot, p, 256)
    assert abs(h / chi - h_ref / chi_ref) <= 5e-14

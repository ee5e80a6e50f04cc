"""Transfer spectra, pressure, Bowen roots, entropy, partition sums."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hypifs import ifs, thermo
from hypifs.apps import (bernoulli_family, bernoulli_potential, blackwell_family,
                         cf_family, similarity_dimension)
from hypifs.ifs import (AuditFailure, CustomMap, IfsFamily, RationalMap,
                        affine_map, bernoulli_psi, moebius_shift, poly)
from hypifs.thermo import (CylinderMeasure, Potential, bowen_root,
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
    coll, cyl, ts = [], [], []
    eigen_step = thermo._collocation_pressure
    bowen_solve = thermo._bowen_solve

    def recording_solve(P, m, slope):
        def recorded(t):  # `_bowen_solve` memoises this, so once per t
            ts.append(t)
            return P(t)
        return bowen_solve(recorded, m, slope)

    def recording_collocation(frozen, g):
        coll.append((g.shape[1], g.tobytes()))
        return eigen_step(frozen, g)

    def recording_cylinder(fam, t, lam, r=8):
        cyl.append(t)
        return pressure(fam, t, lam, r)

    monkeypatch.setattr(thermo, "_bowen_solve", recording_solve)
    monkeypatch.setattr(thermo, "_collocation_pressure", recording_collocation)
    monkeypatch.setattr(thermo, "pressure", recording_cylinder)
    n = thermo.COLLOCATION_NODES
    for fam in (cantor, as_custom_maps(cantor)):
        coll.clear()
        ts.clear()
        assert bowen_root(fam, 0.0)["backend"] == "collocation"
        assert cyl == [] and len(ts) == len(set(ts)) > 0
        # each t is one eigen-solve at N and one at 2N, on t log|f_j'| at the nodes
        log_dx = {k: thermo._node_weights(fam.at(0.0), t_log_derivative_potential(1.0), k)
                  for k in (n, 2 * n)}
        assert coll == [(k, (t * log_dx[k]).tobytes()) for t in ts for k in (n, 2 * n)]

    coll.clear()
    # f_2([0, 0.9]) = [2/3, 29/30] leaves the domain: no collocation
    escaping = IfsFamily(cantor.maps, (0.0, 0.9), cantor.param_interval)
    assert bowen_root(escaping, 0.0)["backend"] == "cylinder"
    assert coll == [] and len(cyl) == len(set(cyl)) > 0


def test_bowen_root_falls_back_where_collocation_is_unresolved():
    # |f_1'| ~ 0.98 at the fixed point of f_1: P_24 and P_48 differ by ~1e-6
    fam = cf_family(1e-4, 0.4142)
    res = bowen_root(fam, 0.0, r=8)
    assert res["backend"] == "cylinder"
    lo, hi = res["partition_bracket"]
    assert lo <= 0.0 <= hi


@st.composite
def _separated_affine(draw):
    """2-4 contraction ratios in [0.05, 0.24] placed left to right on [0, 1]
    with positive gaps."""
    ratios = draw(st.lists(st.floats(0.05, 0.24), min_size=2, max_size=4))
    gap = (1.0 - sum(ratios)) / (len(ratios) - 1)
    offsets = np.concatenate([[0.0], np.cumsum(np.add(ratios, gap))[:-1]])
    return ratios, offsets


@given(_separated_affine())
@settings(max_examples=25, deadline=None)
def test_bowen_root_of_affine_family_is_similarity_dimension(case):
    ratios, offsets = case
    fam = IfsFamily(tuple(affine_map(a, b) for a, b in zip(ratios, offsets)),
                    (0.0, 1.0), (0.0, 1e-9))
    s = bowen_root(fam, 0.0, r=4)["s"]
    assert abs(s - similarity_dimension(ratios)) <= 1e-12


ROUNDING = 64 * np.finfo(float).eps  # two eigen-solves' rounding of a pressure


def collocation_pressure(frozen, pot, n=thermo.COLLOCATION_NODES):
    """P_n of `pot` on the frozen family's n Chebyshev nodes."""
    return thermo._collocation_pressure(frozen, thermo._node_weights(frozen, pot, n))


@pytest.mark.parametrize("r", range(4, 11))
def test_truncation_bound_holds_on_e2(r):
    spec = transfer_spectrum(E2, t_log_derivative_potential(E2_DIMENSION), 0.0, r)
    p_coll = collocation_pressure(E2.at(0.0), t_log_derivative_potential(E2_DIMENSION))
    assert abs(p_coll) <= ROUNDING  # P(s*) = 0
    assert abs(spec.pressure - p_coll) <= spec.truncation_bound + ROUNDING


@given(_separated_affine(), st.floats(0.0, 2.0), st.integers(1, 6))
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
        delta = max(np.abs(h_new - h).max(), np.abs(nu_new - nu).max(),
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
    """partition_sum as a loop over the grid points, one all-words tree per
    x: the reference the one-pass sums must reproduce bit for bit."""
    subset = list(subset)
    k = len(subset)
    monotone = all(ifs.regularity_audit(fam).monotone_increasing)
    points = max(3, thermo.PARTITION_GRID // 8) if monotone else thermo.PARTITION_GRID
    maps = [fam.at(lam).maps[j - 1] for j in subset]
    lo = np.full(k ** n, np.inf)
    hi = np.full(k ** n, -np.inf)
    for x in np.linspace(*fam.domain, points):
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
    # the weights g_j = t log|f_j'| at the nodes give the floats of
    # |f_j'|^t written out: eigvals(sum_j diag(exp(t log|f_j'|)) B_j)
    frozen = fam.at(0.0)
    for n in (thermo.COLLOCATION_NODES, 2 * thermo.COLLOCATION_NODES):
        col = frozen.collocation(n)
        log_dx = np.array([np.log(np.abs(mp.dx(col.nodes))) for mp in frozen.maps])
        for t in (0.0, 0.25, E2_DIMENSION, 1.0, 1.9):
            ev = np.linalg.eigvals(np.einsum("jk,jkl->kl", np.exp(t * log_dx), col.interp))
            lead = ev[np.argmax(np.abs(ev))]
            assert lead.imag == 0 and lead.real > 0
            assert collocation_pressure(
                frozen, t_log_derivative_potential(t), n) == math.log(lead.real)


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

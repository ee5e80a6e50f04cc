"""Map families, audits, composition, and projections."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypifs import ifs
from hypifs.ifs import (AffineMap, CustomMap, EvaluationError, IfsFamily, ShiftedMap,
                        affine_map, bernoulli_psi, compose_word,
                        cylinder_interval, moebius_shift, natural_projection,
                        poly, projection_lambda_derivative, regularity_audit)


@pytest.fixture
def cantor_fam():
    return IfsFamily((affine_map(1 / 3, 0.0), affine_map(1 / 3, 2 / 3)),
                     (0.0, 1.0), (0.0, 1e-9))


@pytest.fixture
def bernoulli_fam():
    return IfsFamily((bernoulli_psi(0), bernoulli_psi(1)),
                     (-1.0, 1.0), (0.5, 0.66))


def test_poly_eval_and_deriv():
    p = poly(1.0, 2.0, 3.0)
    assert p(2.0) == pytest.approx(1 + 4 + 12)
    assert p.deriv()(2.0) == pytest.approx(2 + 12)
    assert p.deriv() is p.deriv()  # built once per Poly


def test_affine_map_derivatives():
    mp = AffineMap(poly(0.0, 1.0), poly(1.0, -1.0))  # lam*x + (1 - lam)
    assert mp.value(0.5, 0.2) == pytest.approx(0.6)
    assert mp.dx(0.5, 0.2) == pytest.approx(0.5)
    assert mp.dlam(0.5, 0.2) == pytest.approx(0.2 - 1.0)


def test_moebius_shift_values():
    mp = moebius_shift(0.3)
    x = 0.4
    assert mp.value(0.0, x) == pytest.approx((x + 0.3) / (x + 1.3))
    h = 1e-7
    fd = (mp.value(0.0, x + h) - mp.value(0.0, x - h)) / (2 * h)
    assert mp.dx(0.0, x) == pytest.approx(fd, rel=1e-6)


def test_custom_map_fd_fallback():
    mp = CustomMap(value_fn=lambda lam, x: lam * x,
                   dx_fn=lambda lam, x: lam * np.ones_like(np.asarray(x)))
    assert not mp.dlam_exact
    assert mp.dlam(0.4, 0.7) == pytest.approx(0.7, rel=1e-6)


def test_audit_contraction_bounds(bernoulli_fam):
    rep = regularity_audit(bernoulli_fam)
    assert rep.passed
    assert rep.gamma1 == pytest.approx(0.5, abs=1e-9)
    assert rep.gamma2 == pytest.approx(0.66, abs=1e-9)
    assert all(rep.monotone_increasing)


def test_audit_flags_expansion():
    fam = IfsFamily((affine_map(1.2, 0.0),), (0.0, 1.0), (0.0, 1e-9))
    rep = regularity_audit(fam)
    assert not rep.passed


def test_audit_flags_escape():
    fam = IfsFamily((affine_map(0.5, 0.9),), (0.0, 1.0), (0.0, 1e-9))
    rep = regularity_audit(fam)
    assert not rep.invariant


def test_compose_word_chain_rule(cantor_fam):
    v, dv = compose_word(cantor_fam, [2, 1, 2], 0.0, 0.5)
    direct = (((0.5 / 3 + 2 / 3) / 3) / 3 + 2 / 3)
    assert v == pytest.approx(direct)
    assert dv == pytest.approx((1 / 3) ** 3)


@given(st.lists(st.integers(1, 2), min_size=0, max_size=6),
       st.lists(st.integers(1, 2), min_size=0, max_size=6))
@settings(max_examples=40, deadline=None)
def test_compose_word_splits(u, v):
    fam = IfsFamily((affine_map(1 / 3, 0.0), affine_map(1 / 3, 2 / 3)),
                    (0.0, 1.0), (0.0, 1e-9))
    x = 0.37
    whole, _ = compose_word(fam, u + v, 0.0, x)
    inner, _ = compose_word(fam, v, 0.0, x)
    outer, _ = compose_word(fam, u, 0.0, inner)
    assert whole == pytest.approx(outer, abs=1e-14)


def test_tail_fixed_point(cantor_fam, bernoulli_fam):
    assert cantor_fam.at(0.0).tail_point == pytest.approx(0.0, abs=1e-12)
    # psi_0 fixed point: lam x - (1 - lam) = x  ->  x = -1
    assert bernoulli_fam.at(0.6).tail_point == pytest.approx(-1.0, abs=1e-12)


def tail_tolerance(exact, scale, slope):
    """The root solver's tolerance plus the rounding of f_1(x) - x, a few
    ulps of `scale`, magnified by 1 / (1 - f_1'(x*))."""
    eps = np.finfo(float).eps
    return (ifs.ROOT_XTOL + ifs.ROOT_RTOL * abs(exact)
            + 4 * eps * scale / (1 - slope))


@given(st.floats(-0.95, 0.95), st.floats(-2, 2), st.sampled_from([0.0, 0.5, 3.0]),
       st.floats(1e-3, 3))
@settings(max_examples=60, deadline=None)
def test_tail_point_affine_closed_form(a, b, below, above):
    exact = b / (1 - a)
    fam = IfsFamily((affine_map(a, b),), (exact - below, exact + above), (0.0, 0.0))
    x = fam.at(0.0).tail_point
    assert abs(x - exact) <= tail_tolerance(exact, abs(exact) + abs(b), a)


@given(st.floats(-6, 1), st.sampled_from([0.0, 0.5]), st.floats(1e-3, 3))
@settings(max_examples=60, deadline=None)
def test_tail_point_moebius_quadratic_root(log_c, below, above):
    # (x + c) / (x + c + 1) = x  <=>  x^2 + c x - c = 0
    c = 10.0 ** log_c
    exact = 2 * c / (math.sqrt(c * c + 4 * c) + c)
    fam = IfsFamily((moebius_shift(c),), (exact * (1 - below), exact + above),
                    (0.0, 0.0))
    x = fam.at(0.0).tail_point
    assert abs(x - exact) <= tail_tolerance(exact, exact, 1 / (exact + c + 1) ** 2)


def test_tail_point_without_sign_change_names_f1_and_domain():
    fam = IfsFamily((affine_map(0.5, 2.0),), (0.0, 1.0), (0.0, 0.0))  # f_1(X) = [2, 2.5]
    with pytest.raises(EvaluationError, match=r"f_1.*\[-1e-09, 1.000000001\]"):
        fam.at(0.0).tail_point


def test_natural_projection_error_bound(cantor_fam):
    x20, err20 = natural_projection(cantor_fam, 0.0, [2], 20)
    x30, _ = natural_projection(cantor_fam, 0.0, [2], 30)
    assert abs(x30 - x20) <= err20
    assert x30 == pytest.approx(2 / 3, abs=1e-12)  # 21^infty -> f_2(0)


def test_projection_derivative_recursion_vs_fd(bernoulli_fam):
    u = [2, 1, 2, 2, 1, 1, 2, 1]
    d_rec = projection_lambda_derivative(bernoulli_fam, 0.6, u, 30, "recursion")
    d_fd = projection_lambda_derivative(bernoulli_fam, 0.6, u, 30, "fd")
    assert d_rec == pytest.approx(d_fd, rel=1e-5)


def test_projection_derivative_fd_interval_guard(bernoulli_fam):
    with pytest.raises(EvaluationError):
        projection_lambda_derivative(bernoulli_fam, 0.5, [1, 2], 10, "fd")


def test_cylinder_interval_nested(cantor_fam):
    a, b = cylinder_interval(cantor_fam, 0.0, [2])
    assert (a, b) == pytest.approx((2 / 3, 1.0))
    a2, b2 = cylinder_interval(cantor_fam, 0.0, [2, 1])
    assert a <= a2 <= b2 <= b


def test_check_lam_guard(bernoulli_fam):
    with pytest.raises(EvaluationError):
        compose_word(bernoulli_fam, [1], 0.9, 0.0)


def test_frozen_family_keeps_the_latest_lambda(bernoulli_fam):
    frozen = bernoulli_fam.at(0.6)
    assert bernoulli_fam.at(0.6) is frozen
    assert bernoulli_fam.at(0.55) is not frozen
    assert bernoulli_fam.at(0.6) is not frozen


def test_frozen_family_memo_does_not_keep_the_family():
    before = len(ifs._frozen_cache)
    fam = IfsFamily((bernoulli_psi(0), bernoulli_psi(1)),
                    (-1.0, 1.0), (0.5, 0.66))
    fam.at(0.6).level(5)
    assert len(ifs._frozen_cache) == before + 1
    ref = weakref.ref(fam)
    del fam
    gc.collect()
    assert ref() is None
    assert len(ifs._frozen_cache) <= before


@st.composite
def _word_batch_cases(draw):
    """Affine or Moebius families on [0, 1] with lambda-dependent
    coefficients and a random word batch.  Half the families are plain
    affine maps, which `project_words` gathers; in the other half some
    maps are wrapped in a CustomMap with or without dlam_fn or translated
    by a ShiftedMap, so that they take the masked pass."""
    m = draw(st.integers(2, 3))
    gathered = draw(st.booleans())
    moebius = not gathered and draw(st.booleans())
    maps = []
    for _ in range(m):
        if moebius:
            mp = moebius_shift(poly(draw(st.floats(0.1, 2.0)), draw(st.floats(0.0, 1.0))))
        else:
            mp = affine_map(poly(draw(st.floats(0.05, 0.3)), draw(st.floats(0.0, 0.25))),
                            poly(draw(st.floats(0.0, 0.2)), draw(st.floats(0.0, 0.2))))
        wrap = "none" if gathered else draw(st.sampled_from(["none", "exact", "fd", "shifted"]))
        if wrap == "exact":
            mp = CustomMap(mp.value, mp.dx, mp.dlam)
        elif wrap == "fd":
            mp = CustomMap(mp.value, mp.dx)
        elif wrap == "shifted":
            mp = ShiftedMap(mp, poly(draw(st.floats(-0.1, 0.1)), draw(st.floats(-0.2, 0.2))),
                            draw(st.floats(0.01, 0.99)))
        maps.append(mp)
    fam = IfsFamily(tuple(maps), (0.0, 1.0), (0.0, 1.0))
    depth = draw(st.integers(1, 30))
    rows = draw(st.integers(1, 16))
    words = np.array(draw(st.lists(st.lists(st.integers(1, m), min_size=depth, max_size=depth),
                                   min_size=rows, max_size=rows)))
    return fam, words, draw(st.floats(0.01, 0.99))


@given(_word_batch_cases())
@settings(max_examples=40, deadline=None)
def test_project_words_matches_per_word_references(case):
    fam, words, lam = case
    x, d = ifs.project_words(fam, words, lam)
    ref_x = np.array([float(compose_word(fam, w, lam, fam.midpoint)[0]) for w in words])
    method = "recursion" if fam.dlam_exact else "fd"
    ref_d = np.array([projection_lambda_derivative(fam, lam, w, len(w), method)
                      for w in words])
    assert x.tobytes() == ref_x.tobytes()
    assert d.tobytes() == ref_d.tobytes()


"""Map families, audits, composition, and projections."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypifs import ifs
from hypifs.ifs import (AffineMap, CustomMap, EvaluationError, IfsFamily,
                        affine_map, bernoulli_psi, compose_word,
                        cylinder_interval, evaluate_map, metric_d_lambda,
                        moebius_shift, natural_projection, poly,
                        projection_lambda_derivative, regularity_audit,
                        tail_fixed_point)


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


def test_evaluate_map_domain_check(cantor_fam):
    with pytest.raises(EvaluationError):
        evaluate_map(cantor_fam, 1, 0.0, 1.5)
    v, dx, dlam = evaluate_map(cantor_fam, 2, 0.0, 0.5)
    assert v == pytest.approx(0.5 / 3 + 2 / 3)
    assert dx == pytest.approx(1 / 3)


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
    assert tail_fixed_point(cantor_fam, 0.0) == pytest.approx(0.0, abs=1e-12)
    # psi_0 fixed point: lam x - (1 - lam) = x  ->  x = -1
    assert tail_fixed_point(bernoulli_fam, 0.6) == pytest.approx(-1.0, abs=1e-12)


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


def test_metric_d_lambda(cantor_fam):
    assert metric_d_lambda(cantor_fam, 0.0, [1, 2], [2, 1]) == \
        pytest.approx(1.0)
    d1 = metric_d_lambda(cantor_fam, 0.0, [1, 2, 1], [1, 2, 2])
    d0 = metric_d_lambda(cantor_fam, 0.0, [1, 2, 1], [1, 1, 2])
    assert d1 == pytest.approx((1 / 3) ** 2)
    assert d1 < d0


@given(st.integers(2, 8))
@settings(max_examples=20, deadline=None)
def test_metric_shrinks_with_prefix_length(k):
    fam = IfsFamily((affine_map(1 / 3, 0.0), affine_map(1 / 3, 2 / 3)),
                    (0.0, 1.0), (0.0, 1e-9))
    u = [1] * k + [2]
    v = [1] * k + [1]
    shorter = [1] * (k - 1) + [2, 1]
    assert metric_d_lambda(fam, 0.0, u, v) < \
        metric_d_lambda(fam, 0.0, shorter, [1] * (k - 1) + [1, 1]) + 1e-15


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
    coefficients, some maps behind CustomMap with or without dlam_fn, and a
    random word batch."""
    m = draw(st.integers(2, 3))
    moebius = draw(st.booleans())
    maps = []
    for _ in range(m):
        if moebius:
            mp = moebius_shift(poly(draw(st.floats(0.1, 2.0)), draw(st.floats(0.0, 1.0))))
        else:
            mp = affine_map(poly(draw(st.floats(0.05, 0.3)), draw(st.floats(0.0, 0.25))),
                            poly(draw(st.floats(0.0, 0.2)), draw(st.floats(0.0, 0.2))))
        wrap = draw(st.sampled_from(["none", "exact", "fd"]))
        if wrap == "exact":
            mp = CustomMap(mp.value, mp.dx, mp.dlam)
        elif wrap == "fd":
            mp = CustomMap(mp.value, mp.dx)
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

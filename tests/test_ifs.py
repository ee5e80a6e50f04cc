"""Map families, audits, composition, and projections."""

import collections
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypifs import ifs
from hypifs.apps import blackwell_family, cf_family
from hypifs.ifs import (AffineMap, CustomMap, EvaluationError, IfsFamily, Poly,
                        RationalMap, ShiftedMap, affine_map, bernoulli_psi,
                        cylinder_interval, moebius_shift, natural_projection,
                        poly, project_words, regularity_audit)
from word_refs import compose_word, lambda_derivative


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


def _coeff_poly(draw, lo, hi):
    return poly(*draw(st.lists(st.floats(lo, hi), min_size=1, max_size=3)))


@st.composite
def _closed_form_maps(draw):
    """An AffineMap or a RationalMap with random Poly coefficients, or a
    moebius_shift, with a denominator of at least 1 for lam and x in
    [-1, 1]."""
    kind = draw(st.sampled_from(["affine", "rational", "moebius"]))
    if kind == "affine":
        return AffineMap(_coeff_poly(draw, -2, 2), _coeff_poly(draw, -2, 2))
    if kind == "moebius":
        return moebius_shift(poly(draw(st.floats(0.5, 3.0)), draw(st.floats(-0.2, 0.2))))
    d0 = poly(draw(st.floats(2.0, 4.0)), draw(st.floats(-0.5, 0.5)))
    d1 = poly(draw(st.floats(-0.25, 0.25)), draw(st.floats(-0.25, 0.25)))
    return RationalMap(_coeff_poly(draw, -2, 2), _coeff_poly(draw, -2, 2), d0, d1)


@given(_closed_form_maps(), st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
@settings(max_examples=200, deadline=None)
def test_closed_form_derivatives_match_central_differences(mp, lam, x):
    h = 1e-5
    fd_x = (mp.value(lam, x + h) - mp.value(lam, x - h)) / (2 * h)
    fd_lam = (mp.value(lam + h, x) - mp.value(lam - h, x)) / (2 * h)
    dx, dlam = mp.dx(lam, x), mp.dlam(lam, x)
    assert abs(dx - fd_x) <= 1e-6 * (1 + abs(dx))
    assert abs(dlam - fd_lam) <= 1e-6 * (1 + abs(dlam))


@pytest.fixture
def poly_calls(monkeypatch):
    """Calls of each Poly, by id, while the test runs."""
    counts = collections.Counter()
    call = Poly.__call__

    def counted(self, lam):
        counts[id(self)] += 1
        return call(self, lam)

    monkeypatch.setattr(Poly, "__call__", counted)
    return counts


def test_audit_evaluates_each_coefficient_once(poly_calls):
    aff = AffineMap(poly(0.3, 0.1), poly(0.1, 0.2))
    rat = RationalMap(poly(0.5, 0.1), poly(1.0), poly(3.0, 0.2), poly(1.0, -0.1))
    regularity_audit(IfsFamily((aff, rat), (0.0, 1.0), (0.0, 1.0)))
    coeffs = (aff.slope, aff.offset, rat.n0, rat.n1, rat.d0, rat.d1)
    assert [poly_calls[id(c)] for c in coeffs] == [1] * 6
    assert sum(poly_calls.values()) == 6


def test_shifted_map_evaluates_its_base_once(poly_calls):
    base = AffineMap(poly(0.3, 0.1), poly(0.1, 0.2))
    mp = ShiftedMap(base, poly(0.0, 1.0), 0.4)
    for lam in (0.0, 0.1, 0.2):
        mp.value(lam, 0.5)
        mp.dx(lam, 0.5)
        mp.dlam(lam, 0.5)
    assert poly_calls[id(base.slope)] == poly_calls[id(base.offset)] == 1
    assert mp.value(0.1, 0.5) == base.value(0.4, 0.5) + 0.1


def test_custom_map_fd_fallback():
    mp = CustomMap(value_fn=lambda lam, x: lam * x,
                   dx_fn=lambda lam, x: lam * np.ones_like(np.asarray(x)))
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


def test_project_words_composes_from_the_right(cantor_fam):
    x, d = project_words(cantor_fam, np.array([[2, 1, 2]]), 0.0, 0.5)
    direct = (((0.5 / 3 + 2 / 3) / 3) / 3 + 2 / 3)
    assert x[0] == pytest.approx(direct)
    assert d[0] == 0.0  # no map depends on lambda
    v, dv = compose_word(cantor_fam, [2, 1, 2], 0.0, 0.5)  # the test reference
    assert v == x[0] and dv == pytest.approx((1 / 3) ** 3)


def _row(word):
    return np.array([word], dtype=int).reshape(1, -1)


@given(st.lists(st.integers(1, 2), min_size=0, max_size=6),
       st.lists(st.integers(1, 2), min_size=0, max_size=6))
@settings(max_examples=40, deadline=None)
def test_project_words_splits(u, v):
    fam = IfsFamily((affine_map(1 / 3, 0.0), affine_map(1 / 3, 2 / 3)),
                    (0.0, 1.0), (0.0, 1e-9))
    x = 0.37
    whole, _ = project_words(fam, _row(u + v), 0.0, x)
    inner, _ = project_words(fam, _row(v), 0.0, x)
    outer, _ = project_words(fam, _row(u), 0.0, inner)  # x0 one point per row
    assert whole[0] == pytest.approx(outer[0], abs=1e-14)


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


def without_dlam(fam):
    """`fam` with every map a CustomMap of its value and dx, so that each
    map's lambda-derivative is its own central difference."""
    return IfsFamily(tuple(CustomMap(mp.value, mp.dx) for mp in fam.maps),
                     fam.domain, fam.param_interval)


def test_projection_derivative_recursion_vs_fd(bernoulli_fam):
    u = _row([2, 1, 2, 2, 1, 1, 2, 1] + [1] * 22)  # padded to depth 30
    for fam, lam in [(bernoulli_fam, 0.6), (blackwell_family(0.2, 0.3)[0], 0.3),
                     (cf_family(0.5, 2.0, 0.1), 0.05)]:
        _, d_rec = project_words(fam, u, lam, fam.midpoint)
        _, d_fd = project_words(without_dlam(fam), u, lam, fam.midpoint)
        assert d_rec[0] == pytest.approx(d_fd[0], rel=1e-5)


@pytest.mark.parametrize("symbol", [0, 3])
def test_symbols_outside_the_alphabet_raise(bernoulli_fam, symbol):
    for fam in (bernoulli_fam, without_dlam(bernoulli_fam)):
        with pytest.raises(ValueError, match="outside 1..2"):
            natural_projection(fam, 0.6, [1, symbol, 2], 10)
        with pytest.raises(ValueError, match="outside 1..2"):
            cylinder_interval(fam, 0.6, [1, symbol])


def test_cylinder_interval_nested(cantor_fam):
    a, b = cylinder_interval(cantor_fam, 0.0, [2])
    assert (a, b) == pytest.approx((2 / 3, 1.0))
    a2, b2 = cylinder_interval(cantor_fam, 0.0, [2, 1])
    assert a <= a2 <= b2 <= b


def test_check_lam_guard(bernoulli_fam):
    with pytest.raises(EvaluationError):
        natural_projection(bernoulli_fam, 0.9, [1], 5)
    with pytest.raises(EvaluationError):
        cylinder_interval(bernoulli_fam, 0.9, [1])


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
    if draw(st.booleans()):
        x0 = fam.midpoint
    else:
        x0 = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=rows, max_size=rows)))
    return fam, words, draw(st.floats(0.01, 0.99)), x0


@given(_word_batch_cases())
@settings(max_examples=40, deadline=None)
def test_project_words_matches_per_word_references(case):
    fam, words, lam, x0 = case
    x, d = ifs.project_words(fam, words, lam, x0)
    starts = np.broadcast_to(x0, len(words))
    ref_x = np.array([float(compose_word(fam, w, lam, s)[0]) for w, s in zip(words, starts)])
    ref_d = np.array([lambda_derivative(fam, lam, w, s) for w, s in zip(words, starts)])
    assert x.tobytes() == ref_x.tobytes()
    assert d.tobytes() == ref_d.tobytes()


MONOTONE_CASES = {
    "bernoulli": (IfsFamily((bernoulli_psi(0), bernoulli_psi(1)), (-1.0, 1.0), (0.5, 0.66)), 0.6),
    "blackwell": (blackwell_family(0.3, 0.8)[0], 0.8),
    "cf": (cf_family(0.5, 2.0, 0.1), 0.05),
    "mixed": (IfsFamily((affine_map(-0.3, 0.6), moebius_shift(poly(2.0, 0.5))),
                        (0.0, 1.0), (0.0, 0.2)), 0.1),
}


@pytest.mark.parametrize("fam, lam", MONOTONE_CASES.values(), ids=MONOTONE_CASES)
def test_natural_projection_and_cylinder_interval_match_per_word_references(fam, lam):
    rng = np.random.default_rng(3)
    for n in range(12):
        u = [int(s) for s in rng.integers(1, fam.m + 1, size=n)]
        ends = compose_word(fam, u, lam, np.array(fam.domain))[0]
        # every f_u is monotone: the 65-point grid gives the endpoint images
        assert cylinder_interval(fam, lam, u) == (float(ends.min()), float(ends.max()))
        x = compose_word(fam, u + [1] * 3, lam, fam.midpoint)[0]
        assert natural_projection(fam, lam, u, n + 3)[0] == float(x)  # the 1^infty tail
        if n:
            x = compose_word(fam, u, lam, fam.midpoint)[0]
            assert natural_projection(fam, lam, u + [2, 2], n)[0] == float(x)  # cut at n

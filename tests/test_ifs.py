"""Map families, audits, composition, and projections."""

import collections
import gc
import math
import weakref

import numpy as np
import pytest
from audit_refs import sampled_audit
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypifs import ifs
from hypifs.apps import bernoulli_family, blackwell_family, cf_family
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


_poly_points = st.one_of(
    st.floats(-4.0, 4.0), st.integers(-3, 3),
    st.floats(-4.0, 4.0).map(np.array),  # a 0-d array
    st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=5).map(np.array),
    st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=5).map(lambda v: np.array(v)[:, None]))


@given(st.one_of(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5),
                 st.lists(st.integers(-5, 5), min_size=1, max_size=4),
                 st.just([-0.0, 1.0, -0.0])), _poly_points)
@settings(max_examples=60, deadline=None)
def test_poly_call_is_numpys_polyval_bit_for_bit(coeffs, lam):
    got = Poly(tuple(coeffs))(lam)
    want = np.polynomial.polynomial.polyval(lam, np.asarray(coeffs))
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


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
    # frozen at lam, the shift and its derivative are evaluated once per lam,
    # and the same floats are added
    lams = (0.0, 0.1, 0.2)
    expect = [(base.value(0.4, 0.5) + mp.shift(lam), mp.shift.deriv()(lam))
              for lam in lams]
    poly_calls.clear()
    fam = IfsFamily((mp,), (0.0, 1.0), (0.0, 0.2))
    for lam, (value, dlam) in zip(lams, expect):
        frozen = fam.at(lam).maps[0]
        for _ in range(3):
            assert frozen.value(0.5) == value
            assert frozen.dlam(0.5) == dlam
            frozen.dx(0.5)
    assert poly_calls[id(mp.shift)] == poly_calls[id(mp.shift.deriv())] == len(lams)
    assert sum(poly_calls.values()) == 2 * len(lams)


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


FIXED = (-1e-9, 1e-9)  # the parameter interval of a family that does not vary


def _e2():
    return IfsFamily(tuple(RationalMap(poly(1.0), poly(0.0), poly(float(k)), poly(1.0))
                           for k in (1, 2)), (1 / 3, 1.0), FIXED)


def _three_map_affine():
    """A separated three-map self-similar family, drawn from seed 1."""
    ratios = np.sort(np.random.default_rng(1).uniform(0.15, 0.3, 3))
    gap = (1.0 - ratios.sum()) / 2.0
    offsets = (0.0, ratios[0] + gap, 1.0 - ratios[2])
    return IfsFamily(tuple(affine_map(float(a), float(b)) for a, b in zip(ratios, offsets)),
                     (0.0, 1.0), FIXED)


EXACT_FAMILIES = {
    "e2": _e2,
    "cantor": lambda: IfsFamily((affine_map(1 / 3, 0.0), affine_map(1 / 3, 2 / 3)),
                                (0.0, 1.0), FIXED),
    "three-map-affine": _three_map_affine,
    "bernoulli": bernoulli_family,
    "cf-0.05-1": lambda: cf_family(0.05, 1),
    "cf-1e-4-0.4142": lambda: cf_family(1e-4, 0.4142),
    "blackwell-0.3-0.25": lambda: blackwell_family(0.3, 0.25)[0],
}


def _flags(rep):
    return rep.invariant, rep.derivative_ok, rep.monotone_increasing


@pytest.mark.parametrize("make", EXACT_FAMILIES.values(), ids=EXACT_FAMILIES.keys())
def test_exact_audit_is_the_sampled_one_bit_for_bit(make):
    rep, ref = regularity_audit(make()), sampled_audit(make())
    assert rep.method == "exact"
    assert (rep.gamma1, rep.gamma2) == (ref.gamma1, ref.gamma2)
    assert _flags(rep) == _flags(ref)
    assert rep.log_dx_lipschitz >= ref.log_dx_lipschitz


def test_exact_lipschitz_constant_of_e2():
    # log|f'| = -2 log(k + x): sup 2 / (1 + 1/3) at x = 1/3, where the
    # 256-point secant read 1.4985...
    assert regularity_audit(_e2()).log_dx_lipschitz == 1.5
    assert sampled_audit(_e2()).log_dx_lipschitz < 1.5


def _through(values, interval):
    """The curve of degree <= 1 in lambda taking `values` at the two ends of
    `interval`, or the constant values[0] on a fixed interval."""
    (v0, v1), (l0, l1) = values, interval
    if interval == FIXED:
        return poly(v0)
    slope = (v1 - v0) / (l1 - l0)
    return poly(v0 - slope * l0, slope)


@st.composite
def exact_families(draw):
    """Families of affine and pole-free Moebius maps, with coefficients of
    degree <= 1 in lambda over a wide parameter interval, or constant over
    a fixed one.  A Moebius denominator is drawn by its values at the four
    corners of (lambda, x), all of one sign and at least 0.05 in modulus:
    being bilinear, it then has no zero on X at any lambda."""
    coef = st.floats(-2, 2)
    lo = draw(st.floats(-2, 2))
    dom = (lo, lo + draw(st.floats(0.1, 3)))
    if draw(st.booleans()):
        l0 = draw(st.floats(-1, 1))
        interval = (l0, l0 + draw(st.floats(1e-3, 1)))
    else:
        interval = FIXED

    def curve():
        return _through((draw(coef), draw(coef)), interval)

    maps = []
    for moebius in draw(st.lists(st.booleans(), min_size=1, max_size=3)):
        if not moebius:
            maps.append(AffineMap(curve(), curve()))
            continue
        sign = draw(st.sampled_from([-1.0, 1.0]))
        den = [[sign * draw(st.floats(0.05, 3)) for _ in dom] for _ in interval]
        d1 = [(at_hi - at_lo) / (dom[1] - dom[0]) for at_lo, at_hi in den]
        # a Moebius map with d1 ~ 0 is affine up to rounding: its true
        # Lipschitz constant is then below the rounding of the grid secant
        assume(max(abs(c) for c in d1) >= 0.05)
        d0 = [at_lo - c * dom[0] for (at_lo, _), c in zip(den, d1)]
        maps.append(RationalMap(curve(), curve(), _through(d0, interval),
                                _through(d1, interval)))
    return IfsFamily(tuple(maps), dom, interval)


@given(exact_families())
@settings(max_examples=150, deadline=None)
def test_exact_audit_matches_the_sampled_reference(fam):
    rep, ref = regularity_audit(fam), sampled_audit(fam)
    assert rep.method == "exact"
    for got, want in ((rep.gamma1, ref.gamma1), (rep.gamma2, ref.gamma2)):
        assert abs(got - want) <= 4 * math.ulp(want)
    assert _flags(rep) == _flags(ref)
    # every secant of log|f'| is a value of its derivative (mean value theorem)
    assert rep.log_dx_lipschitz >= ref.log_dx_lipschitz


def _pole_inside():
    """x -> 0.01 / (x - c) on [0, 1], its pole c strictly between the grid
    points 100/255 and 101/255."""
    c = 100.5 / 255
    return IfsFamily((affine_map(0.5, 0.0),
                      RationalMap(poly(0.01), poly(0.0), poly(-c), poly(1.0))),
                     (0.0, 1.0), FIXED)


def test_audit_raises_on_a_pole_between_grid_points():
    ref = sampled_audit(_pole_inside())  # the grid sees only a large finite |f'|
    assert math.isfinite(ref.gamma2) and ref.gamma2 > 1.0
    with pytest.raises(EvaluationError, match="Moebius map 2 has a pole on the domain"):
        regularity_audit(_pole_inside())


def _custom_affine(a, b):
    return CustomMap(value_fn=lambda lam, x: a * np.asarray(x, dtype=float) + b,
                     dx_fn=lambda lam, x: a * np.ones_like(np.asarray(x, dtype=float)))


@pytest.mark.parametrize("maps, domain", [
    ((affine_map(1 / 3, 0.0), _custom_affine(1 / 3, 2 / 3)), (0.0, 1.0)),
    ((ShiftedMap(moebius_shift(0.05), poly(0.0, 1.0)), moebius_shift(1.0)),
     cf_family(0.05, 1).domain)],
    ids=["custom", "shifted"])
def test_audit_samples_a_family_with_a_custom_or_shifted_map(maps, domain):
    fam = IfsFamily(maps, domain, FIXED)
    rep = regularity_audit(fam)
    assert rep.method == "sampled"
    assert rep == sampled_audit(fam)


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


@pytest.mark.parametrize("symbol", [0, 3, 1.5])
def test_symbols_outside_the_alphabet_raise(bernoulli_fam, symbol):
    """A symbol that is not an integer in 1..m is named, not truncated."""
    for fam in (bernoulli_fam, without_dlam(bernoulli_fam)):
        with pytest.raises(ValueError, match=f"symbol {symbol} outside 1..2"):
            natural_projection(fam, 0.6, [1, symbol, 2], 10)
        with pytest.raises(ValueError, match=f"symbol {symbol} outside 1..2"):
            cylinder_interval(fam, 0.6, [1, symbol])


@pytest.mark.parametrize("symbol", [0, 3, 1.5])
def test_project_words_rejects_symbols_outside_the_alphabet(bernoulli_fam, symbol):
    """The gathered affine pass and the masked pass (a CustomMap family)
    both raise and name the first such symbol, at one lambda and over an
    array of them; symbols of a float dtype raise even when integral."""
    words = np.array([[1, 2, 1], [2, symbol, 1]])
    for fam in (bernoulli_fam, without_dlam(bernoulli_fam)):
        for lam in (0.6, np.array([0.55, 0.6])):
            with pytest.raises(ValueError, match=f"symbol {symbol} outside 1..2"):
                project_words(fam, words, lam, 0.0)
            with pytest.raises(ValueError, match="dtype float64, not integers"):
                project_words(fam, np.array([[1.0, 2.0]]), lam, 0.0)


@pytest.mark.parametrize("lam", [np.array([]), np.full((2, 2), 0.6)], ids=["empty", "2-D"])
def test_project_words_rejects_a_lambda_array_that_is_not_1d(bernoulli_fam, lam):
    with pytest.raises(ValueError, match="non-empty 1-D"):
        project_words(bernoulli_fam, np.array([[1, 2]]), lam, 0.0)


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


def _two_pass_interp(images, nodes):
    """Barycentric rows at `images` by the two-pass formula: c = w / (y - x)
    and c / sum(c), then the unit row wherever c is infinite."""
    k = np.arange(len(nodes))
    weights = np.where(k % 2 == 0, 1.0, -1.0)
    weights[[0, -1]] *= 0.5
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c = weights / (images[..., None] - nodes)
        interp = c / c.sum(axis=-1, keepdims=True)
    on_node = np.isinf(c)
    hit = on_node.any(axis=-1)
    interp[hit] = on_node[hit]
    return interp


# on [0, 1]: f_1(1) = 1 and f_1(0) = 1/2 land exactly on nodes (1/2 is one
# at odd n), 1/(f_2(0) - 0) overflows, and f_3 is NaN at the nodes above 0.9
EDGE_IMAGES = IfsFamily(
    (CustomMap(lambda lam, x: 0.5 * x + 0.5 + 0 * lam, lambda lam, x: 0.5 + 0 * x),
     CustomMap(lambda lam, x: 0.25 * x + 5e-324 + 0 * lam, lambda lam, x: 0.25 + 0 * x),
     CustomMap(lambda lam, x: np.where(x > 0.9, np.nan, x / 3 + lam),
               lambda lam, x: 1 / 3 + 0 * x)),
    (0.0, 1.0), (0.0, 0.5))


@pytest.mark.parametrize("n", [16, 17, 24, 48])
@pytest.mark.parametrize("fam", [EDGE_IMAGES, blackwell_family(0.2, 0.3)[0]],
                         ids=["edge-images", "blackwell"])
def test_one_pass_collocation_is_the_two_pass_formula(fam, n):
    lo, hi = fam.param_interval
    for lam in (lo, np.array([[lo], [0.5 * (lo + hi)], [hi]])):
        col = fam.at(lam).collocation(n)
        assert col.interp.tobytes() == _two_pass_interp(col.images, col.nodes).tobytes()
    if fam is EDGE_IMAGES:
        eye = np.eye(n)
        assert col.images[:, 1, -1].tolist() == [5e-324] * 3
        # (map, node, the node its image lands on)
        for j, k, u in [(0, 0, 0), (1, -1, -1)] + [(0, -1, (n - 1) // 2)] * (n % 2):
            assert (col.interp[:, j, k] == eye[u]).all()
        assert np.isnan(col.interp[:, 2, col.nodes > 0.9]).all()


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
            mp = affine_map(poly(draw(st.floats(0.05, 0.3)), draw(st.floats(0.0, 0.25)),
                                 draw(st.floats(-0.05, 0.05))),
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
    lams = np.array(draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4)))
    return fam, words, draw(st.floats(0.01, 0.99)), x0, lams


@given(_word_batch_cases())
@settings(max_examples=40, deadline=None)
def test_project_words_matches_per_word_references(case):
    """At one lambda, and at every lambda of an array, x and d are the
    per-word references at that lambda, bit for bit."""
    fam, words, lam, x0, lams = case
    for grid in (lam, lams):
        x, d = ifs.project_words(fam, words, grid, x0)
        assert x.shape == d.shape == np.shape(grid) + (len(words),)
        _assert_rows_match_references(fam, words, grid, x0, x, d)


def _assert_rows_match_references(fam, words, grid, x0, x, d):
    """Row l of the (L, k) arrays x and d, or the (k,) arrays at one
    lambda, is `compose_word` and `lambda_derivative` at grid[l]."""
    starts = np.broadcast_to(x0, len(words))
    for lam, xl, dl in zip(np.atleast_1d(grid), np.atleast_2d(x), np.atleast_2d(d)):
        ref_x = np.array([float(compose_word(fam, w, lam, s)[0]) for w, s in zip(words, starts)])
        ref_d = np.array([lambda_derivative(fam, lam, w, s) for w, s in zip(words, starts)])
        assert xl.tobytes() == ref_x.tobytes()
        assert dl.tobytes() == ref_d.tobytes()


def test_project_words_differences_a_custom_map_over_a_lambda_array():
    """A CustomMap without dlam_fn differences its value at lambda +-
    fd_step(lambda) for a whole lambda array at once, with the step
    scaled by |lambda| past 1: every row is the reference at its lambda."""
    maps = tuple(CustomMap(lambda lam, x, c=c: (0.2 + 0.01 * lam) * x + c * lam * lam,
                           lambda lam, x: (0.2 + 0.01 * lam) * np.ones_like(x))
                 for c in (0.01, -0.02))
    fam = IfsFamily(maps, (0.0, 1.0), (-2.5, 2.9))
    lams = np.linspace(-2.5, 2.9, 17)
    steps = ifs.fd_step(lams)
    assert steps.tolist() == [ifs.fd_step(float(lam)) for lam in lams]
    assert steps.max() > ifs.FD_STEP_SCALE == steps.min()
    words = np.random.default_rng(3).integers(1, 3, size=(40, 12))
    starts = np.random.default_rng(4).uniform(0.0, 1.0, size=len(words))
    x, d = project_words(fam, words, lams, starts)
    _assert_rows_match_references(fam, words, lams, starts, x, d)


@given(_word_batch_cases())
@settings(max_examples=40, deadline=None)
def test_project_words_over_a_lambda_array_stacks_the_scalar_calls(case):
    """An array of L values of lambda, L = 1 included, gives the (L, k)
    stack of the calls at each value, bit for bit."""
    fam, words, _, x0, lams = case
    for grid in (lams, lams[:1]):
        x, d = project_words(fam, words, grid, x0)
        at_each = [project_words(fam, words, lam, x0) for lam in grid]
        assert x.shape == d.shape == (len(grid), len(words))
        assert x.tobytes() == np.stack([xl for xl, _ in at_each]).tobytes()
        assert d.tobytes() == np.stack([dl for _, dl in at_each]).tobytes()


@pytest.mark.parametrize("make", [
    lambda: cf_family(0.5, 2.0, 0.1),
    lambda: IfsFamily(tuple(CustomMap(lambda lam, x, s=s: lam * x + s * (1.0 - lam),
                                      lambda lam, x: lam * np.ones_like(x))
                            for s in (-1.0, 1.0)), (-1.0, 1.0), (0.5, 0.66)),
    lambda: IfsFamily((ShiftedMap(bernoulli_psi(0), poly(0.0, 1.0), 0.6),
                       ShiftedMap(bernoulli_psi(1), poly(0.0, -1.0), 0.6)),
                      (-1.0, 1.0), (-0.05, 0.05)),
], ids=["cf", "custom", "shifted"])
def test_project_words_freezes_each_map_once_over_a_lambda_array(monkeypatch, make):
    """One call over 17 values of lambda freezes each map once, over the
    whole array, and leaves the memo of `IfsFamily.at` alone."""
    fam = make()
    for mp in fam.maps:  # a ShiftedMap freezes its base once, at base_lam, on first use
        getattr(mp, "frozen_base", None)
    calls = []
    freeze = ifs._freeze
    monkeypatch.setattr(ifs, "_freeze", lambda mp, lam: calls.append((mp, lam)) or freeze(mp, lam))
    lams = np.linspace(*fam.param_interval, 17)
    words = np.random.default_rng(1).integers(1, fam.m + 1, size=(30, 10))
    x, d = project_words(fam, words, lams, fam.midpoint)
    assert x.shape == d.shape == (17, 30)
    assert [mp for mp, _ in calls] == list(fam.maps)
    assert all(np.array_equal(lam, lams) for _, lam in calls)
    assert fam not in ifs._frozen_cache


@given(_word_batch_cases())
@settings(max_examples=40, deadline=None)
def test_project_words_without_dlam_gives_the_same_x(case):
    """dlam=False composes the x of the full call bit for bit, with None
    for d, in the gathered and the masked pass, at one lambda and over a
    lambda array, from one start point and from one per row."""
    fam, words, lam, x0, lams = case
    starts = np.broadcast_to(x0, len(words)).copy()
    for grid in (lam, lams):
        for start in (fam.midpoint, starts):
            x, d = project_words(fam, words, grid, start, dlam=False)
            assert d is None
            assert x.tobytes() == project_words(fam, words, grid, start)[0].tobytes()


def test_project_words_without_dlam_builds_no_derivative(monkeypatch):
    """dlam=False reads no affine a', b' table and calls no map's dx or dlam."""
    def boom(*_):
        raise AssertionError("derivative evaluated")

    monkeypatch.setattr(ifs._FrozenAffine, "_dlam_coeffs", property(boom))
    words = np.random.default_rng(0).integers(1, 3, size=(50, 12))
    affine = IfsFamily((affine_map(poly(0.2, 0.5), 0.0), affine_map(0.4, poly(0.5, 0.1))),
                       (0.0, 1.0), (0.0, 1.0))
    callbacks = IfsFamily(tuple(CustomMap(mp.value, boom, boom) for mp in affine.maps),
                          affine.domain, affine.param_interval)
    for fam in (affine, callbacks):
        x, d = project_words(fam, words, np.array([0.1, 0.7]), fam.midpoint, dlam=False)
        assert d is None and x.shape == (2, 50)
        with pytest.raises(AssertionError, match="derivative"):
            project_words(fam, words, 0.1, fam.midpoint)


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

"""Application regions: Bernoulli convolutions, Blackwell measure,
continued fractions, similarity dimension."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypifs import apps, thermo
from hypifs.apps import (BERNOULLI_TRANSVERSALITY_SUP,
                         bernoulli_entropy_bounds, bernoulli_family,
                         bernoulli_moments, bernoulli_region_scan,
                         blackwell_family, blackwell_region_scan,
                         cf_domain, cf_family, cf_overlap,
                         similarity_dimension)
from hypifs.cli import main
from hypifs.ifs import ROOT_RTOL, ROOT_XTOL, IfsFamily, regularity_audit
from hypifs.thermo import (CollocationUnresolved, bowen_root, collocation_h_chi,
                           entropy, gibbs_cylinder_measure,
                           log_probability_potential, lyapunov_exponent,
                           transfer_spectrum)


def blackwell_cell_value(eps, p, r=8):
    """h/chi for the Blackwell Gibbs measure at (eps, p): the one-cell row
    `blackwell_row_values(eps, [p], r)`, raised if it is a failure."""
    value = apps.blackwell_row_values(eps, [p], r)[0]
    if isinstance(value, Exception):
        raise value
    return value


def test_bernoulli_family_shape():
    fam = bernoulli_family()
    assert fam.m == 2
    assert fam.domain == (-1.0, 1.0)
    rep = regularity_audit(fam)
    assert rep.passed
    assert fam.param_interval[1] == BERNOULLI_TRANSVERSALITY_SUP


def test_moment_uniform_oracle():
    F = bernoulli_moments(0.5, 0.0, 3)
    assert F[0] == pytest.approx(1 / 3, abs=1e-14)
    assert F[1] == pytest.approx(1 / 5, abs=1e-14)
    assert F[2] == pytest.approx(1 / 7, abs=1e-12)


def test_moment_validation():
    with pytest.raises(ValueError):
        bernoulli_moments(1.2, 0.0, 2)
    with pytest.raises(ValueError):
        bernoulli_moments(0.5, 0.6, 2)
    with pytest.raises(ValueError):
        bernoulli_moments(0.5, 0.0, 0)


def test_entropy_bounds_rho_zero_is_log2():
    lo, hi = bernoulli_entropy_bounds(0.55, 0.0, 8)
    assert lo == pytest.approx(math.log(2), abs=1e-14)
    assert hi == pytest.approx(math.log(2), abs=1e-14)


def test_entropy_bounds_ordered_and_tight():
    lo, hi = bernoulli_entropy_bounds(0.6, 0.3, 12)
    assert lo <= hi <= math.log(2)
    assert hi - lo < 1e-4


def test_bernoulli_region_scan_monotone_edge():
    grid = bernoulli_region_scan((0.0, 0.4), (0.52, 0.66), (8, 8), 10)
    assert grid.values.shape == (8, 8)
    # rho = 0 row: value = log 2 + log lam > 0 always
    assert all(v == "SUPERCRITICAL" for v in grid.verdicts[0])


def test_bernoulli_region_scan_marks_audit_fail():
    # lambda = 1.2 lies outside (0, 1), where the moment recursion is defined
    grid = bernoulli_region_scan((0.0, 0.4), (0.5, 1.2), (3, 8), 8)
    assert grid.axis2[-1] == 1.2
    assert list(grid.verdicts[:, -1]) == ["AUDIT-FAIL"] * 3
    assert np.isnan(grid.values[:, -1]).all()
    assert not np.isnan(grid.values[:, 0]).any()


def test_bernoulli_region_scan_propagates_bugs(monkeypatch):
    def broken(lam, rho, n_terms):
        raise TypeError("a bug, not a numerical failure")

    monkeypatch.setattr(apps, "bernoulli_entropy_bounds", broken)
    with pytest.raises(TypeError):
        bernoulli_region_scan((0.0, 0.2), (0.55, 0.6), (2, 2), 6)


def test_blackwell_family_probabilities():
    fam, (p0, p1) = blackwell_family(0.3, 0.6)
    xs = np.linspace(0, 1, 33)
    total = p0(0.6, xs) + p1(0.6, xs)
    assert np.abs(total - 1.0).max() < 1e-12
    assert regularity_audit(fam).passed


def test_blackwell_degenerate_flag():
    for eps, p in [(0.5, 0.6), (0.3, 0.5), (0.05, 0.49999999999999994),
                   (0.5 + 5e-10, 0.3)]:
        with pytest.raises(apps.DegenerateCell):
            blackwell_cell_value(eps, p)


def test_blackwell_symmetry():
    a = blackwell_cell_value(0.35, 0.65, r=6)
    b = blackwell_cell_value(0.65, 0.65, r=6)
    assert a == pytest.approx(b, abs=1e-6)


def blackwell_cylinder_value(fam, prob_fns, p, r):
    """h/chi of the depth-r cylinder spectrum: the fallback of a cell."""
    spec = transfer_spectrum(fam, log_probability_potential(prob_fns), p, r)
    h, _ = entropy(spec)
    return h / lyapunov_exponent(fam, p, gibbs_cylinder_measure(spec))


def test_blackwell_cylinder_cells_approach_the_collocation_value():
    fam, prob_fns = blackwell_family(0.2, 0.3)
    value = blackwell_cell_value(0.2, 0.3)
    h, chi = collocation_h_chi(fam, log_probability_potential(prob_fns), 0.3)
    assert value == h / chi
    errs = [abs(blackwell_cylinder_value(fam, prob_fns, 0.3, r) - value)
            for r in (8, 10, 12)]
    assert errs[0] > errs[1] > errs[2] and errs[2] <= 1e-13


@given(st.floats(0.08, 0.42), st.floats(0.1, 0.425))
@settings(max_examples=25, deadline=None)
def test_blackwell_cell_is_symmetric_in_eps(eps, p):
    # the workload box: S_0 and S_1 trade places under eps <-> 1 - eps
    a, b = blackwell_cell_value(eps, p), blackwell_cell_value(1 - eps, p)
    assert abs(a - b) <= 1e-12


def narrowed_blackwell_family(eps, p):
    """The Blackwell family on [0, 0.85]: at (0.2, 0.3), S_0(0) = 0.903
    leaves the domain, while the tail point, 0.733, stays in it."""
    fam, prob_fns = blackwell_family(eps, p)
    return IfsFamily(fam.maps, (0.0, 0.85), fam.param_interval), prob_fns


def test_blackwell_cell_falls_back_where_a_node_image_leaves_the_domain(monkeypatch):
    monkeypatch.setattr(apps, "blackwell_family", narrowed_blackwell_family)
    fam, prob_fns = narrowed_blackwell_family(0.2, 0.3)
    with pytest.raises(CollocationUnresolved, match="leaves the domain"):
        collocation_h_chi(fam, log_probability_potential(prob_fns), 0.3)
    assert blackwell_cell_value(0.2, 0.3, r=6) == \
        blackwell_cylinder_value(fam, prob_fns, 0.3, 6)


def test_blackwell_cell_falls_back_where_the_ladder_never_settles(monkeypatch):
    fam, prob_fns = blackwell_family(0.2, 0.3)
    settled = blackwell_cell_value(0.2, 0.3)
    monkeypatch.setattr(thermo, "COLLOCATION_TOL", -1.0)  # no pair can agree
    value = blackwell_cell_value(0.2, 0.3, r=8)
    assert value == blackwell_cylinder_value(fam, prob_fns, 0.3, 8)
    assert 1e-11 < abs(value - settled) < 1e-9  # the r = 8 truncation error


def test_blackwell_cell_rejects_a_nonpositive_depth():
    with pytest.raises(ValueError, match="depth must be positive"):
        blackwell_cell_value(0.2, 0.3, r=0)


def test_blackwell_region_scan_marks_degenerate():
    grid = blackwell_region_scan((0.4, 0.6), (0.4, 0.6), (3, 3), r=4)
    assert grid.verdicts[1, 1] == "DEGENERATE"
    assert math.isnan(grid.values[1, 1])


def test_blackwell_degenerate_before_range_check():
    # eps = 1/2 is degenerate even where p = 1.2 is out of range
    grid = blackwell_region_scan((0.5, 0.5), (0.6, 1.2), (1, 2), r=4)
    assert list(grid.verdicts[0]) == ["DEGENERATE", "DEGENERATE"]
    grid = blackwell_region_scan((0.3, 0.3), (1.2, 1.2), (1, 1), r=4)
    assert grid.verdicts[0, 0] == "AUDIT-FAIL"
    with pytest.raises(ValueError, match="degenerate"):
        blackwell_cell_value(0.5, 1.2)


def test_blackwell_region_scan_half_bias_column():
    # the middle of linspace(0.05, 0.95, 3) is 0.49999999999999994
    grid = blackwell_region_scan((0.05, 0.95), (0.05, 0.95), (3, 3), r=8)
    assert list(grid.verdicts[:, 1]) == ["DEGENERATE"] * 3
    assert np.isnan(grid.values[:, 1]).all()
    assert all(v in ("SUPERCRITICAL", "SUBCRITICAL")
               for v in grid.verdicts[[0, 2]][:, [0, 2]].ravel())


def test_blackwell_region_scan_propagates_bugs(monkeypatch):
    def broken(*args):
        raise TypeError("a bug, not a numerical failure")

    # from the row call
    monkeypatch.setattr(apps, "blackwell_row_values", broken)
    with pytest.raises(TypeError):
        blackwell_region_scan((0.2, 0.3), (0.2, 0.3), (2, 2), r=4)
    monkeypatch.undo()
    # from the cylinder fallback of a cell inside the row
    monkeypatch.setattr(thermo, "COLLOCATION_TOL", -1.0)  # no pair can agree
    monkeypatch.setattr(apps, "transfer_spectrum", broken)
    with pytest.raises(TypeError, match="a bug"):
        blackwell_region_scan((0.2, 0.3), (0.2, 0.3), (2, 2), r=4)


@pytest.mark.parametrize("bug", [TypeError("a bug"), CollocationUnresolved("not a verdict")])
def test_region_scan_raises_a_reported_exception_outside_the_numerical_errors(bug):
    def row(a, bs):
        return [1.0, apps.DegenerateCell("half"), ValueError("range"), bug]

    with pytest.raises(type(bug)) as info:
        apps.region_scan(((0.0, 1.0), (0.0, 1.0)), (2, 4), ("a", "b"), row, 0.5)
    assert info.value is bug


def outcome(fn, *args):
    """fn(*args), or the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def described(outcomes):
    """Outcomes with each exception replaced by its type and message."""
    return [(type(o), str(o)) if isinstance(o, Exception) else o for o in outcomes]


def cell_by_cell_scan(eps_range, p_range, shape, r):
    """The Blackwell scan with one `blackwell_cell_value` call per cell."""
    return apps.region_scan(
        (eps_range, p_range), shape, ("eps", "p"),
        lambda eps, ps: [outcome(blackwell_cell_value, eps, p, r) for p in ps], 1.0)


def test_blackwell_row_mixes_every_kind_of_cell_like_the_cell_by_cell_scan(monkeypatch):
    # on [0, 0.85] the p of linspace(0.2, 1.2, 11) give, for eps = 0.3: node
    # images leaving the domain (0.2, 0.8, 0.9), so cylinder cells, of which
    # 0.8 and 0.9 find no tail point (AUDIT-FAIL); p = 1/2 up to rounding
    # (DEGENERATE); p >= 1 (AUDIT-FAIL); and settled cells (0.3 to 0.7); the
    # row eps = 1/2 is DEGENERATE throughout
    monkeypatch.setattr(apps, "blackwell_family", narrowed_blackwell_family)
    ref = cell_by_cell_scan((0.3, 0.5), (0.2, 1.2), (2, 11), 6)
    fallbacks = []
    spectrum = apps.transfer_spectrum

    def recording(fam, pot, p, r):
        fallbacks.append(round(p, 9))
        return spectrum(fam, pot, p, r)

    monkeypatch.setattr(apps, "transfer_spectrum", recording)
    grid = blackwell_region_scan((0.3, 0.5), (0.2, 1.2), (2, 11), r=6)
    assert grid.verdicts.tolist() == ref.verdicts.tolist()
    assert np.array_equal(grid.values, ref.values, equal_nan=True)
    assert grid.verdicts[0].tolist() == (
        ["SUBCRITICAL"] * 3 + ["DEGENERATE"] + ["SUBCRITICAL"] * 2 + ["AUDIT-FAIL"] * 5)
    assert grid.verdicts[1].tolist() == ["DEGENERATE"] * 11
    # the cells the node ladder leaves unresolved, each once
    assert fallbacks == [0.2, 0.8, 0.9]
    fam, prob_fns = narrowed_blackwell_family(0.3, 0.2)
    assert grid.values[0, 0] == blackwell_cylinder_value(fam, prob_fns, 0.2, 6)


def test_blackwell_row_without_a_settled_pair_gives_the_cylinder_values(monkeypatch):
    monkeypatch.setattr(thermo, "COLLOCATION_TOL", -1.0)  # no pair can agree
    grid = blackwell_region_scan((0.2, 0.2), (0.1, 0.4), (1, 6), r=6)
    fam, prob_fns = blackwell_family(0.2, 0.3)
    assert grid.values[0].tolist() == [blackwell_cylinder_value(fam, prob_fns, p, 6)
                                       for p in grid.axis2]


def test_blackwell_scan_climbs_each_cells_node_ladder_once(monkeypatch):
    # with no settling pair, each of the 2 x 12 cells reads all five h/chi
    # rungs once and then takes the cylinder fallback
    monkeypatch.setattr(thermo, "COLLOCATION_TOL", -1.0)
    stationary = thermo._stationary_vectors
    solved = []

    def counting(ops):
        solved.append(len(ops))
        return stationary(ops)

    monkeypatch.setattr(thermo, "_stationary_vectors", counting)
    grid = blackwell_region_scan((0.2, 0.8), (0.1, 0.375), (2, 12), r=6)
    assert set(grid.verdicts.ravel()) == {"SUBCRITICAL"}
    assert sum(solved) == 2 * 12 * len(thermo.H_CHI_LADDER)


@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=12), st.integers(0, 8))
@example(0.3, [0.5, 1.2, 0.3, 0.0, 0.49999999999999994], 8)
@example(8e-126, [0.75, 0.3], 8)  # S_0's det cancels to 0, so log|f_0'| = -inf
@example(1e-20, [1e-09], 1)  # S_0's pole is the padded domain's end: f_0 is 0/0 there
@example(0.5, [0.3, 1.2], 0)
@example(0.3, [0.5, 0.3, -0.1], 0)
@example(0.0, [0.5, 0.3], 4)
@example(1.2, [0.3], 4)
@settings(max_examples=15, deadline=None)
def test_blackwell_row_values_are_the_cell_values(eps, ps, r):
    row = apps.blackwell_row_values(eps, np.array(ps), r)
    assert described(row) == described([outcome(blackwell_cell_value, eps, p, r)
                                        for p in ps])


def test_region_csv_round_trip(tmp_path, capsys):
    cfg = tmp_path / "region.cfg"
    cfg.write_text("region.rho_range = 0.0, 0.2\nregion.lambda_range = 0.55, 0.6\n"
                   "run.grid1 = 3\nrun.grid2 = 3\nrun.moment_terms = 6\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "region", "bernoulli"]) == 0
    assert "cells: 9" in capsys.readouterr().out.splitlines()
    grid = bernoulli_region_scan((0.0, 0.2), (0.55, 0.6), (3, 3), 6)
    lines = (tmp_path / "region_bernoulli.csv").read_text().splitlines()
    assert lines[0] == "rho,lambda,value,verdict"
    assert len(lines) == 10
    assert lines[1:] == [f"{a:.12g},{b:.12g},{grid.values[i, j]:.12g},{grid.verdicts[i, j]}"
                         for i, a in enumerate(grid.axis1) for j, b in enumerate(grid.axis2)]


def test_cf_domain_fixed_points():
    lo, hi = cf_domain(0.2, 0.8)
    # fixed points of x -> (x+c)/(x+c+1)
    assert lo == pytest.approx((lo + 0.2) / (lo + 0.2 + 1))
    assert hi == pytest.approx((hi + 0.8) / (hi + 0.8 + 1))


@given(st.floats(1e-6, 2.0), st.sampled_from([0.5, 0.4142, 3.0]))
@settings(max_examples=60, deadline=None)
@example(1.607968974686162, 3.0)  # f_1(lo) - lo rounds to -1.1e-16 there
def test_cf_tail_point_on_the_domain_endpoint(alpha, gap):
    beta = alpha * 1.5 if gap == 0.5 else alpha + gap
    fam = cf_family(alpha, beta)
    exact = (math.sqrt(alpha ** 2 + 4 * alpha) - alpha) / 2
    assert fam.domain[0] == exact  # cf_domain puts the fixed point on the boundary
    slope = 1 / (exact + alpha + 1) ** 2
    tol = (ROOT_XTOL + ROOT_RTOL * exact
           + 4 * np.finfo(float).eps * exact / (1 - slope))
    assert abs(fam.at(0.0).tail_point - exact) <= tol


def test_cf_bowen_root_with_the_tail_on_the_boundary():
    fam = cf_family(1.607968974686162, 4.6079689746861625)
    assert bowen_root(fam, 0.0)["s"] == pytest.approx(0.2295064754, abs=1e-9)


def test_cf_family_audit():
    fam = cf_family(1e-4, 0.4142)
    rep = regularity_audit(fam)
    assert rep.passed
    with pytest.raises(ValueError):
        cf_family(0.0, 0.5)
    with pytest.raises(ValueError):
        cf_family(0.5, 0.3)


def test_cf_overlap_inequality():
    over, slack = cf_overlap(1e-4, 0.4142)
    assert over and slack > 0
    over2, slack2 = cf_overlap(0.5, 2.0)
    assert not over2 and slack2 < 0


def test_similarity_dimension():
    assert similarity_dimension([0.5, 0.5]) == pytest.approx(1.0, abs=1e-10)
    assert similarity_dimension([1 / 3, 1 / 3]) == pytest.approx(
        math.log(2) / math.log(3), abs=1e-10)
    assert similarity_dimension([0.9]) == 0.0
    with pytest.raises(ValueError):
        similarity_dimension([0.5, 1.1])


def test_similarity_dimension_of_an_empty_ratio_list_names_it():
    with pytest.raises(ValueError, match="ratio list is empty"):
        similarity_dimension([])

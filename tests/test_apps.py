"""Application regions: Bernoulli convolutions, Blackwell measure,
continued fractions, similarity dimension."""

import math

import numpy as np
import pytest

from hypifs import apps
from hypifs.apps import (BERNOULLI_TRANSVERSALITY_SUP,
                         bernoulli_entropy_bounds, bernoulli_family,
                         bernoulli_moments, bernoulli_region_scan,
                         blackwell_cell_value, blackwell_family,
                         blackwell_region_scan, cf_domain, cf_family,
                         cf_overlap, similarity_dimension)
from hypifs.ifs import regularity_audit


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


def test_blackwell_family_probabilities():
    fam, (p0, p1), degenerate = blackwell_family(0.3, 0.6)
    assert not degenerate
    xs = np.linspace(0, 1, 33)
    total = p0(0.6, xs) + p1(0.6, xs)
    assert np.abs(total - 1.0).max() < 1e-12
    assert regularity_audit(fam).passed


def test_blackwell_degenerate_flag():
    for eps, p in [(0.5, 0.6), (0.3, 0.5), (0.05, 0.49999999999999994),
                   (0.5 + 5e-10, 0.3)]:
        _, _, degenerate = blackwell_family(eps, p)
        assert degenerate
        with pytest.raises(ValueError):
            blackwell_cell_value(eps, p)


def test_blackwell_symmetry():
    a = blackwell_cell_value(0.35, 0.65, r=6)
    b = blackwell_cell_value(0.65, 0.65, r=6)
    assert a == pytest.approx(b, abs=1e-6)


def test_blackwell_region_scan_marks_degenerate():
    grid = blackwell_region_scan((0.4, 0.6), (0.4, 0.6), (3, 3), r=4)
    assert grid.verdicts[1, 1] == "DEGENERATE"
    assert math.isnan(grid.values[1, 1])


def test_blackwell_region_scan_half_bias_column():
    # the middle of linspace(0.05, 0.95, 3) is 0.49999999999999994
    grid = blackwell_region_scan((0.05, 0.95), (0.05, 0.95), (3, 3), r=8)
    assert list(grid.verdicts[:, 1]) == ["DEGENERATE"] * 3
    assert np.isnan(grid.values[:, 1]).all()
    assert all(v in ("SUPERCRITICAL", "SUBCRITICAL")
               for v in grid.verdicts[[0, 2]][:, [0, 2]].ravel())


def test_blackwell_region_scan_propagates_bugs(monkeypatch):
    def broken(eps, p, r):
        raise TypeError("a bug, not a numerical failure")

    monkeypatch.setattr(apps, "blackwell_cell_value", broken)
    with pytest.raises(TypeError):
        blackwell_region_scan((0.2, 0.3), (0.2, 0.3), (2, 2), r=4)


def test_region_csv_round_trip(tmp_path):
    grid = bernoulli_region_scan((0.0, 0.2), (0.55, 0.6), (3, 3), 6)
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rho,lambda,value,verdict"
    assert len(lines) == 10


def test_cf_domain_fixed_points():
    lo, hi = cf_domain(0.2, 0.8)
    # fixed points of x -> (x+c)/(x+c+1)
    assert lo == pytest.approx((lo + 0.2) / (lo + 0.2 + 1))
    assert hi == pytest.approx((hi + 0.8) / (hi + 0.8 + 1))


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

"""Certificates, greedy partitions, and the Monte-Carlo probe."""

import math

import numpy as np
import pytest

from hypifs import ifs, transversality
from hypifs.apps import blackwell_family
from hypifs.ifs import (AffineMap, IfsFamily, RationalMap, ShiftedMap, affine_map,
                        bernoulli_psi, poly)
from hypifs.transversality import (PartitionError, build_pm_translation,
                                   d_max, greedy_partition,
                                   mc_transversality_probe, overlap_domain,
                                   vertical_certificate)


def sep_base(ratio, off1, off2):
    return IfsFamily((affine_map(ratio, off1), affine_map(ratio, off2)),
                     (0.0, 1.0), (0.0, 1e-9))


def test_greedy_partition_disjoint_classes():
    ivs = [(0.0, 0.3), (0.2, 0.5), (0.45, 0.8), (0.75, 1.0)]
    plus, minus = greedy_partition(ivs)
    assert sorted(plus + minus) == [0, 1, 2, 3]
    for cls in (plus, minus):
        for a in range(len(cls)):
            for b in range(a + 1, len(cls)):
                ia, ib = ivs[cls[a]], ivs[cls[b]]
                assert max(ia[0], ib[0]) > min(ia[1], ib[1])


def test_greedy_partition_triple_cover_fails():
    with pytest.raises(PartitionError) as exc:
        greedy_partition([(0.0, 0.5), (0.1, 0.6), (0.2, 0.7)])
    assert exc.value.witness is not None


def test_greedy_partition_validation():
    with pytest.raises(ValueError):
        greedy_partition([])
    with pytest.raises(ValueError):
        greedy_partition([(0.5, 0.2)])


def test_build_pm_translation_shrinks_halfwidth():
    base = sep_base(0.3, 0.2, 0.4)
    tf = build_pm_translation(base, 0.0, 0.5)
    lo, hi = tf.param_interval
    assert hi <= 0.5 and hi > 0
    assert lo == -hi
    assert [type(mp) for mp in tf.maps] == [ShiftedMap, ShiftedMap]
    assert [mp.base for mp in tf.maps] == list(base.maps)


@pytest.mark.parametrize("halfwidth", [0.05, 1e4])
def test_build_pm_translation_raises_where_no_halfwidth_is_valid(halfwidth):
    # the Cantor cylinders touch the domain ends: no shift keeps them inside;
    # 60 halvings of 1e4 stop at 8.7e-15, which was never checked
    cantor = sep_base(1 / 3, 0.0, 2 / 3)
    with pytest.raises(ValueError, match="achieves invariance"):
        build_pm_translation(cantor, 0.0, halfwidth)


def test_build_pm_translation_halves_a_large_halfwidth():
    tf = build_pm_translation(sep_base(0.3, 0.2, 0.4), 0.0, 1e4)
    assert tf.param_interval == (-1e4 / 2 ** 16, 1e4 / 2 ** 16)


def test_overlap_domain_detects_overlap():
    base = sep_base(0.3, 0.2, 0.4)
    tf = build_pm_translation(base, 0.0, 0.05)
    assert overlap_domain(tf, 1, 2) is not None
    with pytest.raises(ValueError):
        overlap_domain(tf, 1, 1)


def test_overlap_domain_none_when_separated():
    base = sep_base(0.1, 0.05, 0.85)
    tf = build_pm_translation(base, 0.0, 0.01)
    assert overlap_domain(tf, 1, 2) is None


def test_d_max_formula():
    base = sep_base(0.3, 0.2, 0.4)
    tf = build_pm_translation(base, 0.0, 0.05)
    # |a'| = 1, sup|f'| = 0.3 -> D_max = 1/0.7
    assert d_max(tf) == pytest.approx(1.0 / 0.7, rel=1e-9)


def test_certificate_cond1_ratio_03():
    tf = build_pm_translation(sep_base(0.3, 0.2, 0.4), 0.0, 0.05)
    rep = vertical_certificate(tf)
    assert rep.verdict == "CERTIFIED-cond1"
    # eta = |1 - (-1)| = 2, D_max = 1/0.7, margin = 2 - 0.6/0.7
    assert rep.pairs[0].margin1 == pytest.approx(2.0 - 0.6 / 0.7, rel=1e-9)


def test_certificate_inconclusive_ratio_06():
    tf = build_pm_translation(sep_base(0.6, 0.1, 0.3), 0.0, 0.05)
    rep = vertical_certificate(tf)
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.pairs[0].margin1 < 0


def test_certificate_needs_a_translation_family():
    tf = build_pm_translation(sep_base(0.3, 0.2, 0.4), 0.0, 0.05)
    mixed = IfsFamily((tf.maps[0], affine_map(0.3, 0.4)), tf.domain, tf.param_interval)
    with pytest.raises(ValueError, match=r"map 2 \(AffineMap\) is not a ShiftedMap"):
        vertical_certificate(mixed)
    with pytest.raises(ValueError, match="not a ShiftedMap"):
        overlap_domain(sep_base(0.3, 0.2, 0.4), 1, 2)


def test_certificate_vacuous_when_no_overlap():
    tf = build_pm_translation(sep_base(0.1, 0.05, 0.85), 0.0, 0.01)
    rep = vertical_certificate(tf)
    assert rep.verdict == "CERTIFIED-cond1"
    assert rep.pairs == []


def test_probe_falsifies_identical_maps():
    fam = IfsFamily((affine_map(0.5, 0.25), affine_map(0.5, 0.25)),
                    (0.0, 1.0), (0.4, 0.6))
    rep = mc_transversality_probe(fam, samples=2000, depth=30, seed=1)
    assert rep.verdict == "FALSIFIED"
    u, v, lam = rep.witness
    assert u[0] != v[0]


def test_probe_deterministic_and_inconclusive():
    fam = IfsFamily((bernoulli_psi(0), bernoulli_psi(1)),
                    (-1.0, 1.0), (0.5, 0.66))
    a = mc_transversality_probe(fam, samples=500, depth=25, seed=42)
    b = mc_transversality_probe(fam, samples=500, depth=25, seed=42)
    assert a.verdict == "INCONCLUSIVE"
    assert a.empirical_eta == b.empirical_eta
    assert a.n_events == b.n_events


@pytest.mark.parametrize("samples, depth, lam_grid, name", [
    pytest.param(0, 10, 17, "sample", id="0-10"),
    pytest.param(10, 0, 17, "depth", id="10-0"),
    pytest.param(10, -1, 17, "depth", id="10--1"),
    pytest.param(10, 10, 0, "lam_grid", id="10-10-0"),
    pytest.param(10, 10, -1, "lam_grid", id="10-10--1"),
])
def test_probe_rejects_empty_word_batches(samples, depth, lam_grid, name):
    fam = IfsFamily((bernoulli_psi(0), bernoulli_psi(1)),
                    (-1.0, 1.0), (0.5, 0.66))
    with pytest.raises(ValueError, match=name):
        mc_transversality_probe(fam, samples=samples, depth=depth, lam_grid=lam_grid)


def masked_project_words(fam, words, lam, x0):
    """`ifs.project_words` by the per-symbol masked pass: at each position
    the rows that carry symbol j go through frozen map j's value, dx and
    dlam, as for families that are not all affine."""
    k, n = words.shape
    maps = fam.at(lam).maps
    x, d = np.full(k, x0, dtype=float), np.zeros(k)
    for pos in range(n - 1, -1, -1):
        col = words[:, pos]
        for j, mp in enumerate(maps, 1):
            mask = col == j
            xm = x[mask]
            d[mask] = mp.dlam(xm) + mp.dx(xm) * d[mask]
            x[mask] = mp.value(xm)
    return x, d


def test_gathered_affine_pass_matches_masked_pass(monkeypatch):
    """The Bernoulli family and a family of two identical maps, as in the
    mc-probe benchmark: Pi and d/dlam Pi of 10,000 words of depth 40, and
    the probe reports, are bit-identical to the masked pass."""
    psi = bernoulli_psi(0)
    families = [(IfsFamily((psi, bernoulli_psi(1)), (-1.0, 1.0), (0.5, 0.66)), 10000),
                (IfsFamily((psi, psi), (-1.0, 1.0), (0.5, 0.66)), 2000)]
    words = np.random.default_rng(7).integers(1, 3, size=(10000, 40))
    starts = np.random.default_rng(8).uniform(-1.0, 1.0, size=len(words))
    for fam, _ in families:
        for lam in (0.5, 0.58, 0.66):
            for x0 in (fam.midpoint, starts):
                got = ifs.project_words(fam, words, lam, x0)
                ref = masked_project_words(fam, words, lam, x0)
                assert got[0].tobytes() == ref[0].tobytes()
                assert got[1].tobytes() == ref[1].tobytes()

    def reports():
        return [(rep.verdict, rep.n_events, rep.empirical_eta, rep.witness)
                for fam, samples in families for seed in (3, 11)
                for rep in [mc_transversality_probe(fam, samples=samples, depth=40, seed=seed)]]

    gathered = reports()
    monkeypatch.setattr(transversality, "project_words", masked_project_words)
    assert gathered == reports()
    assert [r[0] for r in gathered] == ["INCONCLUSIVE"] * 2 + ["FALSIFIED"] * 2


def test_probe_distinct_first_symbols_forced():
    fam = IfsFamily((bernoulli_psi(0), bernoulli_psi(1)),
                    (-1.0, 1.0), (0.5, 0.66))
    rep = mc_transversality_probe(fam, samples=100, depth=10, seed=0)
    assert rep.n_samples == 100 * 17


def test_report_lines_cover_fields():
    tf = build_pm_translation(sep_base(0.3, 0.2, 0.4), 0.0, 0.05)
    rep = vertical_certificate(tf)
    text = "\n".join(rep.lines())
    assert "verdict: CERTIFIED-cond1" in text
    assert "d_max" in text and "margin1" in text


def _constant_at(mp, lam):
    """`mp` with every coefficient curve replaced by its value at `lam`."""
    if isinstance(mp, AffineMap):
        return AffineMap(poly(mp.slope(lam)), poly(mp.offset(lam)))
    return RationalMap(*(poly(c(lam)) for c in (mp.n0, mp.n1, mp.d0, mp.d1)))


@pytest.mark.parametrize("base, lam0, halfwidth", [
    (IfsFamily((affine_map(poly(0.2, 0.2), poly(0.1, 0.2)),
                affine_map(poly(0.3, -0.1), poly(0.45, 0.1))), (0.0, 1.0), (0.0, 1.0)),
     0.5, 0.05),
    (blackwell_family(0.2, 0.3)[0], 0.3, 0.01),
])
def test_certificate_evaluates_base_maps_at_lam0(base, lam0, halfwidth):
    frozen = IfsFamily(tuple(_constant_at(mp, lam0) for mp in base.maps),
                       base.domain, base.param_interval)
    tf = build_pm_translation(base, lam0, halfwidth)
    tf_frozen = build_pm_translation(frozen, lam0, halfwidth)
    assert tf.param_interval == tf_frozen.param_interval
    assert vertical_certificate(tf).lines() == vertical_certificate(tf_frozen).lines()

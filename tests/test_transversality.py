"""Certificates, greedy partitions, and the Monte-Carlo probe."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypifs import ifs, transversality
from hypifs.apps import blackwell_family, cf_family
from hypifs.ifs import (AffineMap, CustomMap, IfsFamily, RationalMap, ShiftedMap,
                        affine_map, bernoulli_psi, poly)
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


def masked_over_lams(fam, words, lams, x0, dlam=True):
    """`masked_project_words` at each lambda of a 1-D array, stacked to
    (L, k) as `ifs.project_words` returns them, d None unless `dlam`."""
    pairs = [masked_project_words(fam, words, lam, x0) for lam in lams]
    return np.array([x for x, _ in pairs]), np.array([d for _, d in pairs]) if dlam else None


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
    monkeypatch.setattr(transversality, "project_words", masked_over_lams)
    assert gathered == reports()
    assert [r[0] for r in gathered] == ["INCONCLUSIVE"] * 2 + ["FALSIFIED"] * 2


def probe_words(fam, samples, depth, seed):
    """The word arrays (u, v) that `mc_transversality_probe` draws at `seed`."""
    rng = np.random.default_rng(seed)
    u = rng.integers(1, fam.m + 1, size=(samples, depth))
    v = rng.integers(1, fam.m + 1, size=(samples, depth))
    clash = u[:, 0] == v[:, 0]
    v[clash, 0] = 1 + (v[clash, 0] % fam.m)
    return u, v


def per_lambda_probe(fam, samples, depth, seed, lam_grid=17):
    """`mc_transversality_probe` as one pass over every pair at each lambda
    of the grid in turn, with `project_words` at one lambda: the report's
    (verdict, n_events, empirical_eta, witness, n_samples), and the
    (lambda index, first bad row) of every lambda with a bad pair."""
    eta0 = transversality.NEAR_COLLISION_REL * fam.diam
    falsify_phi_tol = transversality.FALSIFY_PHI_REL * fam.diam
    u, v = probe_words(fam, samples, depth, seed)
    emp_eta, events, witness, firsts = math.inf, 0, None, []
    for i, lam in enumerate(np.linspace(*fam.param_interval, lam_grid)):
        pu, du = ifs.project_words(fam, u, lam, fam.midpoint)
        pv, dv = ifs.project_words(fam, v, lam, fam.midpoint)
        phi, dphi = pu - pv, du - dv
        near = np.abs(phi) < eta0
        events += int(near.sum())
        if near.any():
            emp_eta = min(emp_eta, float(np.abs(dphi[near]).min()))
            bad = near & (np.abs(phi) < falsify_phi_tol) & \
                (np.abs(dphi) < transversality.FALSIFY_DPHI_TOL)
            if bad.any():
                k = int(np.argmax(bad))
                firsts.append((i, k))
                if witness is None:
                    witness = (tuple(u[k]), tuple(v[k]), float(lam))
    verdict = "FALSIFIED" if witness is not None else "INCONCLUSIVE"
    return (verdict, events, emp_eta, witness, samples * lam_grid), firsts


def _fields(rep):
    return rep.verdict, rep.n_events, rep.empirical_eta, rep.witness, rep.n_samples


def rare_witness_family():
    """60 maps of slope 1e-12 on [0, 1], so Phi is the offset difference
    of the first symbols.  Symbols 1 and 2 meet at lambda = 0.25 only, with
    d/dlam Phi = -1e-7, a rare bad pair; symbols 3..12 meet pairwise at
    lambda = 0.75 only, a common one; the rest are 0.01 apart."""
    tiny = 1e-12
    maps = [affine_map(tiny, poly(0.05 - 0.25e-7, 1e-7)), affine_map(tiny, 0.05)]
    maps += [affine_map(tiny, poly(0.02 - 0.75e-7 * k, 1e-7 * k)) for k in range(10)]
    maps += [affine_map(tiny, 0.1 + 0.01 * k) for k in range(48)]
    return IfsFamily(tuple(maps), (0.0, 1.0), (0.0, 1.0))


def _callback_copy(fam):
    """`fam` with every map behind a CustomMap of its value, dx and dlam."""
    return IfsFamily(tuple(CustomMap(mp.value, mp.dx, mp.dlam) for mp in fam.maps),
                     fam.domain, fam.param_interval)


PROBE_REF_FAMILIES = {
    "bernoulli": IfsFamily((bernoulli_psi(0), bernoulli_psi(1)), (-1.0, 1.0), (0.5, 0.66)),
    "identical": IfsFamily((bernoulli_psi(0), bernoulli_psi(0)), (-1.0, 1.0), (0.5, 0.66)),
    "moebius": cf_family(0.5, 2.0, 0.1),
    "moebius-overlap": cf_family(0.01, 0.05, 0.05),
    "rare-witness": rare_witness_family(),
    "translation": build_pm_translation(sep_base(0.6, 0.1, 0.3), 0.0, 0.05),
    "custom": _callback_copy(IfsFamily((bernoulli_psi(0), bernoulli_psi(1)),
                                       (-1.0, 1.0), (0.5, 0.66))),
}


@pytest.mark.parametrize("samples", [1, 1500, 2500])
@pytest.mark.parametrize("seed", [4, 9])
@pytest.mark.parametrize("fam", PROBE_REF_FAMILIES.values(), ids=PROBE_REF_FAMILIES)
def test_probe_matches_per_lambda_reference(fam, seed, samples):
    """Pair chunks over the whole lambda grid give the report of one pass
    over every pair per lambda, at sample counts that are not a multiple
    of the chunk size."""
    ref, _ = per_lambda_probe(fam, samples, 20, seed)
    assert _fields(mc_transversality_probe(fam, samples=samples, depth=20, seed=seed)) == ref


def recording(monkeypatch):
    """Every `project_words` call of the probe, as (words, L, dlam, x)."""
    calls = []

    def record(fam, words, lams, x0, dlam=True):
        x, d = ifs.project_words(fam, words, lams, x0, dlam=dlam)
        calls.append((words, len(lams), dlam, x))
        return x, d

    monkeypatch.setattr(transversality, "project_words", record)
    return calls


def probe_blocks(rows):
    """`rows` in the probe's blocks of PROBE_CHUNK entries."""
    chunk = transversality.PROBE_CHUNK
    return [rows[r0:r0 + chunk] for r0 in range(0, len(rows), chunk)]


def distinct_prefixes(u, v):
    """The distinct first K symbols of the rows of u and of v, in
    lexicographic order."""
    K = transversality.PREFIX_SYMBOLS
    return np.unique(np.concatenate((u[:, :K], v[:, :K])), axis=0)


@pytest.mark.parametrize("name", ["bernoulli", "moebius", "moebius-overlap", "custom"])
def test_probe_screens_row_chunks_over_the_whole_grid(monkeypatch, name):
    """Every family's pairs go through `project_words` over the whole
    lambda grid, the gathered affine pass and the masked pass alike.
    Where the prefix screen applies, the first call composes the distinct
    K-prefixes of u and of v, each once, with dlam=False, and the pairs
    with |Phi_K| below the limit at some lambda go on; a CustomMap
    family's pairs all go on.  Those pairs, pooled over the sample, are
    screened PROBE_CHUNK rows at a time, u's rows and then v's with
    dlam=False at full depth.  The near pairs, pooled too, then take one
    full call per PROBE_CHUNK rows on the same grid, on the rows of u
    followed by the same rows of v."""
    fam = PROBE_REF_FAMILIES[name]
    samples, depth, K = 1500, 20, transversality.PREFIX_SYMBOLS
    eta0 = transversality.NEAR_COLLISION_REL * fam.diam
    u, v = probe_words(fam, samples, depth, 1)
    lams = np.linspace(*fam.param_interval, 17)
    limits = transversality._prefix_limits(fam, lams, depth, eta0)
    assert (limits is None) == (name == "custom")
    calls = recording(monkeypatch)
    mc_transversality_probe(fam, samples=samples, depth=depth, seed=1)
    calls, rows = iter(calls), np.arange(samples)
    if limits is not None:
        words, L, dlam, _ = next(calls)
        assert np.array_equal(words, distinct_prefixes(u, v))
        assert len(words) <= min(fam.m ** K, 2 * samples) and (L, dlam) == (17, False)
        (pu, _), (pv, _) = (ifs.project_words(fam, w[:, :K], lams, fam.midpoint, dlam=False)
                            for w in (u, v))
        rows = rows[(np.abs(pu - pv) < limits[:, None]).any(axis=0)]
    kept, hit = len(rows), [rows[:0]]
    for block in probe_blocks(rows):
        (wu, L, dlam, xu), (wv, Lv, dlam_v, xv) = next(calls), next(calls)
        assert np.array_equal(wu, u[block]) and np.array_equal(wv, v[block])
        assert (L, dlam, Lv, dlam_v) == (17, False, 17, False)
        hit.append(block[(np.abs(xu - xv) < eta0).any(axis=0)])
    if name == "bernoulli":  # the survivors of both blocks of the sample share a call
        assert rows[0] < transversality.PROBE_CHUNK <= rows[-1]
        assert len(probe_blocks(rows)) == 1
    for block in probe_blocks(np.concatenate(hit)):
        words, L, dlam, _ = next(calls)
        assert np.array_equal(words, np.concatenate((u[block], v[block])))
        assert (L, dlam) == (17, True)
    assert next(calls, None) is None
    assert (kept < samples) == (limits is not None)


@pytest.mark.parametrize("name, samples, depth, seed, screen_rows, full_rows", [
    ("identical", 1500, 30, 1, 2 * 1500, 2 * 1500),
    ("moebius", 3000, 30, 4, 0, 0),
], ids=["identical", "moebius"])
def test_probe_composes_dlam_on_near_rows_only(monkeypatch, name, samples, depth, seed,
                                               screen_rows, full_rows):
    """The prefix screen composes each distinct K-prefix once.  Where
    every pair collides, it drops none, and the x-only screen and the full
    pass receive every row of u and of v, PROBE_CHUNK pairs a call; where
    none comes near, it drops every pair and the later passes receive
    none."""
    fam = PROBE_REF_FAMILIES[name]
    calls = recording(monkeypatch)
    rep = mc_transversality_probe(fam, samples=samples, depth=depth, seed=seed)
    K = transversality.PREFIX_SYMBOLS
    [table_rows] = [len(w) for w, *_ in calls if w.shape[1] == K]
    assert table_rows == len(distinct_prefixes(*probe_words(fam, samples, depth, seed)))
    assert table_rows <= min(fam.m ** K, 2 * samples)
    screens = [len(w) for w, _, dlam, _ in calls if w.shape[1] == depth and not dlam]
    fulls = [len(w) for w, _, dlam, _ in calls if dlam]
    assert sum(screens) == screen_rows and sum(fulls) == full_rows
    assert screens == [len(b) for b in probe_blocks(range(screen_rows // 2)) for _ in "uv"]
    assert fulls == [2 * len(b) for b in probe_blocks(range(full_rows // 2))]
    assert (rep.n_events == 0) == (full_rows == 0)


def test_probe_whose_prefix_screen_drops_every_pair():
    """A probe whose prefix screen keeps no pair in any block reports no
    near-collision and no witness, the per-lambda reference's report."""
    fam = PROBE_REF_FAMILIES["moebius"]
    for samples in (1, 1500, 3000):
        lams = np.linspace(*fam.param_interval, 17)
        eta0 = transversality.NEAR_COLLISION_REL * fam.diam
        limits = transversality._prefix_limits(fam, lams, 30, eta0)
        u, v = probe_words(fam, samples, 30, 4)
        K = transversality.PREFIX_SYMBOLS
        (pu, _), (pv, _) = (ifs.project_words(fam, w[:, :K], lams, fam.midpoint, dlam=False)
                            for w in (u, v))
        assert (np.abs(pu - pv) >= limits[:, None]).all()
        rep = mc_transversality_probe(fam, samples=samples, depth=30, seed=4)
        ref, _ = per_lambda_probe(fam, samples, 30, 4)
        assert _fields(rep) == ref == ("INCONCLUSIVE", 0, math.inf, None, 17 * samples)


def wide_family(m):
    """m affine maps of slope 0.002, their offsets spread over [0.001,
    0.991]: every condition of the prefix bound holds, whatever m."""
    return IfsFamily(tuple(affine_map(0.002, 0.001 + 0.99 * k / (m - 1)) for k in range(m)),
                     (0.0, 1.0), (0.0, 1.0))


UNSCREENED_FAMILIES = {
    "custom": (PROBE_REF_FAMILIES["custom"], 20),
    "shifted": (PROBE_REF_FAMILIES["translation"], 20),
    # f_2(X) = [0.5001, 1.0001] leaves X' = [-1e-6, 1 + 1e-6]
    "escaping": (IfsFamily((affine_map(0.5, 0.0), affine_map(0.5, 0.5001)),
                           (0.0, 1.0), (0.0, 1.0)), 20),
    "gamma-one": (IfsFamily((affine_map(1.0, 0.0), affine_map(0.5, poly(0.25, 0.1))),
                            (0.0, 1.0), (0.0, 1.0)), 20),
    # x / (x + 5e-7): the pole -5e-7 lies in X' but not in X
    "pole": (IfsFamily((RationalMap(poly(0.0), poly(1.0), poly(5e-7), poly(1.0)),
                        affine_map(0.5, poly(0.25, 0.1))), (0.0, 1.0), (0.0, 1.0)), 20),
    # x / (x + 1e-6): the pole sits on the left end of X'
    "pole-at-end": (IfsFamily((RationalMap(poly(0.0), poly(1.0), poly(1e-6), poly(1.0)),
                               affine_map(0.5, poly(0.25, 0.1))), (0.0, 1.0), (0.0, 1.0)), 20),
    "short": (PROBE_REF_FAMILIES["bernoulli"], transversality.PREFIX_SYMBOLS),
    # 235^8 > 2^63: an int64 prefix code could wrap
    "wide": (wide_family(235), 20),
}


@pytest.mark.parametrize("name", UNSCREENED_FAMILIES)
def test_probe_screens_every_row_where_the_prefix_bound_does_not_apply(monkeypatch, name):
    """CustomMap and ShiftedMap families, a family whose X' is not
    invariant, one with Gamma = 1, ones with a pole inside X' or at its
    end, words no longer than K, and an alphabet with m^K >= 2^63 send
    every row of u and of v to the x-only screen."""
    fam, depth = UNSCREENED_FAMILIES[name]
    lams = np.linspace(*fam.param_interval, 17)
    assert transversality._prefix_limits(fam, lams, depth, 1e-3 * fam.diam) is None
    calls = recording(monkeypatch)
    mc_transversality_probe(fam, samples=1500, depth=depth, seed=2)
    screens = [len(w) for w, _, dlam, _ in calls if not dlam]
    assert screens == [1024, 1024, 476, 476]
    assert all(w.shape[1] == depth for w, *_ in calls)


def test_prefix_limit_is_eta0_plus_twice_the_lipschitz_width_plus_slack():
    """For the Bernoulli family Gamma = lambda, and the limit is eta0 +
    2 lambda^K (|X|/2 + delta) plus a slack between its floor
    PREFIX_SLACK_REL |X| and twice that."""
    fam = PROBE_REF_FAMILIES["bernoulli"]
    lams = np.linspace(*fam.param_interval, 17)
    eta0 = transversality.NEAR_COLLISION_REL * fam.diam
    limits = transversality._prefix_limits(fam, lams, 40, eta0)
    half_width = 0.5 * fam.diam + transversality.PREFIX_PAD_REL * fam.diam
    slack = limits - eta0 - 2 * lams ** transversality.PREFIX_SYMBOLS * half_width
    floor = transversality.PREFIX_SLACK_REL * fam.diam
    assert np.all(slack >= floor) and np.all(slack <= 2 * floor)


def test_prefix_limit_keeps_a_pair_whose_tails_sit_at_opposite_ends():
    """u = 1 2^(n-1) and v = 2 1^(n-1) collide at lambda = 1/2: Phi = -2^(1-n).
    Their tails sit near -1 and +1, so |Phi_K| = 2^(1-K) (1 - 2^(K-n)) is
    within 2 Gamma^K |X|/2 of Phi but above eta0 + Gamma^K |X|/2: the
    factor 2 of the limit is what keeps the pair."""
    fam = IfsFamily(PROBE_REF_FAMILIES["bernoulli"].maps, (-1.0, 1.0), (0.5, 0.5))
    n, K = 40, transversality.PREFIX_SYMBOLS
    eta0 = transversality.NEAR_COLLISION_REL * fam.diam
    words = np.array([[1] + [2] * (n - 1), [2] + [1] * (n - 1)])
    (x_u, x_v), _ = ifs.project_words(fam, words, 0.5, fam.midpoint, dlam=False)
    (k_u, k_v), _ = ifs.project_words(fam, words[:, :K], 0.5, fam.midpoint, dlam=False)
    assert abs(x_u - x_v) < eta0
    [limit] = transversality._prefix_limits(fam, np.array([0.5]), n, eta0)
    assert eta0 + 0.5 ** K * fam.diam / 2 < abs(k_u - k_v) < limit


@st.composite
def screened_families(draw):
    """A family on X = [0, 1] over lambda in [0, 1] that the prefix screen
    applies to.  Either 2-4 affine or Moebius maps, each onto [p, p + w] of
    X, increasing or decreasing, p linear in lambda and w in [0.2, 0.45],
    so that cylinders may overlap; or a planted witness: 3-5 maps of slope
    1e-12 whose first two offsets cross at a grid lambda with d/dlam Phi =
    1e-7, the other offsets anywhere in X."""
    kind = draw(st.sampled_from(["affine", "moebius", "planted"]))
    unit = st.floats(0.0, 1.0)
    if kind == "planted":
        c, lam_i = draw(st.floats(0.1, 0.9)), draw(st.integers(0, 16)) / 16
        maps = [affine_map(1e-12, poly(c - 1e-7 * lam_i, 1e-7)), affine_map(1e-12, c)]
        maps += [affine_map(1e-12, draw(unit) * 0.999)
                 for _ in range(draw(st.integers(1, 3)))]
        return kind, IfsFamily(tuple(maps), (0.0, 1.0), (0.0, 1.0))
    maps = []
    for _ in range(draw(st.integers(2, 4))):
        w = draw(st.floats(0.2, 0.45))
        p0, p1 = draw(unit) * (1 - w), draw(unit) * (1 - w)
        p = (p0, p1 - p0)  # p(lam) = p0 + (p1 - p0) lam
        sign = draw(st.sampled_from([1.0, -1.0]))
        lo = (p[0] + w * (sign < 0), p[1])  # the image of x = 0
        if kind == "affine":
            maps.append(affine_map(sign * w, poly(*lo)))
            continue
        # p + w g(x) or p + w (1 - g(x)), g(x) = x / (1 + k - k x) onto [0, 1],
        # |f'| <= w max(1 + k, 1 / (1 + k)) < 0.77
        k = draw(st.floats(-0.35, 0.7))
        maps.append(RationalMap(poly(*((1 + k) * c for c in lo)),
                                poly(sign * w - k * lo[0], -k * lo[1]),
                                poly(1 + k), poly(-k)))
    return kind, IfsFamily(tuple(maps), (0.0, 1.0), (0.0, 1.0))


@given(screened_families(), st.integers(1, 1500),
       st.integers(transversality.PREFIX_SYMBOLS + 1, 24), st.integers(0, 2 ** 16))
@settings(max_examples=30, deadline=None)
def test_prefix_screen_drops_no_near_pair(case, samples, depth, seed):
    """The screened report is the per-lambda reference's, bit for bit, and
    every pair the prefix screen drops, composed to full depth, has
    |Phi| >= eta0 at every lambda."""
    kind, fam = case
    ref, _ = per_lambda_probe(fam, samples, depth, seed)
    assert _fields(mc_transversality_probe(fam, samples=samples, depth=depth, seed=seed)) == ref
    u, v = probe_words(fam, samples, depth, seed)
    if kind == "planted" and (u[:, 0] + v[:, 0] == 3).any():  # first symbols 1 and 2
        assert ref[0] == "FALSIFIED"
    lams = np.linspace(*fam.param_interval, 17)
    eta0 = transversality.NEAR_COLLISION_REL * fam.diam
    limits = transversality._prefix_limits(fam, lams, depth, eta0)
    assert limits is not None
    K = transversality.PREFIX_SYMBOLS
    (pu, _), (pv, _) = (ifs.project_words(fam, w[:, :K], lams, fam.midpoint, dlam=False)
                        for w in (u, v))
    dropped = (np.abs(pu - pv) >= limits[:, None]).all(axis=0)
    (pu, _), (pv, _) = (ifs.project_words(fam, w[dropped], lams, fam.midpoint, dlam=False)
                        for w in (u, v))
    assert not (np.abs(pu - pv) < eta0).any()


def check_prefix_table(fam, u, v):
    """`_prefix_table` on (u, v) has one column per distinct K-prefix, and
    the columns it gives each row of u and of v are `project_words` of that
    row's prefix, bit for bit."""
    K = transversality.PREFIX_SYMBOLS
    lams = np.linspace(*fam.param_interval, 17)
    table, iu, iv = transversality._prefix_table(fam, lams, u, v)
    assert table.shape == (17, len(distinct_prefixes(u, v)))
    for words, columns in ((u, iu), (v, iv)):
        ref, _ = ifs.project_words(fam, words[:, :K], lams, fam.midpoint, dlam=False)
        assert table.take(columns, axis=1).tobytes() == ref.tobytes()


@given(st.one_of(screened_families(), st.just(("rare-witness", rare_witness_family()))),
       st.integers(1, 3000), st.integers(transversality.PREFIX_SYMBOLS, 24),
       st.integers(0, 2 ** 16))
@settings(max_examples=30, deadline=None)
def test_prefix_table_gathers_the_per_row_compositions(case, samples, depth, seed):
    """Phi_K read from the table of distinct prefixes is the per-row
    composition's, on the screened families and on the 60-map rare-witness
    family, where nearly every prefix is distinct."""
    _, fam = case
    check_prefix_table(fam, *probe_words(fam, samples, depth, seed))


def test_prefix_codes_of_the_widest_screened_alphabet_do_not_wrap():
    """234^8 < 2^63 <= 235^8: the prefix screen applies to 234 maps and
    not to 235, and at 234 maps the least and the greatest prefix codes,
    0 and 234^8 - 1, read their own columns."""
    K = transversality.PREFIX_SYMBOLS
    lams = np.linspace(0.0, 1.0, 17)
    assert transversality._prefix_limits(wide_family(234), lams, 20, 1e-3) is not None
    assert transversality._prefix_limits(wide_family(235), lams, 20, 1e-3) is None
    fam = wide_family(234)
    u, v = probe_words(fam, 50, 12, 0)
    u[0, :K], u[1, :K], v[0, :K] = 1, 234, [234] * (K - 1) + [233]
    check_prefix_table(fam, u, v)


def test_prefix_table_of_a_wide_alphabet_is_composed_in_chunks(monkeypatch):
    """With 60 maps nearly every prefix is distinct: the table takes one
    x-only call per PROBE_CHUNK distinct prefixes, not one call on them all."""
    fam = rare_witness_family()
    calls = recording(monkeypatch)
    mc_transversality_probe(fam, samples=1500, depth=12, seed=3)
    K, chunk = transversality.PREFIX_SYMBOLS, transversality.PROBE_CHUNK
    table = [w for w, *_ in calls if w.shape[1] == K]
    prefixes = distinct_prefixes(*probe_words(fam, 1500, 12, 3))
    assert [len(w) for w in table] == [len(b) for b in probe_blocks(prefixes)]
    assert len(table) > 1 and np.array_equal(np.concatenate(table), prefixes)


@pytest.mark.parametrize("callbacks", [False, True], ids=["affine", "custom"])
@pytest.mark.parametrize("seed", [2, 3, 9])
def test_probe_witness_past_the_first_chunk(seed, callbacks):
    """The witness is the first bad pair at the first lambda that has one,
    though it lies past the first chunk and that chunk has bad pairs at a
    later lambda: for the affine family, through the gathered pass, and
    for its CustomMap copy, through the masked pass."""
    fam = rare_witness_family()
    if callbacks:
        fam = _callback_copy(fam)
    ref, firsts = per_lambda_probe(fam, 2500, 5, seed)
    (_, row), later = firsts[0], firsts[1:]
    assert ref[3][2] == 0.25 and row >= transversality.PROBE_CHUNK
    assert any(k < transversality.PROBE_CHUNK for _, k in later)
    assert _fields(mc_transversality_probe(fam, samples=2500, depth=5, seed=seed)) == ref


def test_witness_words_print_separated_symbols_from_ten_maps():
    rep = mc_transversality_probe(rare_witness_family(), samples=2500, depth=5, seed=2)
    u, v, lam = rep.witness
    assert max(u + v) >= 10
    line = [ln for ln in rep.lines() if ln.startswith("witness:")][0]
    assert line == (f"witness: u={','.join(map(str, u))} v={','.join(map(str, v))} "
                    f"lambda={lam:.12g}")
    # fewer than ten maps: the symbols print with no separator, as before
    rep = dataclasses.replace(rep, alphabet_size=9)
    assert f"u={''.join(map(str, u))} " in "\n".join(rep.lines())


def test_probe_distinct_first_symbols_forced():
    fam = IfsFamily((bernoulli_psi(0), bernoulli_psi(1)),
                    (-1.0, 1.0), (0.5, 0.66))
    rep = mc_transversality_probe(fam, samples=100, depth=10, seed=0)
    assert rep.n_samples == 100 * 17


def test_probe_counts_no_near_collision_where_phi_is_nan(monkeypatch):
    """A pair whose Phi is NaN at every lambda passes every screen, whose
    test |Phi_k| >= limit a NaN fails, and reaches the full pass, where it
    is no near-collision: the report is that of a family with no near pair."""
    nan_map = CustomMap(lambda lam, x: np.nan * x, lambda lam, x: 0.5 + 0 * x,
                        lambda lam, x: 0 * x)
    fam = IfsFamily((affine_map(0.5, 0.0), nan_map), (0.0, 1.0), (0.0, 1.0))
    calls = recording(monkeypatch)
    rep = mc_transversality_probe(fam, samples=50, depth=10, seed=0, lam_grid=3)
    assert [dlam for _, _, dlam, _ in calls] == [False, False, True]
    assert _fields(rep) == ("INCONCLUSIVE", 0, math.inf, None, 150)


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

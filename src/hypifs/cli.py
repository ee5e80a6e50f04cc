"""Configuration-driven command-line front end.

Exit codes: 0 success, 1 invalid config, 2 numerical failure or audit
FAIL (and argparse's usage errors), 3 falsified transversality.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import __version__
from .apps import (BERNOULLI_TRANSVERSALITY_SUP, NUMERICAL_ERRORS,
                   bernoulli_family, bernoulli_potential,
                   bernoulli_region_scan, blackwell_family,
                   blackwell_region_scan, cf_family, cf_overlap,
                   similarity_dimension)
from .config import ConfigError, as_floats, as_pair, as_pairs, load_config
from .ifs import IfsFamily, affine_map, natural_projection, regularity_audit
from .mstats import (chaos_game_sample, correlation_dimension, energy,
                     m_condition_probe, sobolev_estimate)
from .thermo import (bowen_root, constant_bernoulli_potential,
                     entropy, gibbs_cylinder_measure, log_probability_potential,
                     lyapunov_exponent, pressure, pressure_bracket,
                     pressure_drop_check,
                     t_log_derivative_potential, transfer_spectrum)
from .transversality import (build_pm_translation, greedy_partition,
                             mc_transversality_probe, vertical_certificate)
from .words import enumerate_words


def build_family(cfg) -> IfsFamily:
    kind = cfg.get("family.kind")
    if kind == "affine":
        ratios = cfg.read("family.ratios", as_floats)
        offsets = cfg.read("family.offsets", as_floats)
        if len(ratios) != len(offsets):
            raise ConfigError("ratios and offsets must have equal length")
        dom = cfg.read("family.domain", as_pair, [0.0, 1.0])
        interval = cfg.read("family.param_interval", as_pair, [0.0, 1e-9])
        maps = tuple(affine_map(a, b) for a, b in zip(ratios, offsets))
        return IfsFamily(maps, dom, interval)
    if kind == "bernoulli":
        return bernoulli_family(cfg.read("family.param_interval", as_pair,
                                         [0.5, BERNOULLI_TRANSVERSALITY_SUP]))
    if kind == "blackwell":
        fam, _ = blackwell_family(cfg.read("family.eps", float),
                                  cfg.read("family.p", float))
        return fam
    if kind == "cf":
        return cf_family(cfg.read("family.alpha", float),
                         cfg.read("family.beta", float),
                         cfg.read("family.lam_halfwidth", float, 0.0))
    raise ConfigError(f"unknown family kind {kind!r}")


def build_potential(cfg, fam):
    kind = cfg.get("potential.kind", "tlog")
    if kind == "constant":
        return constant_bernoulli_potential(cfg.read("potential.probs", as_floats))
    if kind == "tlog":
        return t_log_derivative_potential(cfg.read("potential.t", float, 1.0))
    if kind == "bernoulli":
        return bernoulli_potential(cfg.read("potential.rho", float, 0.0))
    if kind == "blackwell":
        _, prob_fns = blackwell_family(cfg.read("family.eps", float),
                                       cfg.read("family.p", float))
        return log_probability_potential(prob_fns)
    raise ConfigError(f"unknown potential kind {kind!r}")


def get_lam(cfg, fam):
    lo, hi = fam.param_interval
    return cfg.read("family.lambda", float, 0.5 * (lo + hi))


def get_depth(cfg, args, default):
    """--depth when given (0 included), else run.depth, else `default`."""
    if args.depth is not None:
        return args.depth
    return cfg.read("run.depth", int, default)


def get_seed(cfg, args) -> int:
    """--seed when given, else run.seed, else 0: the seed of every seeded
    command and of its stanza line."""
    if args.seed is not None:
        return args.seed
    return cfg.read("run.seed", int, 0)


def stanza(cfg, seed=None):
    lines = [f"version: {__version__}", f"config_hash: {cfg.get('_hash', '-')}"]
    if seed is not None:
        lines.append(f"seed: {seed}")
    return "\n".join(lines)


def _write_rows(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])


def cmd_audit(cfg, args, out):
    fam = build_family(cfg)
    rep = regularity_audit(fam, cfg.read("run.grid", int, 1024))
    print(f"gamma1_est: {rep.gamma1:.12g}")
    print(f"gamma2_est: {rep.gamma2:.12g}")
    print(f"verdict: {'PASS' if rep.passed else 'FAIL'}")
    return 0 if rep.passed else 2


def cmd_project(cfg, args, out):
    fam = build_family(cfg)
    lam = get_lam(cfg, fam)
    word = cfg.read("run.word", lambda raw: [int(c) for c in str(raw)], "1")
    depth = get_depth(cfg, args, 40)
    x, err = natural_projection(fam, lam, word, depth)
    print(f"projection: {x:.12g}")
    print(f"error_bound: {err:.12g}")
    return 0


def cmd_spectrum(cfg, args, out):
    fam = build_family(cfg)
    pot = build_potential(cfg, fam)
    lam = get_lam(cfg, fam)
    r = get_depth(cfg, args, 8)
    spec = transfer_spectrum(fam, pot, lam, r)
    mu = gibbs_cylinder_measure(spec)
    words = enumerate_words(fam.m, r)
    rows = [("".join(map(str, words[k])), float(spec.h[k]),
             float(spec.nu[k]), float(mu.weights[k]))
            for k in range(len(spec.h))]
    path = os.path.join(out, "spectrum.csv")
    _write_rows(path, ["word", "h", "nu", "mu"], rows)
    print(f"gamma: {spec.gamma:.12g}")
    print(f"pressure: {spec.pressure:.12g}")
    print(f"residual: {max(spec.residual_right, spec.residual_left):.3g}")
    print(f"truncation_bound: {spec.truncation_bound:.6g}")
    print(f"csv: {path}")
    return 0


def cmd_pressure(cfg, args, out):
    fam = build_family(cfg)
    lam = get_lam(cfg, fam)
    t = cfg.read("potential.t", float, 1.0)
    r = get_depth(cfg, args, 8)
    p_tr = pressure(fam, t, lam, r=r)
    bracket = pressure_bracket(fam, t, lam, n=cfg.read("run.partition_n", int, 8))
    print(f"pressure_transfer: {p_tr:.12g}")
    print(f"pressure_bracket: {bracket[0]:.12g} {bracket[1]:.12g}")
    return 0


def cmd_bowen(cfg, args, out):
    fam = build_family(cfg)
    lam = get_lam(cfg, fam)
    r = get_depth(cfg, args, 8)
    res = bowen_root(fam, lam, r=r)
    print(f"s: {res['s']:.12g}")
    print(f"pressure_at_s: {res['pressure_at_s']:.3g}")
    print(f"bracket_width: {res['bracket_width']:.6g}")
    print(f"backend: {res['backend']}")
    print(f"error_estimate: {res['error_estimate']:.3g}")
    return 0


def cmd_entropy(cfg, args, out):
    fam = build_family(cfg)
    pot = build_potential(cfg, fam)
    lam = get_lam(cfg, fam)
    r = get_depth(cfg, args, 8)
    spec = transfer_spectrum(fam, pot, lam, r)
    h, shannon = entropy(spec)
    chi = lyapunov_exponent(fam, lam, gibbs_cylinder_measure(spec))
    print(f"entropy: {h:.12g}")
    print(f"entropy_shannon_diagnostic: {shannon:.12g}")
    print(f"lyapunov: {chi:.12g}")
    print(f"ratio: {h / chi:.12g}")
    return 0


def cmd_region(cfg, args, out):
    which = args.which
    shape = (cfg.read("run.grid1", int, 50), cfg.read("run.grid2", int, 50))
    if which == "bernoulli":
        grid = bernoulli_region_scan(
            cfg.read("region.rho_range", as_pair, [0.0, 0.45]),
            cfg.read("region.lambda_range", as_pair, [0.51, 0.668]),
            shape, cfg.read("run.moment_terms", int, 12))
        path = os.path.join(out, "region_bernoulli.csv")
    elif which == "blackwell":
        grid = blackwell_region_scan(
            cfg.read("region.eps_range", as_pair, [0.05, 0.95]),
            cfg.read("region.p_range", as_pair, [0.05, 0.95]),
            shape, get_depth(cfg, args, 8))
        path = os.path.join(out, "region_blackwell.csv")
    else:
        raise ConfigError(f"unknown region {which!r}")
    grid.to_csv(path)
    n_super = int(np.sum(grid.verdicts == "SUPERCRITICAL"))
    print(f"cells: {grid.values.size}")
    print(f"supercritical: {n_super}")
    print(f"csv: {path}")
    return 0


def cmd_certify(cfg, args, out):
    fam = build_family(cfg)
    lam0 = get_lam(cfg, fam)
    tf = build_pm_translation(fam, lam0,
                              cfg.read("run.halfwidth", float, 0.05))
    rep = vertical_certificate(tf)
    for line in rep.lines():
        print(line)
    rows = [(p.i, p.j, p.eta_ij, p.margin1, p.margin2) for p in rep.pairs]
    _write_rows(os.path.join(out, "certificate.csv"),
                ["i", "j", "eta", "margin1", "margin2"], rows)
    return 0


def cmd_probe(cfg, args, out):
    fam = build_family(cfg)
    rep = mc_transversality_probe(
        fam, samples=cfg.read("run.samples", int, 10000),
        depth=get_depth(cfg, args, 40), seed=get_seed(cfg, args))
    for line in rep.lines():
        print(line)
    return 3 if rep.verdict == "FALSIFIED" else 0


def cmd_partition(cfg, args, out):
    plus, minus = greedy_partition(cfg.read("partition.intervals", as_pairs))
    print(f"I_plus: {' '.join(str(k + 1) for k in plus)}")
    print(f"I_minus: {' '.join(str(k + 1) for k in minus)}")
    return 0


def _measure_for(cfg, fam, lam):
    pot = build_potential(cfg, fam)
    r = cfg.read("run.measure_depth", int, 12)
    spec = transfer_spectrum(fam, pot, lam, r)
    return gibbs_cylinder_measure(spec)


def cmd_energy(cfg, args, out):
    fam = build_family(cfg)
    lam = get_lam(cfg, fam)
    measure = _measure_for(cfg, fam, lam)
    res = energy(measure, fam, lam, cfg.read("run.alpha", float, 0.5),
                 measure.depth - 1)
    print(f"tail_ratio: {res['tail_ratio']:.12g}")
    print(f"finite_looking: {res['finite_looking']}")
    return 0


def cmd_dimcor(cfg, args, out):
    fam = build_family(cfg)
    lam = get_lam(cfg, fam)
    measure = _measure_for(cfg, fam, lam)
    res = correlation_dimension(fam, lam, measure)
    print(f"dim_cor: {res['alpha']:.12g}")
    print(f"bracket: {res['bracket'][0]:.12g} {res['bracket'][1]:.12g}")
    return 0


def _prob_fns(cfg, fam):
    kind = cfg.get("potential.kind", "constant")
    if kind in ("bernoulli", "blackwell"):
        return build_potential(cfg, fam).prob_fns
    if kind != "constant":
        raise ConfigError(f"potential kind {kind!r} has no probabilities: "
                          f"use constant, bernoulli or blackwell")
    probs = cfg.read("potential.probs", as_floats, [1.0 / fam.m] * fam.m)
    return constant_bernoulli_potential(probs).prob_fns


def _chaos_sample(cfg, args):
    fam = build_family(cfg)
    lam = get_lam(cfg, fam)
    return chaos_game_sample(fam, _prob_fns(cfg, fam), lam,
                             cfg.read("run.samples", int, 100000),
                             cfg.read("run.burn_in", int, 100), get_seed(cfg, args))


def cmd_sample(cfg, args, out):
    sample = _chaos_sample(cfg, args)
    path = os.path.join(out, "sample.csv")
    _write_rows(path, ["x"], [(float(x),) for x in sample.points])
    print(f"count: {sample.count}")
    print(f"csv: {path}")
    return 0


def cmd_sobolev(cfg, args, out):
    sample = _chaos_sample(cfg, args)
    res = sobolev_estimate(sample, cfg.read("run.xi_max", float, 1e3))
    path = os.path.join(out, "fourier.csv")
    _write_rows(path, ["xi", "power"],
                list(zip(map(float, res["frequencies"]),
                         map(float, res["power"]))))
    print(f"dim_s_estimate: {res['dim_s']:.12g} (HEURISTIC)")
    print(f"slope: {res['slope']:.12g}")
    print(f"csv: {path}")
    return 0


def cmd_mprobe(cfg, args, out):
    fam = build_family(cfg)
    pot = build_potential(cfg, fam)
    lam = get_lam(cfg, fam)
    deltas = cfg.read("run.deltas", as_floats, [1e-3, 3e-3, 1e-2, 3e-2, 1e-1])
    pairs = [(lam, lam + d) for d in deltas]
    res = m_condition_probe(fam, pot, pairs,
                            get_depth(cfg, args, 8))
    print(f"theta_fit: {res['theta']:.12g}")
    print(f"c_fit: {res['c']:.12g}")
    for row in res["rows"]:
        print(f"pair {row['lam']:.6g},{row['lam2']:.6g}: R={row['R']:.12g}")
    return 0


def cmd_pressure_drop(cfg, args, out):
    fam = build_family(cfg)
    lam = get_lam(cfg, fam)
    res = pressure_drop_check(fam, cfg.read("potential.t", float, 1.0), lam,
                              cfg.read("run.partition_n", int, 5))
    print(f"Z_A: {res['Z_A']:.12g}")
    print(f"Z_B: {res['Z_B']:.12g}")
    print(f"delta_t: {res['delta_t']:.12g}")
    print(f"holds: {res['holds']}")
    return 0 if res["holds"] else 2


def cmd_cf(cfg, args, out):
    over, slack = cf_overlap(cfg.read("family.alpha", float),
                             cfg.read("family.beta", float))
    print(f"overlapping: {over}")
    print(f"slack: {slack:.12g}")
    return 0


def cmd_simdim(cfg, args, out):
    s = similarity_dimension(cfg.read("family.ratios", as_floats))
    print(f"similarity_dimension: {s:.12g}")
    return 0


COMMANDS = {
    "audit": cmd_audit, "project": cmd_project, "spectrum": cmd_spectrum,
    "pressure": cmd_pressure, "bowen": cmd_bowen, "entropy": cmd_entropy,
    "region": cmd_region, "partition": cmd_partition, "energy": cmd_energy,
    "dimcor": cmd_dimcor, "sample": cmd_sample, "sobolev": cmd_sobolev,
    "mprobe": cmd_mprobe, "pressure-drop": cmd_pressure_drop,
    "simdim": cmd_simdim,
}


def build_parser():
    ap = argparse.ArgumentParser(prog="hypifs")
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default=".")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--depth", type=int, default=None)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        if name == "region":
            continue
        sub.add_parser(name)
    tv = sub.add_parser("transversality")
    tv.add_argument("mode", choices=["certify", "probe"])
    rg = sub.add_parser("region")
    rg.add_argument("which", choices=["bernoulli", "blackwell"])
    cf = sub.add_parser("cf")
    cf.add_argument("mode", choices=["overlap"])
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    try:
        if args.command == "transversality":
            handler = cmd_certify if args.mode == "certify" else cmd_probe
        elif args.command == "cf":
            handler = cmd_cf
        else:
            handler = COMMANDS[args.command]
        seeded = handler in (cmd_probe, cmd_sample, cmd_sobolev)
        print(stanza(cfg, get_seed(cfg, args) if seeded else None))
        return handler(cfg, args, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

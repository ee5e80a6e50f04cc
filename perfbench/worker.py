"""Runs one workload in this (fresh, single-threaded) process.

Set-up is the imports, the inputs made from the seed, the reference
unit and one small warm-up operation; the worker then prints READY.
After that it runs whole rounds of the workload's operations for about
`--seconds` (it starts no round that would end past them, but runs at
least one), with a reference slice after every operation
that lasts about a quarter of it, so that the program and the reference
sample the same stretches of machine speed.  Each operation's wall time
is divided by the mean duration of the reference units in the slices
just before and just after it; a round's `time_ref` is the sum over its
operations.

With `--trace 1` untraced and traced rounds alternate: the traced ones
give the per-layer numbers and the difference of the two medians is the
tracing overhead.  The last line printed is a JSON result for run.py.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REF_SHARE = 0.25  # reference slice length as a share of the operation before it
FIRST_SLICE_S = 0.1


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine()}


class Runner:
    def __init__(self, workload, ref, errors):
        self.workload = workload
        self.ops = workload.ops()
        self.ref = ref
        self.errors = errors
        self.slice_before = self._slice(FIRST_SLICE_S)

    def _slice(self, target_s):
        start = len(self.ref.durations)
        self.ref.slice(target_s)
        return self.ref.durations[start:]

    def round(self, tracer=None):
        wall = time_ref = 0.0
        attempted = failed = 0
        first_unit = len(self.ref.durations)
        for i, op in enumerate(self.ops):
            with tracer.installed() if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    result, error = op(), None
                except self.errors as exc:
                    result, error = None, exc
                dt = time.perf_counter() - t0
            slice_after = self._slice(REF_SHARE * dt)
            wall += dt
            time_ref += dt / statistics.fmean(self.slice_before + slice_after)
            self.slice_before = slice_after
            if error is not None:
                print(f"operation {i} failed: {type(error).__name__}: {error}",
                      file=sys.stderr)
                attempted, failed = attempted + 1, failed + 1
            else:
                a, f = self.workload.check(i, result)
                attempted, failed = attempted + a, failed + f
        unit_s = statistics.fmean(self.ref.durations[first_unit:])
        return {"wall_s": wall, "time_ref": time_ref, "unit_s": unit_s,
                "attempted": attempted, "failed": failed, "traced": tracer is not None}


def layer_metrics(tracer, rounds):
    """Per-round averages over the traced rounds."""
    def calls(name):
        return tracer.calls(name) / rounds

    def self_ms(name):
        return tracer.self_ms(name) / rounds

    def counter(name):
        return tracer.counters[name] / rounds

    values = {
        "ifs.regularity_audit.calls": (calls("ifs.regularity_audit"), "count"),
        "ifs.regularity_audit.fresh": (counter("ifs.regularity_audit.fresh"), "count"),
        "ifs.regularity_audit.self_ms": (self_ms("ifs.regularity_audit"), "ms"),
        "ifs.map_eval.calls": (calls("ifs.map_eval"), "count"),
        "ifs.map_eval.self_ms": (self_ms("ifs.map_eval"), "ms"),
        "ifs.poly_eval.calls": (calls("ifs.poly_eval"), "count"),
        "ifs.tail_fixed_point.calls": (calls("ifs.tail_fixed_point"), "count"),
        "ifs.tail_fixed_point.self_ms": (self_ms("ifs.tail_fixed_point"), "ms"),
        "thermo.potential_table.self_ms": (self_ms("thermo.potential_table"), "ms"),
        "thermo.transfer_matrix.self_ms": (self_ms("thermo.transfer_matrix"), "ms"),
        "thermo.transfer_spectrum.calls": (calls("thermo.transfer_spectrum"), "count"),
        "thermo.transfer_spectrum.self_ms": (self_ms("thermo.transfer_spectrum"), "ms"),
        "thermo.transfer_spectrum.iterations": (
            counter("thermo.transfer_spectrum.iterations"), "count"),
        "thermo.pressure.calls": (calls("thermo.pressure"), "count"),
        "thermo.bowen_root.self_ms": (self_ms("thermo.bowen_root"), "ms"),
        "thermo.partition_sum.self_ms": (self_ms("thermo.partition_sum"), "ms"),
        "thermo.entropy.self_ms": (self_ms("thermo.entropy"), "ms"),
        "thermo.lyapunov_exponent.self_ms": (self_ms("thermo.lyapunov_exponent"), "ms"),
        "words.enumerate_words.calls": (calls("words.enumerate_words"), "count"),
        "words.enumerate_words.mb": (counter("words.enumerate_words.mb"), "MB"),
        "transversality.mc_transversality_probe.self_ms": (
            self_ms("transversality.mc_transversality_probe"), "ms"),
        "transversality.pair_evals": (counter("transversality.pair_evals"), "count"),
        "transversality.near_collisions": (
            counter("transversality.near_collisions"), "count"),
        "mstats.chaos_game_sample.self_ms": (self_ms("mstats.chaos_game_sample"), "ms"),
        "mstats.chaos_points": (counter("mstats.chaos_points"), "count"),
        "mstats.sobolev_estimate.self_ms": (self_ms("mstats.sobolev_estimate"), "ms"),
        "mstats.fourier_terms": (counter("mstats.fourier_terms"), "count"),
        "apps.blackwell_cell_value.calls": (calls("apps.blackwell_cell_value"), "count"),
        "apps.blackwell_cell_value.self_ms": (self_ms("apps.blackwell_cell_value"), "ms"),
        "cli.main.self_ms": (self_ms("cli.main"), "ms"),
    }
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hypifs
    src = os.path.join(ROOT, "src", "hypifs")
    if os.path.dirname(os.path.abspath(hypifs.__file__)) != src:
        print(f"hypifs imported from {hypifs.__file__}, not from {src}", file=sys.stderr)
        return 2
    from refunit import ReferenceUnit
    from workloads import NUMERICAL_ERRORS, WORKLOADS

    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        ref = ReferenceUnit()
        ref.slice(0.0)
        workload.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        return measure(args, workload, ref, NUMERICAL_ERRORS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, ref, errors) -> int:
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    runner = Runner(workload, ref, errors)
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        start = time.perf_counter()
        rounds.append(runner.round(tracer if traced else None))
        now = time.perf_counter()
        # stop before a round that would end past the deadline
        if now + (now - start) > deadline and (tracer is None or len(rounds) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digits = workload.finish()
    for problem in workload.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    wall_s = statistics.median(r["wall_s"] for r in plain)
    unit_s = statistics.fmean(ref.durations)
    info = {"workload": args.workload, "seed": args.seed, "rounds": len(plain),
            "traced_rounds": len(traced_rounds), "run.wall_s": wall_s,
            "ref.unit_us": unit_s * 1e6, "ref.units": len(ref.durations),
            "round_wall_s": [r["wall_s"] for r in plain],
            "round_unit_us": [r["unit_s"] * 1e6 for r in plain], "env": environment()}
    if tracer is None:
        # run.py pools the rounds of several measuring processes
        info["round_time_ref"] = [r["time_ref"] for r in plain]
        metrics = {"peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                   "digits": {"value": digits, "unit": "digits"}}
    else:
        values = layer_metrics(tracer, len(traced_rounds))
        values["run.wall_s"] = (wall_s, "s")
        values["ref.unit_us"] = (unit_s * 1e6, "us")
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced_rounds) - wall_s, "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump(dict(info, traced_round_walls=[r["wall_s"] for r in traced_rounds],
                           **tracer.to_json()), fh)
        info["trace_file"] = os.path.relpath(trace_path, ROOT)
    print(json.dumps({"correct": not workload.problems,
                      "attempted": sum(r["attempted"] for r in rounds),
                      "failed": sum(r["failed"] for r in rounds),
                      "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

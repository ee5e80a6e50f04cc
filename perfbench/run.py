"""hypifs benchmark: one workload per call, in fresh single-threaded processes.

    python3 perfbench/run.py --workload e2-bowen --seed 1 --seconds 25 --trace 0

Workloads: blackwell-scan, e2-bowen, mc-probe, chaos-sobolev (see
perfbench/README.md).  The program is imported from ./src of the
checkout this file sits in.  With `--trace 0` the result carries the
end-to-end metrics (time_ref, setup_s, peak_rss_mb, digits); with
`--trace 1` the per-layer ones, and the spans go to perfbench/out/.
Run facts (versions, nproc, raw wall time, set-up samples) are printed
on the line before the result, which is the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

This file uses the standard library only: it times set-up from process
start to READY, splits an untraced run's seconds over three measuring
processes and pools their rounds (the spread between single-process runs
was several times larger than between rounds of one process), and leaves
all numerical work to worker.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("blackwell-scan", "e2-bowen", "mc-probe", "chaos-sobolev")
SETUPS = 5  # set-ups timed per untraced run, the measuring workers' included
MEASURERS = 3  # untraced runs split their seconds over this many processes
TIME_LIMIT_S = 170.0


def spawn(argv, deadline):
    """Run the worker; return (seconds from start to READY, stdout after it)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *argv], stdout=subprocess.PIPE,
                            cwd=ROOT, env=env, text=True)
    watchdog = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker exited with code {code} ({' '.join(argv)})")
    return ready_s, rest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hypifs benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs and statistical checks off, for the test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hypifs", "__init__.py")):
        print(f"no hypifs sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIME_LIMIT_S
    measurers = 1 if args.trace else MEASURERS
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds / measurers), "--trace", str(args.trace)]
    if args.smoke:
        common.append("--smoke")
    try:
        setups = [spawn(common + ["--setup-only"], deadline)[0]
                  for _ in range(0 if args.trace else SETUPS - measurers)]
        outs = []
        for _ in range(measurers):
            ready_s, out = spawn(common, deadline)
            setups.append(ready_s)
            outs.append(json.loads(out.strip().splitlines()[-1]))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    infos = [r.pop("info") for r in outs]
    result = outs[0] if args.trace else pool(outs, infos, setups)
    walls = [w for i in infos for w in i["round_wall_s"]]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": len(walls), "run.wall_s": statistics.median(walls),
                      "setup_samples_s": setups, "workers": infos}))
    print(json.dumps(result))
    return 0


def pool(outs, infos, setups):
    """One result from the measuring processes: time_ref is the median over
    all their rounds, so per-process effects (memory layout, hashing)
    average out."""
    def worst(name, pick):
        return pick(r["metrics"][name]["value"] for r in outs)

    return {"correct": all(r["correct"] for r in outs),
            "attempted": sum(r["attempted"] for r in outs),
            "failed": sum(r["failed"] for r in outs),
            "metrics": {
                "time_ref": {"value": statistics.median(
                    t for i in infos for t in i["round_time_ref"]), "unit": "ref"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": worst("peak_rss_mb", max), "unit": "MB"},
                "digits": {"value": worst("digits", min), "unit": "digits"}}}


if __name__ == "__main__":
    sys.exit(main())

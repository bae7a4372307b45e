"""Run one workload of the ckgeom benchmark and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload incidence_sweep --seed 7 --seconds 25 \
        --trace 0

Workloads: cross_ratio_suite, incidence_sweep, trig_sweep (see
bench/workloads.py).  Load model: a closed loop with one client, every
certificate run after the previous one in a single-threaded process.

With --trace 0 the workload runs in a fresh process for --seconds (at least
three rounds and 100 certificates), and set-up is timed in fifteen other
fresh processes, half before and half after it, so that its median spans
the run; the end-to-end metrics are printed.  Their times are in reference
seconds, wall seconds scaled by the host's speed measured next to them
(see bench/calibrate.py); the line `host_speed` gives that speed relative
to the nominal one and the same metrics in wall seconds.  With --trace 1
a fixed number of rounds, sized from --seconds, runs untraced and then as
many further rounds run traced; the per-layer metrics are printed and the
spans are saved to .bench_work/trace-<workload>.npz.

The lines before the last describe the run: environment, sample counts, the
certificate digest of the first three rounds (equal for equal seeds), guard
detection and any failure.  The last line is one JSON object with the keys
correct, attempted, failed and metrics.  A run whose checkout has no
src/ckgeom exits with status 2 and prints no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("cross_ratio_suite", "incidence_sweep", "trig_sweep")
SETUP_PROBES = 15
SETUP_TIMEOUT_S = 60
WORKLOAD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GEOM_TOL", None)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_worker(args, timeout) -> dict:
    """Run worker.py in a fresh process and return its last output line."""
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker {' '.join(args)} timed out after {timeout}s")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trials", type=int, default=None,
                    help="trials per certificate and per guard run, for a "
                         "tiny smoke run (default: the workload's own)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ckgeom" / "__init__.py").is_file():
        print(f"no src/ckgeom under {ROOT}", file=sys.stderr)
        return 2

    worker_args = ["workload", args.workload, str(args.seed),
                   repr(args.seconds), str(args.trace)]
    if args.trials is not None:
        worker_args.append(str(args.trials))

    def probe_setup(n):
        recs = [run_worker(["setup"], SETUP_TIMEOUT_S) for _ in range(n)]
        return [(r["setup_s"] * r["scale"], r["setup_s"]) for r in recs]

    metrics = {}
    if args.trace:
        rec = run_worker(worker_args, WORKLOAD_TIMEOUT_S)
    else:
        probe_setup(1)  # writes the bytecode caches of a fresh checkout
        setups = probe_setup(SETUP_PROBES // 2)
        rec = run_worker(worker_args, WORKLOAD_TIMEOUT_S)
        setups += probe_setup(SETUP_PROBES - len(setups))
        metrics["setup_s"] = (statistics.median(s for s, _ in setups), "s")
    metrics.update(rec["metrics"])

    print(f"env {json.dumps(rec['env'])}")
    print(f"run workload={args.workload} seed={args.seed}"
          f" rounds={rec['rounds']}"
          f" certificates={rec['attempted'] - len(rec['guards'])}"
          + (f" latency_samples={rec['latency_samples']}"
             f" beyond_p90={rec['beyond_p90']} setup_probes={SETUP_PROBES}"
             if not args.trace else f" spans={rec['spans']}"))
    print(f"digest {args.workload} seed={args.seed} sha256={rec['digest']}")
    print("guards " + " ".join(f"{tid}={h}/{n}"
                               for tid, (h, n) in rec["guards"].items()))
    print(f"cert_fail_frac {rec['failed'] / rec['attempted']:.6g}")
    if not args.trace:
        wall = dict(rec["wall"],
                    setup_s=statistics.median(w for _, w in setups))
        print(f"host_speed {rec['host_speed']:.4g} wall "
              + " ".join(f"{k}={v:.6g}" for k, v in wall.items()))
    for problem in rec["problems"]:
        print(f"FAIL {problem}")
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

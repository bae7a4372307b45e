"""One fresh benchmark process.

    worker.py setup
        import ckgeom, build both models, make one warm-up call, and print
        the seconds that took, counted from the first line of this file,
        with the factor from wall to reference seconds measured after it
        (see calibrate.py).
    worker.py workload NAME SEED SECONDS TRACE [TRIALS]
        set up the same way, run the workload, and print its record.

`bench/run.py` starts it with PYTHONPATH set to the checkout's `src/`.  The
last line of standard output is one JSON object.
"""

import time

_T0 = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

MIN_ROUNDS = 3    # rounds always run; the digest and margin cover these
MIN_CERTS = 100   # so that at least ten latencies lie beyond the p90
SETUP_REF_SAMPLES = 15  # kernel times that scale one set-up time
# Nominal seconds per untraced round, used only to size a traced run
# deterministically from --seconds.
NOMINAL_ROUND_S = {"cross_ratio_suite": 1.5, "incidence_sweep": 3.0,
                   "trig_sweep": 3.5}


def setup() -> float:
    import ckgeom
    from ckgeom import cli, lab

    here = Path(ckgeom.__file__).resolve().parent
    if here != ROOT / "src" / "ckgeom":
        raise SystemExit(f"ckgeom imported from {here}, not this checkout")
    lab.model_for(lab.HYPERBOLIC)
    lab.model_for(lab.ELLIPTIC)
    with redirect_stdout(io.StringIO()):
        cli.main(["verify", "--theorem", "pascal", "--trials", "1",
                  "--geometry", "hyperbolic"])
    return time.perf_counter() - _T0


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for path in (ROOT / "src").rglob("*.py"):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "src_lines": src_lines}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _ratio(num, den) -> float:
    """num / den, or 0 where a layer did no work (den == 0)."""
    return num / den if den else 0.0


def _medians(pairs):
    """key -> median of the values given for it."""
    groups = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return {k: statistics.median(v) for k, v in groups.items()}


def in_reference_seconds(rounds, scaled=True):
    """Per round, [(certificate, ms)] and [(guard, s)] with the times in
    reference seconds, each scaled by the kernel times nearest to it (see
    calibrate.py), or in wall seconds if not `scaled`."""
    import calibrate

    ref = [x for rd in rounds for x in rd.ref_s]
    factors = iter(calibrate.local_scales(ref) if scaled else [1.0] * len(ref))
    # the kernel ran before each certificate, then before each guard run
    return [([(c, c.ms * next(factors)) for c in rd.certs],
             [(g, g.s * next(factors)) for g in rd.guards]) for rd in rounds]


def timings(rounds, scaled=True) -> dict:
    """Throughputs of a median round, built from each certificate's and
    guard's median time over the run, and certificate latencies; in
    reference seconds, or wall seconds if not `scaled`."""
    timed = in_reference_seconds(rounds, scaled)
    ms = _medians(((c.theorem, c.geometry, c.trials), t)
                  for certs, _ in timed for c, t in certs)
    guard_s = _medians(((g.theorem, g.trials), t)
                       for _, guards in timed for g, t in guards)
    lat = [t for certs, _ in timed for _, t in certs]
    return {
        "scenes_per_s": (sum(k[2] for k in ms) / sum(ms.values()) * 1e3,
                         "1/s"),
        "guard_scenes_per_s": (sum(k[1] for k in guard_s)
                               / sum(guard_s.values()), "1/s"),
        "cert_ms_p50": (statistics.median(lat), "ms"),
        "cert_ms_p90": (statistics.quantiles(lat, n=10)[8], "ms"),
    }


def end_to_end(rounds) -> dict:
    """Metrics with tracing off."""
    # median, not minimum: the worst certificate's margin spreads 0.3-1.0
    # of its median across seeds, the median's 0.03-0.04; residuals are
    # clamped to finite positive doubles (0, or inf for a raised check)
    margin = statistics.median(
        math.log10(c.tol / min(max(c.max_residual, 5e-324), 1e308))
        for rd in rounds[:MIN_ROUNDS] for c in rd.certs)
    return {
        **timings(rounds),
        "margin_log10": (margin, "decades"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(by_name, by_tag, rounds, untraced, theorem_ids):
    """Metrics of the traced `rounds`, per scene of those rounds; the
    tracing overhead is taken against the `untraced` rounds before them."""
    from tracer import CONFIG_METHODS, LAYERS

    wall_s = sum(rd.work_s for rd in rounds)
    scenes = sum(rd.scenes for rd in rounds)
    out = {}
    funcs = [f"{layer}.{f}" for layer, fs in LAYERS.items() for f in fs
             if f"{layer}.{f}" not in ("lab.verify", "lab.perturbation_guard")]
    funcs += [f"centers.PolarTriangleConfig.{m}" for m in CONFIG_METHODS]
    for name in funcs:
        st = by_name[name]
        out[f"{name}.calls_per_scene"] = (st["calls"] / scenes, "calls/scene")
        out[f"{name}.us_per_call"] = (_ratio(st["incl_s"] * 1e6, st["calls"]),
                                      "us")
    builds = by_name["centers.build_config"]
    inits = by_name["centers.PolarTriangleConfig.__init__"]["calls"]
    draws = by_name["lab.random_triangle_config"]["calls"]
    rng_draws = by_name["lab.trial_rng"]["calls"]
    out["centers.build_config.raise_frac"] = (
        _ratio(builds["raised"], builds["calls"]), "ratio")
    out["centers.builds_per_draw"] = (_ratio(inits, draws), "ratio")
    out["lab.accept_ratio"] = (_ratio(scenes, rng_draws), "ratio")
    for tid in theorem_ids:
        trials = sum(c.trials for rd in rounds for c in rd.certs
                     if c.theorem == tid)
        out[f"lab.trial_ms.{tid}"] = (_ratio(by_tag.get(tid, 0.0) * 1e3,
                                             trials), "ms")
    for layer in LAYERS:
        self_s = sum(st["self_s"] for name, st in by_name.items()
                     if name.startswith(layer + "."))
        out[f"{layer}.self_share"] = (self_s / wall_s, "ratio")
    # in reference seconds, as the two phases ran at different times
    def work(rds):
        return sum(sum(t for _, t in certs) / 1e3 + sum(t for _, t in guards)
                   for certs, guards in in_reference_seconds(rds))

    out["trace.overhead_frac"] = (work(rounds) / work(untraced) - 1.0,
                                  "ratio")
    return out


def verdicts(rounds, guard_rejected):
    """(attempted, failed, problems): every certificate, plus every guard id
    judged on all of its trials in the run."""
    problems = [f"certificate {c.theorem}/{c.geometry} failed: max_residual="
                f"{c.max_residual:.3e} failures={c.failures[:5]}"
                for rd in rounds for c in rd.certs if not c.ok]
    pooled = {}
    for rd in rounds:
        for g in rd.guards:
            hits, trials = pooled.get(g.theorem, (0, 0))
            pooled[g.theorem] = (hits + g.hits, trials + g.trials)
    for tid, (hits, trials) in pooled.items():
        if guard_rejected(hits, trials):
            problems.append(f"guard {tid} detected {hits}/{trials}")
    attempted = sum(len(rd.certs) for rd in rounds) + len(pooled)
    return attempted, len(problems), problems, pooled


# ---------------------------------------------------------------------------
# the workload process
# ---------------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, trials=None) -> dict:
    setup()
    import calibrate
    import workloads as W
    from tracer import Tracer

    work_dir = ROOT / ".bench_work"
    work_dir.mkdir(exist_ok=True)
    wl = W.make_workload(name, trials)
    record = {}
    if trace:
        n = max(1, int(seconds / (3 * NOMINAL_ROUND_S[name])))
        rounds = [wl.run_round(seed, r) for r in range(n)]
        with Tracer() as tracer:
            traced = [wl.run_round(seed, r) for r in range(n, 2 * n)]
        tracer.write(work_dir / f"trace-{name}.npz")
        by_name, by_tag = tracer.summary()
        record["metrics"] = per_layer(by_name, by_tag, traced, rounds,
                                      W.certified_ids())
        record["spans"] = len(tracer.start)
        rounds += traced
    else:
        rounds = []
        t0 = time.perf_counter()
        while (len(rounds) < MIN_ROUNDS
               or sum(len(rd.certs) for rd in rounds) < MIN_CERTS
               or time.perf_counter() - t0 < seconds):
            rounds.append(wl.run_round(seed, len(rounds)))
        record["metrics"] = end_to_end(rounds)
        lat = [t for certs, _ in in_reference_seconds(rounds)
               for _, t in certs]
        p90 = record["metrics"]["cert_ms_p90"][0]
        record["latency_samples"] = len(lat)
        record["beyond_p90"] = sum(1 for v in lat if v > p90)
        record["wall"] = {k: v for k, (v, _)
                          in timings(rounds, scaled=False).items()}
        record["host_speed"] = calibrate.scale(
            [x for rd in rounds for x in rd.ref_s])
    attempted, failed, problems, pooled = verdicts(rounds, W.guard_rejected)
    record.update(
        attempted=attempted, failed=failed, problems=problems,
        rounds=len(rounds), guards=pooled,
        digest=W.certificate_digest(
            [c for rd in rounds[:MIN_ROUNDS] for c in rd.certs]),
        env=environment())
    return record


def main(argv) -> int:
    if argv[:1] == ["setup"]:
        out = {"setup_s": setup()}
        import calibrate
        out["scale"] = calibrate.scale(
            [calibrate.sample() for _ in range(SETUP_REF_SAMPLES)])
    elif argv[:1] == ["workload"] and len(argv) in (5, 6):
        trials = int(argv[5]) if len(argv) == 6 else None
        out = run_workload(argv[1], int(argv[2]), float(argv[3]),
                           argv[4] == "1", trials)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

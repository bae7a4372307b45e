"""Workloads of the ckgeom benchmark.

A workload is a sequence of rounds.  A round runs a fixed list of
certificates one after another, each timed on its own from outside the
program, then a guard phase that feeds perturbed scenes through a second
trial driver and counts how many are detected.  Round r of a run at seed s
takes every input from seeds derived from (s, r), so no two rounds share a
scene and a run is a pure function of its seed and length.  Before each
certificate and each guard run the round times the reference kernel of
`calibrate`, which gives the factors from wall to reference seconds.

- `cross_ratio_suite`: criterion 1's collinear quintuples, checked in this
  file against the projective kernel alone.
- `incidence_sweep`: the 20 incidence theorems in both geometries through
  `ckgeom verify`, all ids of a round on one seed as in `verify --theorem
  all`; the guard phase is `lab.perturbation_guard` on the same ids.
- `trig_sweep`: every other non-report theorem through `ckgeom verify`,
  except KNOWN_FAILING, each certificate on a seed of its own; the guard
  phase covers the ids whose checks displace a point (TRIG_GUARDS).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass

import calibrate

# module attributes, not names imported from them, so that the tracer's
# patches of `ckgeom.projective` cover this file's calls too
from ckgeom import cli, lab
from ckgeom import projective as pj
from ckgeom.errors import NotCollinear

TOL = 1e-9
# Each theorem is certified at the tolerance of its acceptance criterion:
# 1e-8 for the trigonometric identities and laws (criteria 4, 5 and 7),
# TOL for everything else.
TRIG_TOL = 1e-8
TRIG_TOL_IDS = ("t1", "t2", "t3", "t4", "t5", "t6", "table_5_1",
                "law_sines_sq", "law_cosines_sq", "projective_sines",
                "projective_cosines")
GUARD_EPS = 1e-3          # criterion 9's displacement ...
GUARD_THRESHOLD = 1e-7    # ... the residual that counts as detected ...
GUARD_MIN_DETECTION = 0.99  # ... and the share each id must reach
GUARD_P_VALUE = 1e-3

KERNEL_ID = "cross_ratio"
KERNEL_GUARD_ID = "collinearity_guard"

# Checks whose `perturb` branch displaces a point off a hypothesis, with the
# model each is guarded on.  The other trigonometric checks ignore `perturb`,
# and carnot_projective moves a triangle vertex, which keeps the theorem
# true, so none of those detects.  t1-t6 take the same perturb branch on
# both models; they are guarded on the elliptic one because a hyperbolic
# right-angled guard run costs 2x-5x more from one seed to the next
# (rejection sampling), which would make the guard phase most of a round.
# Their hyperbolic scenes are still certified in the verify phase.
TRIG_GUARDS = (("t1", "elliptic"), ("t2", "elliptic"), ("t3", "elliptic"),
               ("t4", "elliptic"), ("t5", "elliptic"), ("t6", "elliptic"),
               ("carnot_elliptic", "elliptic"),
               ("carnot_hyperbolic_iff", "hyperbolic"),
               ("carnot_hexagon", "hyperbolic"), ("ray_angles", "hyperbolic"))

# Left out of trig_sweep because the program fails them on random scenes,
# each on roughly one scene in 10^4 to 10^5, which would fail a few percent
# of runs.  Each command below prints FAIL and exits 1:
# - law_cosines_sq/hyperbolic meets a closing-branch tie (residual 1.0):
#   `ckgeom verify --theorem law_cosines_sq --geometry hyperbolic
#   --seed 424242 --trials 10299 --tol 1e-8`;
# - law_cosines_sq/elliptic reaches 2.6e-8: `--geometry elliptic
#   --seed 24908189 --trials 20 --tol 1e-8`;
# - t5/hyperbolic reaches 4.1e-8: `--theorem t5 --geometry hyperbolic
#   --seed 424242 --trials 4541 --tol 1e-8`;
# - table_5_1 reaches 2.9e-8 with `--theorem table_5_1 --geometry
#   hyperbolic --seed 124347129 --trials 20 --tol 1e-8`, and 1.6e-8 with
#   `--geometry elliptic --seed 1249412285`.
# The per-layer metrics of table_5_1 and law_cosines_sq are left out with
# them; they return when these certificates do.
KNOWN_FAILING = (("law_cosines_sq", "hyperbolic"),
                 ("law_cosines_sq", "elliptic"), ("t5", "hyperbolic"),
                 ("table_5_1", "hyperbolic"), ("table_5_1", "elliptic"))


def derive_seed(seed, *parts) -> int:
    """A 31-bit seed that depends only on `seed` and `parts`."""
    text = ":".join(str(p) for p in (seed, *parts))
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass
class Certificate:
    theorem: str
    geometry: str
    trials: int
    max_residual: float
    tol: float
    failures: list
    ok: bool
    ms: float


@dataclass
class Guard:
    theorem: str
    trials: int
    hits: int
    s: float


@dataclass
class Round:
    certs: list
    guards: list
    ref_s: list   # times of the reference kernel, one before each run

    @property
    def scenes(self) -> int:
        return sum(c.trials for c in self.certs) + \
            sum(g.trials for g in self.guards)

    @property
    def work_s(self) -> float:
        """Wall seconds of the certificates and guard runs."""
        return sum(c.ms for c in self.certs) / 1e3 + \
            sum(g.s for g in self.guards)


def guard_rejected(hits: int, trials: int) -> bool:
    """Whether `hits` of `trials` is significantly below criterion 9's rate.

    One-sided binomial test: misses ~ Bin(trials, 1 - 0.99) under the rule,
    and the id fails when that many misses or more have probability below
    GUARD_P_VALUE.  Detection rates of 0.993-1.000 over 1000 trials are
    normal, so requiring >= 0.99 of a few dozen trials would fail at random.
    """
    misses = trials - hits
    q = 1.0 - GUARD_MIN_DETECTION
    below = sum(
        math.exp(math.lgamma(trials + 1) - math.lgamma(k + 1)
                 - math.lgamma(trials - k + 1)
                 + k * math.log(q) + (trials - k) * math.log1p(-q))
        for k in range(misses))
    return 1.0 - below < GUARD_P_VALUE


def certificate_digest(certs) -> str:
    """sha256 of each certificate's (id, geometry, max_residual, failures)."""
    rows = [(c.theorem, c.geometry, float(c.max_residual).hex(), c.failures)
            for c in certs]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# ---------------------------------------------------------------------------
# criterion 1: the projective kernel on collinear quintuples
# ---------------------------------------------------------------------------

def _collinear_params(rng):
    """A chart line (base, direction) and five well-spaced parameters."""
    base = rng.uniform(-1, 1), rng.uniform(-1, 1)
    # a direction shorter than this puts the points within 5e-4 of each
    # other, where the 0/0 guard of the cross ratio rightly fires
    while True:
        d = rng.uniform(-1, 1), rng.uniform(-1, 1)
        if math.hypot(*d) >= 0.05:
            break
    ts = []
    while len(ts) < 5:
        t = rng.uniform(-4, 4)
        if all(abs(t - s) > 1e-2 for s in ts):
            ts.append(t)
    return base, d, ts


def kernel_certificate(seed: int, n: int):
    """Worst relative residual of criterion 1's identities over n quintuples
    (symmetries, chain rule, projection invariance on every 10th) and the
    indices of quintuples that miss TOL or disagree with `separates`."""
    rng = random.Random(seed)
    worst = 0.0
    failures = []
    for k in range(n):
        base, d, ts = _collinear_params(rng)
        pts = [pj.hpoint(base[0] + t * d[0], base[1] + t * d[1], 1.0)
               for t in ts]
        a, b, c, dd, e = pts
        cr = pj.cross_ratio_points
        r = cr(a, b, c, dd)
        res = max(abs(cr(a, b, dd, c) - 1 / r), abs(cr(a, c, b, dd) - (1 - r)),
                  abs(cr(a, b, e, dd) * cr(a, b, c, e) - r))
        if k % 10 == 0:
            # a center on the carrier would send all four images to one point
            while True:
                cx, cy = rng.uniform(-3, 3), rng.uniform(2, 5)
                off = (cx - base[0]) * d[1] - (cy - base[1]) * d[0]
                if abs(off) >= 0.05 * math.hypot(*d):
                    break
            center = pj.affine_point(cx, cy)
            sec = pj.join_points(pj.affine_point(-5, rng.uniform(-4, -2)),
                                 pj.affine_point(5, rng.uniform(-4, -2)))
            imgs = [pj.meet_lines(pj.join_points(center, p), sec)
                    for p in pts[:4]]
            res = max(res, abs(cr(*imgs) - r))
        res /= max(1.0, abs(r))
        worst = max(worst, res)
        t1, t2, t3, t4 = ts[:4]
        lo, hi = min(t1, t2), max(t1, t2)
        interleaved = (lo < t3 < hi) != (lo < t4 < hi)
        if res > TOL or pj.separates(a, b, c, dd) != interleaved:
            failures.append(k)
    return worst, failures


def kernel_guard(seed: int, n: int) -> int:
    """How many of n quadruples, the last point moved GUARD_EPS across the
    carrier, `cross_ratio_points` rejects as not collinear."""
    rng = random.Random(seed)
    hits = 0
    for _ in range(n):
        base, d, ts = _collinear_params(rng)
        nx, ny = -d[1] / math.hypot(*d), d[0] / math.hypot(*d)
        xy = [(base[0] + t * d[0], base[1] + t * d[1]) for t in ts[:4]]
        xy[3] = (xy[3][0] + GUARD_EPS * nx, xy[3][1] + GUARD_EPS * ny)
        try:
            pj.cross_ratio_points(*(pj.hpoint(x, y, 1.0) for x, y in xy))
        except NotCollinear:
            hits += 1
    return hits


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """One round = `plan` certificates, then `guard_plan` guard runs."""

    def __init__(self, trials: int, guard_trials: int):
        self.trials = trials
        self.guard_trials = guard_trials

    def plan(self, seed: int, r: int):
        """(theorem, geometry, seed, trials) of each certificate of round r."""
        raise NotImplementedError

    def guard_plan(self, seed: int, r: int):
        """(theorem, seed) of each guard run of round r."""
        raise NotImplementedError

    def certify(self, theorem: str, geometry: str, seed: int,
                trials: int) -> Certificate:
        raise NotImplementedError

    def guard(self, theorem: str, seed: int) -> int:
        raise NotImplementedError

    def run_round(self, seed: int, r: int) -> Round:
        ref_s = []
        certs = []
        for spec in self.plan(seed, r):
            ref_s.append(calibrate.sample())
            certs.append(self.certify(*spec))
        guards = []
        for theorem, gseed in self.guard_plan(seed, r):
            ref_s.append(calibrate.sample())
            t0 = time.perf_counter()
            try:
                hits = self.guard(theorem, gseed)
            except Exception:
                traceback.print_exc()
                hits = 0
            guards.append(Guard(theorem, self.guard_trials, hits,
                                time.perf_counter() - t0))
        return Round(certs, guards, ref_s)


class CrossRatioSuite(Workload):
    per_round = 40

    def plan(self, seed, r):
        # sizes from 0.5x to 1.5x of `trials`, so that the latency
        # percentiles rank certificates by work, not by timing noise alone
        n = self.per_round
        return [(KERNEL_ID, "projective", derive_seed(seed, r, i),
                 max(1, round(self.trials * (0.5 + i / (n - 1)))))
                for i in range(n)]

    def guard_plan(self, seed, r):
        return [(KERNEL_GUARD_ID, derive_seed(seed, r, "guard"))]

    def certify(self, theorem, geometry, seed, trials):
        t0 = time.perf_counter()
        try:
            worst, failures = kernel_certificate(seed, trials)
        except Exception:
            traceback.print_exc()
            worst, failures = math.inf, ["raised"]
        ms = (time.perf_counter() - t0) * 1e3
        return Certificate(theorem, geometry, trials, worst, TOL,
                           failures, not failures, ms)

    def guard(self, theorem, seed):
        return kernel_guard(seed, self.guard_trials)


class CliSweep(Workload):
    """Certificates through `ckgeom.cli.main(["verify", ...])` in-process,
    guards through `lab.perturbation_guard` on the model `guards` names for
    each id."""

    def __init__(self, ids, guards, shared_seed, trials, guard_trials):
        super().__init__(trials, guard_trials)
        self.ids = tuple(ids)
        self.guards = dict(guards)
        self.shared_seed = shared_seed

    def _seed(self, seed, r, key, *tag):
        """One seed for the whole round, or one per `key`."""
        if self.shared_seed:
            return derive_seed(seed, r, *tag)
        return derive_seed(seed, r, *key, *tag)

    def plan(self, seed, r):
        return [(tid, g, self._seed(seed, r, (tid, g)), self.trials)
                for tid in self.ids for g in lab.THEOREMS[tid][1]
                if (tid, g) not in KNOWN_FAILING]

    def guard_plan(self, seed, r):
        return [(tid, self._seed(seed, r, (tid,), "guard"))
                for tid in self.guards]

    def certify(self, theorem, geometry, seed, trials):
        tol = TRIG_TOL if theorem in TRIG_TOL_IDS else TOL
        argv = ["verify", "--theorem", theorem, "--geometry", geometry,
                "--seed", str(seed), "--trials", str(trials),
                "--tol", repr(tol)]
        # The certificate is read from the `lab.verify` call the CLI makes,
        # not from a --report file: `verify --theorem all` writes one report
        # for a whole catalog, so a file per certificate would time I/O that
        # the real traffic does not do.
        verify = lab.verify
        got = []

        def capture(*args, **kwargs):
            cert = verify(*args, **kwargs)
            got.append(cert)
            return cert

        lab.verify = capture
        t0 = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:
            ms = (time.perf_counter() - t0) * 1e3
            traceback.print_exc()
            return Certificate(theorem, geometry, 0, math.inf, tol,
                               ["raised"], False, ms)
        finally:
            lab.verify = verify
        ms = (time.perf_counter() - t0) * 1e3
        rep = got[0].to_dict()
        ok = (code == 0 and len(got) == 1 and rep["passed"]
              and not rep["failures"] and rep["theorem"] == theorem
              and rep["geometry"] == geometry and rep["trials"] == trials
              and rep["tolerance"] == tol and rep["max_residual"] <= tol)
        return Certificate(theorem, geometry, rep["trials"],
                           rep["max_residual"], tol, rep["failures"], ok, ms)

    def guard(self, theorem, seed):
        frac = lab.perturbation_guard(
            theorem, seed=seed, trials=self.guard_trials,
            geometry=self.guards[theorem], eps=GUARD_EPS,
            threshold=GUARD_THRESHOLD)
        return round(frac * self.guard_trials)


# name -> (trials per certificate, guard trials per guard run).  A
# cross_ratio_suite round is criterion 1's 10,000 quintuples cut into 40
# certificates of 125-375.  The CLI sweeps certify in chunks of 50 trials,
# the size the workloads were first measured at: a 1000-trial certificate of
# `ckgeom verify` (the CLI default, and criteria 2 and 9) is 20 such chunks.
SIZES = {
    "cross_ratio_suite": (250, 5000),
    "incidence_sweep": (50, 50),
    "trig_sweep": (50, 50),
}
WORKLOADS = tuple(SIZES)


def certified_ids():
    """Every theorem id some workload certifies."""
    return [t for t, (_, geoms, report_only) in lab.THEOREMS.items()
            if not report_only
            and any((t, g) not in KNOWN_FAILING for g in geoms)]


def make_workload(name: str, trials: int | None = None):
    """The named workload; `trials` overrides both sizes for a tiny run."""
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
    v, g = SIZES[name] if trials is None else (trials, trials)
    if name == "cross_ratio_suite":
        return CrossRatioSuite(v, g)
    if name == "incidence_sweep":
        return CliSweep(lab.INCIDENCE_THEOREMS,
                        [(t, lab.HYPERBOLIC) for t in lab.INCIDENCE_THEOREMS],
                        True, v, g)
    trig_ids = [t for t, (_, _, report_only) in lab.THEOREMS.items()
                if t not in lab.INCIDENCE_THEOREMS and not report_only]
    return CliSweep(trig_ids, TRIG_GUARDS, False, v, g)

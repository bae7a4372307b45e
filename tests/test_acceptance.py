"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest -s tests/test_acceptance.py` to see
the lines as they complete."""

import math
import random
import time

from ckgeom import centers as ce
from ckgeom import errors
from ckgeom import lab
from ckgeom import metric as mt
from ckgeom import projective as pj
from ckgeom import rays as ry
from ckgeom import trig as tg
from ckgeom.projective import (
    affine_point,
    cross_ratio_points,
    hpoint,
    join_points,
    meet_lines,
)

SEED = 20260810


def _line(num, name, ok, detail=""):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name} {detail}")
    assert ok, f"criterion {num} failed: {name} {detail}"


# -- 1: cross-ratio suite ----------------------------------------------------

def test_criterion_1_cross_ratio_suite():
    rng = random.Random(SEED)
    n = 10_000
    worst = 0.0
    t0 = time.perf_counter()
    sep_checked = 0
    for k in range(n):
        base = rng.uniform(-1, 1), rng.uniform(-1, 1)
        d = rng.uniform(-1, 1), rng.uniform(-1, 1)
        ts = []
        while len(ts) < 5:
            t = rng.uniform(-4, 4)
            if all(abs(t - s) > 1e-2 for s in ts):
                ts.append(t)
        pts = [hpoint(base[0] + t * d[0], base[1] + t * d[1], 1.0) for t in ts]
        a, b, c, dd, e = pts
        r = cross_ratio_points(a, b, c, dd)
        sc = max(1.0, abs(r))
        worst = max(worst, abs(cross_ratio_points(a, b, dd, c) - 1 / r) / sc)
        worst = max(worst, abs(cross_ratio_points(a, c, b, dd) - (1 - r)) / sc)
        chain = cross_ratio_points(a, b, e, dd) * cross_ratio_points(a, b, c, e)
        worst = max(worst, abs(chain - r) / sc)
        if k % 10 == 0:
            center = affine_point(rng.uniform(-3, 3), rng.uniform(2, 5))
            sec = join_points(affine_point(-5, rng.uniform(-4, -2)),
                              affine_point(5, rng.uniform(-4, -2)))
            imgs = [meet_lines(join_points(center, p), sec) for p in pts[:4]]
            worst = max(worst, abs(cross_ratio_points(*imgs) - r) / sc)
        # separation lemma vs interleaving on the chart parameters
        t1, t2, t3, t4 = ts[:4]
        lo, hi = min(t1, t2), max(t1, t2)
        expected = (lo < t3 < hi) != (lo < t4 < hi)
        if pj.separates(a, b, c, dd) != expected:
            _line(1, "cross-ratio suite", False, "separation mismatch")
        sep_checked += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 1.0 and sep_checked == n
    _line(1, "cross-ratio suite",
          ok, f"(n={n}, max residual {worst:.2e}, {dt:.2f}s)")


# -- 2: incidence-theorem sweep ----------------------------------------------

SWEEP_IDS = (
    "desargues", "pascal", "chasles", "pappus_involution", "altitudes",
    "midpoint_quadrilateral", "medians", "side_bisectors", "angle_bisectors",
    "pseudo_spieker", "pseudomedians", "pseudobisectors", "euler_wildberger",
    "orthic_axis_pole", "nine_point_conic", "pascal_line_hexagon",
    "eleven_point_conic", "six_points_conic", "complementary_midpoints_conic",
    "magic_midpoints",
)


def test_criterion_2_incidence_sweep():
    t0 = time.perf_counter()
    worst = 0.0
    all_pass = True
    for tid in SWEEP_IDS:
        for geometry in (lab.HYPERBOLIC, lab.ELLIPTIC):
            cert = lab.verify(tid, seed=SEED, trials=1000, geometry=geometry,
                              tol=1e-9)
            worst = max(worst, cert.max_residual)
            if not cert.passed:
                all_pass = False
                print(f"        sweep FAIL: {tid}/{geometry} "
                      f"{cert.max_residual:.2e}")
    dt = time.perf_counter() - t0
    ok = all_pass and dt <= 60.0
    _line(2, "incidence-theorem sweep", ok,
          f"(20 ids x 2 geometries x 1000 trials, worst {worst:.2e}, {dt:.1f}s)")


# -- 3: metric sanity ----------------------------------------------------------

def test_criterion_3_metric_sanity():
    hyp = mt.hyperbolic_model()
    d = mt.distance(hyp, affine_point(0, 0), affine_point(0.5, 0))
    ok1 = abs(d - 0.5 * math.log(3.0)) <= 1e-12 and \
        abs(d - math.atanh(0.5)) <= 1e-12
    ang = mt.angle_lines(hyp, pj.hline(0, 1, 0), pj.hline(1, -1, 0))
    ok2 = abs(ang - math.pi / 4) <= 1e-12
    worst = 0.0
    rng = random.Random(SEED + 3)
    n = 0
    while n < 1000:
        x1, y1 = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
        x2, y2 = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
        if x1 * x1 + y1 * y1 > 0.81 or x2 * x2 + y2 * y2 > 0.81:
            continue
        if math.hypot(x1 - x2, y1 - y2) < 1e-3:
            continue
        a, b = affine_point(x1, y1), affine_point(x2, y2)
        c, _, _ = mt.squared_trig(hyp, a, b)
        dd = mt.distance(hyp, a, b)
        worst = max(worst, abs(c - math.cosh(dd) ** 2) / max(1.0, abs(c)))
        n += 1
    ok3 = worst <= 1e-9
    _line(3, "metric sanity", ok1 and ok2 and ok3,
          f"(cosh^2 worst {worst:.2e})")


# -- 4: right-angled identities and the unsquared table -----------------------

def test_criterion_4_right_angled_trig():
    kinds = (("right:elliptic", lab.ELLIPTIC), ("right:hyp-right", lab.HYPERBOLIC),
             ("right:lambert", lab.HYPERBOLIC), ("right:pentagon", lab.HYPERBOLIC))
    worst_sq = 0.0
    worst_row = 0.0
    for kind, geometry in kinds:
        done = 0
        trial = 0
        while done < 500:
            rng = lab.trial_rng(SEED + 4, trial)
            trial += 1
            try:
                cfg = lab.random_triangle_config(rng, geometry, kind)
            except errors.GeometryError:
                continue
            for name in tg.IDENTITY_NAMES:
                worst_sq = max(worst_sq, tg.squared_identity(name, cfg))
            worst_row = max(worst_row, max(r[3] for r in tg.table_5_1(cfg)))
            done += 1
    ok = worst_sq <= 1e-8 and worst_row <= 1e-8
    _line(4, "T1-T6 and the unsquared table", ok,
          f"(4 kinds x 500, squared {worst_sq:.2e}, rows {worst_row:.2e})")


# -- 5: general squared laws ----------------------------------------------------

def test_criterion_5_squared_laws():
    kinds = (("generic", lab.ELLIPTIC), ("generic", lab.HYPERBOLIC),
             ("ext1", lab.HYPERBOLIC), ("ext2", lab.HYPERBOLIC),
             ("ext3", lab.HYPERBOLIC))
    worst_sin = 0.0
    worst_cos = 0.0
    ties = 0
    for kind, geometry in kinds:
        done = 0
        trial = 0
        while done < 1000:
            rng = lab.trial_rng(SEED + 5, trial)
            trial += 1
            try:
                cfg = lab.random_triangle_config(rng, geometry, kind)
            except errors.GeometryError:
                continue
            _, spread = tg.squared_law_of_sines(cfg)
            res, matches = tg.squared_law_of_cosines(cfg)
            worst_sin = max(worst_sin, spread)
            worst_cos = max(worst_cos, res)
            if matches != 1:
                ties += 1
            done += 1
    ok = worst_sin <= 1e-8 and worst_cos <= 1e-8 and ties == 0
    _line(5, "squared laws of sines/cosines", ok,
          f"(5 kinds x 1000, sines {worst_sin:.2e}, cosines {worst_cos:.2e}, "
          f"branch ties {ties})")


# -- 6: Carnot ------------------------------------------------------------------

def test_criterion_6_carnot():
    cert = lab.verify("carnot_projective", seed=SEED + 6, trials=1000,
                      geometry=lab.HYPERBOLIC, tol=1e-9)
    ok_proj = cert.passed
    # hyperbolic iff, both directions
    hyp_pass = 0
    hyp_fail_margin = 0
    done = 0
    trial = 0
    while done < 500:
        rng = lab.trial_rng(SEED + 61, trial)
        trial += 1
        try:
            cfg = lab.random_triangle_config(rng, lab.HYPERBOLIC, "generic")
        except errors.GeometryError:
            continue
        if not all(cfg.model.is_interior(v) for v in (cfg.A, cfg.B, cfg.C)):
            continue
        hstar = lab._interior_point(rng, 0.8)
        astar, bstar, cstar = tg.concurrent_carnot_points(cfg, hstar)
        if not all(cfg.model.is_interior(p) for p in (astar, bstar, cstar)):
            continue
        lhs, rhs = tg.carnot_hyperbolic_sides(
            cfg, tg.carnot_segments(cfg, astar, bstar, cstar))
        if abs(lhs - rhs) / max(1.0, abs(lhs)) <= 1e-9:
            hyp_pass += 1
        # a generic non-concurrent witness on the same triangle
        def interior_on(p, q):
            for _ in range(50):
                s = rng.uniform(-1, 1)
                x = hpoint(p[0] + s * q[0], p[1] + s * q[1], p[2] + s * q[2])
                if cfg.model.is_interior(x):
                    return x
            return None
        a2 = interior_on(cfg.B, cfg.C)
        b2 = interior_on(cfg.C, cfg.A)
        c2 = interior_on(cfg.A, cfg.B)
        if a2 is None or b2 is None or c2 is None:
            continue
        cc = tg.carnot_cosines(cfg, a2, b2, c2)
        if cc.concurrency_residual > 1e-3:
            lhs2, rhs2 = tg.carnot_hyperbolic_sides(cfg, cc.segments)
            if abs(lhs2 - rhs2) > 1e-6:
                hyp_fail_margin += 1
            done += 1
    ok_hyp = hyp_pass >= 500 * 0.999 and hyp_fail_margin == done == 500
    # elliptic fake points: identity passes, concurrency fails, every trial
    fake_ok = 0
    done_e = 0
    trial = 0
    while done_e < 500:
        rng = lab.trial_rng(SEED + 62, trial)
        trial += 1
        try:
            cfg = lab.random_triangle_config(rng, lab.ELLIPTIC, "generic")
            s1 = rng.uniform(-1, 1)
            s2 = rng.uniform(-1, 1)
            bstar = hpoint(cfg.C[0] + s1 * cfg.A[0], cfg.C[1] + s1 * cfg.A[1],
                           cfg.C[2] + s1 * cfg.A[2])
            cstar = hpoint(cfg.A[0] + s2 * cfg.B[0], cfg.A[1] + s2 * cfg.B[1],
                           cfg.A[2] + s2 * cfg.B[2])
            fake, dstar = tg.fake_carnot_points(cfg, bstar, cstar)
            if pj.points_equal(fake, dstar, 1e-6):
                continue
            cc = tg.carnot_cosines(cfg, fake, bstar, cstar)
            lhs, rhs = tg.carnot_elliptic_sides(cfg, cc.segments)
        except errors.GeometryError:
            continue
        done_e += 1
        if (cc.identity_residual <= 1e-9
                and abs(lhs - rhs) / max(1.0, abs(lhs)) <= 1e-9
                and cc.concurrency_residual > 1e-6):
            fake_ok += 1
    ok_fake = fake_ok == 500
    # hexagon variant
    cert_hex = lab.verify("carnot_hexagon", seed=SEED + 63, trials=300,
                          geometry=lab.HYPERBOLIC, tol=1e-9)
    ok = ok_proj and ok_hyp and ok_fake and cert_hex.passed
    _line(6, "Carnot family", ok,
          f"(projective {cert.max_residual:.2e}, iff {hyp_pass}/500+"
          f"{hyp_fail_margin}/500, fake {fake_ok}/500, "
          f"hexagon {cert_hex.max_residual:.2e})")


# -- 7: unsquared laws -----------------------------------------------------------

def test_criterion_7_unsquared_laws():
    kinds = (("generic", lab.ELLIPTIC, 250), ("generic", lab.HYPERBOLIC, 250),
             ("quadrilateral", lab.HYPERBOLIC, 250),
             ("hexagon", lab.HYPERBOLIC, 250))
    oriented = 0
    total = 0
    worst_law = 0.0
    worst_geo = 0.0
    for kind, geometry, count in kinds:
        done = 0
        trial = 0
        while done < count:
            rng = lab.trial_rng(SEED + 7, trial)
            trial += 1
            try:
                cfg = lab.random_triangle_config(rng, geometry, kind)
            except errors.GeometryError:
                continue
            done += 1
            total += 1
            try:
                o = tg.coherent_orientation(cfg)
            except errors.NoCoherentAssignment:
                continue
            oriented += 1
            _, spread = tg.projective_law_of_sines(o)
            worst_law = max(worst_law, spread)
            worst_law = max(worst_law,
                            *tg.projective_laws_of_cosines(o).values())
            if kind == "generic" and geometry == lab.ELLIPTIC:
                geo = tg.elliptic_triangle_laws(cfg)
            elif kind == "generic":
                geo = tg.hyperbolic_triangle_laws(cfg)
            elif kind == "hexagon":
                geo = tg.hexagon_laws(cfg)
            else:
                geo = tg.quadrilateral_laws(cfg)
            worst_geo = max(worst_geo, max(geo.values()))
    ok = oriented == total == 1000 and worst_law <= 1e-8 and worst_geo <= 1e-8
    _line(7, "unsquared projective laws", ok,
          f"(oriented {oriented}/{total}, laws {worst_law:.2e}, "
          f"translations {worst_geo:.2e})")


# -- 8: ray angles -----------------------------------------------------------------

def test_criterion_8_ray_angles():
    hyp = mt.hyperbolic_model()
    worst = 0.0
    done = 0
    trial = 0
    while done < 1000:
        rng = lab.trial_rng(SEED + 8, trial)
        trial += 1
        o = lab._interior_point(rng, 0.7)
        p = lab._interior_point(rng, 0.85)
        q = lab._interior_point(rng, 0.85)
        if lab.point_gap(o, p) < 1e-2 or lab.point_gap(o, q) < 1e-2:
            continue
        try:
            r1 = ry.ray_towards(hyp, o, p)
            r2 = ry.ray_towards(hyp, o, q)
            ang = ry.angle_between_rays(hyp, r1, r2)
            c1 = ry.ray_cosine_opposite(hyp, r1, r2)
            c2 = ry.ray_cosine_conjugate(hyp, r1, r2)
            other = ry.other_trace(r2, hyp.absolute)
            supp = ry.angle_between_rays(hyp, r1, ry.Ray(o, r2.carrier, other))
        except errors.GeometryError:
            continue
        done += 1
        worst = max(worst, abs(c1 - math.cos(ang)), abs(c2 - c1),
                    abs(ang + supp - math.pi))
    ok = worst <= 1e-9
    _line(8, "ray-angle formulas", ok, f"(1000 configs, worst {worst:.2e})")


# -- 9: perturbation guard ------------------------------------------------------

def test_criterion_9_perturbation_guard():
    worst_frac = 1.0
    weak = []
    for tid in lab.INCIDENCE_THEOREMS:
        frac = lab.perturbation_guard(tid, seed=SEED + 9, trials=1000,
                                      geometry=lab.HYPERBOLIC,
                                      eps=1e-3, threshold=1e-7)
        worst_frac = min(worst_frac, frac)
        if frac < 0.99:
            weak.append((tid, frac))
    ok = not weak
    _line(9, "perturbation guard", ok,
          f"(20 theorems x 1000 trials, min detection {worst_frac:.3f})")


# -- 10: conjecture report --------------------------------------------------------

def test_criterion_10_conjecture_report():
    stats = {}
    done = 0
    trial = 0
    while done < 100:
        rng = lab.trial_rng(SEED + 10, trial)
        trial += 1
        try:
            cfg = lab.random_triangle_config(rng, lab.HYPERBOLIC, "generic")
            rep = ce.experimental_conjectures(cfg)
        except errors.GeometryError:
            continue
        done += 1
        for key, val in rep.items():
            if isinstance(val, float):
                cur = stats.setdefault(key, [0, 0.0])
                cur[0] += 1 if val <= 1e-8 else 0
                cur[1] = max(cur[1], val)
    print("        experimental conjecture statistics (report only, ungated):")
    for key, (hits, worst) in sorted(stats.items()):
        print(f"          {key:28s} holds {hits}/{done}  worst {worst:.2e}")
    # the report is informational; the criterion is that it exists and that
    # conjectures never gate certification
    cert = lab.verify("conjectures", seed=SEED + 10, trials=20)
    _line(10, "conjecture report (ungated)", cert.report_only and cert.passed,
          f"({done} scenes summarized)")

import cmath
import math

import pytest

from ckgeom import conics as cn
from ckgeom import errors
from ckgeom import metric as mt
from ckgeom import rays as ry
from ckgeom.projective import (
    HPoint,
    affine_point,
    incidence_residual,
    points_equal,
)
from conftest import ambient_tol, interior_point
from oracles import oracle_other_trace


def test_rays_from_the_center(hyp):
    # the two rays into which the center divides the x-axis end at (-1, 0)
    # and (1, 0): `ray_towards` takes the target's end, and keeps the other
    p = affine_point(0, 0)
    left = ry.ray_towards(hyp, p, affine_point(-0.5, 0))
    assert points_equal(left.endpoint, affine_point(-1, 0))
    assert points_equal(left.opposite, affine_point(1, 0))
    right = ry.ray_towards(hyp, p, affine_point(0.5, 0))
    assert points_equal(right.endpoint, affine_point(1, 0))


def test_ray_endpoints_lie_on_the_absolute(hyp, rng):
    for _ in range(10):
        p = interior_point(rng, 0.7)
        r = ry.ray_towards(hyp, p, interior_point(rng))
        assert not points_equal(r.endpoint, r.opposite)
        for end in (r.endpoint, r.opposite):
            assert cn.conic_residual(hyp.absolute, end) < 1e-10
            assert incidence_residual(r.carrier, end) < 1e-10


def test_angles_at_center_conformal(hyp):
    p = affine_point(0, 0)
    rx = ry.ray_towards(hyp, p, affine_point(0.5, 0))
    ry_ = ry.ray_towards(hyp, p, affine_point(0, 0.5))
    assert abs(ry.angle_between_rays(hyp, rx, ry_) - math.pi / 2) < 1e-12
    r34 = ry.ray_towards(hyp, p, affine_point(-0.4, 0.4))
    assert abs(ry.angle_between_rays(hyp, rx, r34) - 3 * math.pi / 4) < 1e-12
    r14 = ry.ray_towards(hyp, p, affine_point(0.4, 0.4))
    assert abs(ry.angle_between_rays(hyp, rx, r14) - math.pi / 4) < 1e-12


def test_cosine_formulas_agree(hyp, rng):
    for _ in range(25):
        o = interior_point(rng, 0.7)
        p = interior_point(rng, 0.85)
        q = interior_point(rng, 0.85)
        try:
            r1 = ry.ray_towards(hyp, o, p)
            r2 = ry.ray_towards(hyp, o, q)
            ang = ry.angle_between_rays(hyp, r1, r2)
            c1 = ry.ray_cosine_opposite(hyp, r1, r2)
            c2 = ry.ray_cosine_conjugate(hyp, r1, r2)
        except errors.GeometryError:
            continue
        assert abs(c1 - math.cos(ang)) < 1e-9
        assert abs(c2 - math.cos(ang)) < 1e-9


def test_supplement_relation(hyp, rng):
    for _ in range(10):
        o = interior_point(rng, 0.6)
        p = interior_point(rng, 0.8)
        q = interior_point(rng, 0.8)
        r1 = ry.ray_towards(hyp, o, p)
        r2 = ry.ray_towards(hyp, o, q)
        r2b = ry.Ray(r2.origin, r2.carrier, r2.opposite, r2.endpoint)
        a1 = ry.angle_between_rays(hyp, r1, r2)
        a2 = ry.angle_between_rays(hyp, r1, r2b)
        assert abs(a1 + a2 - math.pi) < 1e-10


def test_line_angle_compatibility(hyp, rng):
    for _ in range(10):
        o = interior_point(rng, 0.6)
        p = interior_point(rng, 0.8)
        q = interior_point(rng, 0.8)
        r1 = ry.ray_towards(hyp, o, p)
        r2 = ry.ray_towards(hyp, o, q)
        theta = ry.angle_between_rays(hyp, r1, r2)
        folded = min(theta, math.pi - theta)
        assert abs(folded - mt.angle_lines(hyp, r1.carrier, r2.carrier)) < 1e-9


def test_acute_obtuse_separation_rule(hyp, rng):
    # positive cosine iff the primary endpoints do not separate the
    # conjugate-line endpoints on the conic
    for _ in range(15):
        o = interior_point(rng, 0.6)
        p = interior_point(rng, 0.8)
        q = interior_point(rng, 0.8)
        try:
            r1 = ry.ray_towards(hyp, o, p)
            r2 = ry.ray_towards(hyp, o, q)
            c2 = ry.ray_cosine_conjugate(hyp, r1, r2)
        except errors.GeometryError:
            continue
        if abs(c2.real) < 1e-6:
            continue
        # (A1 B1 B1' A1') > 0 <=> no separation on the conic; the value is
        # the cosine, so the sign rule is the acute/obtuse dichotomy
        ang = ry.angle_between_rays(hyp, r1, r2)
        assert (c2.real > 0) == (ang < math.pi / 2)


def test_different_origins(hyp):
    r1 = ry.ray_towards(hyp, affine_point(0, 0), affine_point(0.5, 0))
    r2 = ry.ray_towards(hyp, affine_point(0.1, 0.1), affine_point(0, 0.5))
    with pytest.raises(errors.DifferentOrigins):
        ry.angle_between_rays(hyp, r1, r2)


def test_auxiliary_circle_variant(hyp):
    # the same machinery with a circle centered at P as the absolute
    # reproduces euclidean angles in the chart
    p = affine_point(0.2, -0.1)
    circle = cn.Conic(1.0, 1.0, -(0.3 ** 2) + 0.2 ** 2 + 0.1 ** 2,
                      0.0, -0.2, 0.1)
    # (x-0.2)^2 + (y+0.1)^2 = 0.09
    t1 = affine_point(0.2 + 0.4, -0.1)
    t2 = affine_point(0.2 + 0.3, -0.1 + 0.3)
    model = mt.ModelGeometry(circle)
    r1 = ry.ray_towards(model, p, t1)
    r2 = ry.ray_towards(model, p, t2)
    ang = ry.angle_between_rays(model, r1, r2)
    assert abs(ang - math.pi / 4) < 1e-10


def test_ray_angle_cross_ratios_rescaling_invariant(hyp, rng):
    # the conic cross ratios behind angle_between_rays and ray_cosine_opposite
    # do not depend on the scale of their four homogeneous inputs
    absolute = hyp.absolute
    checked = 0
    for _ in range(20):
        o = interior_point(rng, 0.6)
        try:
            r1 = ry.ray_towards(hyp, o, interior_point(rng, 0.8))
            r2 = ry.ray_towards(hyp, o, interior_point(rng, 0.8))
            u, v = cn.line_conic_meet(absolute, cn.polar(absolute, o)).points
            quads = ((u, v, r1.endpoint, r2.endpoint),
                     (r1.endpoint, r2.endpoint, r2.opposite, r1.opposite))
            values = [cn.cross_ratio_on_conic(absolute, *q)
                      for q in quads]
        except errors.GeometryError:
            continue
        for quad, val in zip(quads, values):
            scaled = []
            for p in quad:
                lam = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
                scaled.append(HPoint(*(lam * x for x in p)))
            got = cn.cross_ratio_on_conic(absolute, *scaled)
            assert abs(got - val) < 1e-9 * max(1.0, abs(val))
        checked += 1
    assert checked >= 15


def _drawn_rays(seed, counters):
    """(o, r1, r2) of each `ray_angles` trial of `counters` that passes its
    gap guard: the two rays from o that the check draws."""
    from ckgeom import lab
    hyp = mt.hyperbolic_model()
    for counter in counters:
        rng = lab.trial_rng(seed, counter)
        o = lab._interior_point(rng, 0.7)
        p = lab._interior_point(rng, 0.85)
        q = lab._interior_point(rng, 0.85)
        if lab.point_gap(o, p) < 1e-2 or lab.point_gap(o, q) < 1e-2:
            continue
        yield o, ry.ray_towards(hyp, o, p), ry.ray_towards(hyp, o, q)


def test_a_ray_keeps_the_traces_the_oracle_meets_again(hyp):
    # the opposite trace that `ray_towards` keeps, and the contact points
    # that `angle_between_rays` keeps, are the points met again, bit for bit
    absolute = hyp.absolute
    n = 0
    with ambient_tol(1e-9):
        for o, r1, r2 in _drawn_rays(0, range(500)):
            for r in (r1, r2):
                assert repr(r.opposite) == repr(oracle_other_trace(r, absolute))
            assert r1.contacts is None
            ry.angle_between_rays(hyp, r1, r2)
            met = cn.line_conic_meet(absolute, cn.polar(absolute, o)).points
            assert repr(r1.contacts) == repr(met)
            n += 1
    assert n > 450


@pytest.mark.parametrize("perturb, calls", [(0.0, 5), (1e-3, 7)])
def test_a_ray_angles_trial_meets_each_line_with_the_absolute_once(
        monkeypatch, perturb, calls):
    # the two carriers, the polar of the origin and the two conjugate lines
    # (5); a guard trial adds the two carriers of `vertex_angle` (7)
    from ckgeom import lab
    counted = []
    meet = cn.line_conic_meet

    def counting(conic, line):
        counted.append(line)
        return meet(conic, line)

    monkeypatch.setattr(cn, "line_conic_meet", counting)
    trials = 0
    with ambient_tol(1e-9):
        for counter in range(200):
            del counted[:]
            res = lab._chk_ray_angles(lab.trial_rng(0, counter), "hyperbolic",
                                      1e-9, perturb)
            if res is None:
                assert counted == []
                continue
            assert len(counted) == calls
            trials += 1
    assert trials > 180

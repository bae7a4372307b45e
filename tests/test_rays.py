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
from conftest import interior_point


def test_rays_from_the_center(hyp):
    # the two rays into which the center divides the x-axis end at (-1, 0)
    # and (1, 0): `ray_towards` picks the target's end, `other_trace` the other
    p = affine_point(0, 0)
    left = ry.ray_towards(hyp, p, affine_point(-0.5, 0))
    assert points_equal(left.endpoint, affine_point(-1, 0))
    assert points_equal(ry.other_trace(left, hyp.absolute), affine_point(1, 0))
    right = ry.ray_towards(hyp, p, affine_point(0.5, 0))
    assert points_equal(right.endpoint, affine_point(1, 0))


def test_ray_endpoints_lie_on_the_absolute(hyp, rng):
    for _ in range(10):
        p = interior_point(rng, 0.7)
        r = ry.ray_towards(hyp, p, interior_point(rng))
        opposite = ry.other_trace(r, hyp.absolute)
        assert not points_equal(r.endpoint, opposite)
        for end in (r.endpoint, opposite):
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
        other = ry.other_trace(r2, hyp.absolute)
        r2b = ry.Ray(r2.origin, r2.carrier, other)
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
            a2 = ry.other_trace(r1, absolute)
            b2 = ry.other_trace(r2, absolute)
            quads = ((u, v, r1.endpoint, r2.endpoint),
                     (r1.endpoint, r2.endpoint, b2, a2))
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

import cmath
import math

import pytest

from ckgeom import conics as cn
from ckgeom import errors
from ckgeom import metric as mt
from ckgeom import projective as pj
from ckgeom.projective import (
    affine_point,
    cross_ratio_points,
    hline,
    hpoint,
    join_points,
    points_equal,
)
from conftest import exterior_point, interior_point


def test_distance_artanh_oracle(hyp):
    # Klein-model oracle along a diameter: d(0, x) = artanh(x)
    d = mt.distance(hyp, affine_point(0, 0), affine_point(0.5, 0))
    assert abs(d - math.atanh(0.5)) < 1e-12
    assert abs(d - 0.5 * math.log(3.0)) < 1e-12
    for x in (0.1, 0.33, 0.77):
        got = mt.distance(hyp, affine_point(0, 0), affine_point(x, 0))
        assert abs(got - math.atanh(x)) < 1e-12


def test_distance_properties(hyp, rng):
    a = interior_point(rng)
    assert mt.distance(hyp, a, a) == 0.0
    b = interior_point(rng)
    assert abs(mt.distance(hyp, a, b) - mt.distance(hyp, b, a)) < 1e-14
    # additivity along a line
    mid = hpoint(0.6 * a[0] + 0.4 * b[0], 0.6 * a[1] + 0.4 * b[1],
                 0.6 * a[2] + 0.4 * b[2])
    total = mt.distance(hyp, a, b)
    assert abs(mt.distance(hyp, a, mid) + mt.distance(hyp, mid, b) - total) < 1e-11
    with pytest.raises(errors.PointOutsideModel):
        mt.distance(hyp, a, affine_point(2, 2))


def test_elliptic_line_length_is_pi(ell):
    # antipodal chart points approach the two ends of a closed geodesic:
    # the two segment lengths sum to pi
    a = affine_point(0.2, 0.0)
    b = affine_point(-4.0, 0.0)
    d1 = mt.distance(ell, a, b)
    d2 = mt.distance(ell, a, affine_point(40.0, 0.0))
    # distance takes the shorter arc, always <= pi/2
    assert d1 <= math.pi / 2 + 1e-12
    assert d2 <= math.pi / 2 + 1e-12
    # chord convention: d(0, t) -> pi/2 as t -> infinity on a line
    far = mt.distance(ell, affine_point(0, 0), hpoint(1, 0, 1e-9))
    assert abs(far - math.pi / 2) < 1e-6


def test_angle_conformal_at_center(hyp):
    ang = mt.angle_lines(hyp, hline(0, 1, 0), hline(1, -1, 0))
    assert abs(ang - math.pi / 4) < 1e-12
    assert mt.angle_lines(hyp, hline(0, 1, 0), hline(0, 1, 0)) == 0.0
    assert abs(mt.angle_lines(hyp, hline(0, 1, 0), hline(1, 0, 0))
               - math.pi / 2) < 1e-12


def test_perpendicular_iff_conjugate(hyp, rng):
    assert mt.is_perpendicular(hyp, hline(0, 1, 0), hline(1, 0, 0))
    assert not mt.is_perpendicular(hyp, hline(0, 1, 0), hline(1, -1, 0))
    for _ in range(10):
        p = interior_point(rng)
        a = join_points(p, interior_point(rng))
        b = cn.conjugate_line(hyp.absolute, a, p)
        assert mt.is_perpendicular(hyp, a, b)
        assert abs(mt.angle_lines(hyp, a, b) - math.pi / 2) < 1e-9


def test_midpoints_symmetric_example(hyp):
    m1, m2 = mt.midpoints(hyp, affine_point(-0.5, 0), affine_point(0.5, 0))
    pair = {tuple(round(abs(x), 9) for x in m) for m in (m1, m2)}
    assert points_equal(m1, affine_point(0, 0)) or points_equal(m2, affine_point(0, 0))
    assert points_equal(m1, hpoint(1, 0, 0)) or points_equal(m2, hpoint(1, 0, 0))


def test_midpoints_double_harmonic(hyp, rng):
    for _ in range(20):
        a, b = interior_point(rng), interior_point(rng)
        if points_equal(a, b):
            continue
        q1, q2 = mt.midpoints(hyp, a, b)
        line = join_points(a, b)
        u, v = cn.line_conic_meet(hyp.absolute, line).points
        assert abs(cross_ratio_points(a, b, q1, q2) + 1.0) < 1e-9
        assert abs(cross_ratio_points(u, v, q1, q2) + 1.0) < 1e-9
        # midpoints of the conjugate pair coincide with these
        ap = cn.conjugate_point(hyp.absolute, a, line)
        bp = cn.conjugate_point(hyp.absolute, b, line)
        k1, k2 = mt.midpoints(hyp, ap, bp)
        assert (points_equal(k1, q1) and points_equal(k2, q2)) or \
               (points_equal(k1, q2) and points_equal(k2, q1))
        # bisection for the interior midpoint
        qin = q1 if hyp.is_interior(q1) else q2
        assert abs(mt.distance(hyp, a, qin) - mt.distance(hyp, qin, b)) < 1e-9


def test_midpoints_tangent_line(hyp):
    a, b = affine_point(-0.9, 1.0), affine_point(0.7, 1.0)
    m1, m2 = mt.midpoints(hyp, a, b)
    contact = affine_point(0, 1)
    assert points_equal(m1, contact) or points_equal(m2, contact)
    assert abs(cross_ratio_points(a, b, m1, m2) + 1.0) < 1e-12
    with pytest.raises(errors.EndpointOnConic):
        mt.midpoints(hyp, affine_point(0, 1), affine_point(0.5, 0))


def _segment(kind, hyp, ell, rng):
    """A segment of the given kind with its model."""
    if kind == "interior":
        return hyp, interior_point(rng), interior_point(rng)
    if kind == "mixed":  # interior/exterior: the midpoints are imaginary
        return hyp, interior_point(rng), exterior_point(rng)
    if kind == "elliptic":
        return ell, exterior_point(rng, 0.1, 3.0), exterior_point(rng, 0.1, 3.0)
    # on the tangent at a point T of the absolute
    th = rng.uniform(0, 2 * math.pi)
    c, s = math.cos(th), math.sin(th)
    u, v = rng.uniform(0.1, 2.0), -rng.uniform(0.1, 2.0)
    return hyp, affine_point(c - u * s, s + u * c), affine_point(c - v * s, s + v * c)


@pytest.mark.parametrize("kind", ["interior", "mixed", "elliptic", "tangent"])
def test_midpoints_closed_form_harmonic(hyp, ell, rng, kind):
    # both points are harmonic to {A, B} and to the absolute trace of AB;
    # on a tangent line the trace is the contact point, one of the pair
    for _ in range(25):
        model, a, b = _segment(kind, hyp, ell, rng)
        m1, m2 = mt.midpoints(model, a, b)
        assert (m1, m2) == mt.sort_point_pair(m2, m1)
        assert abs(cross_ratio_points(a, b, m1, m2) + 1.0) < 1e-9
        line = join_points(a, b)
        meet = cn.line_conic_meet(model.absolute, line)
        u, v = meet.points
        if kind == "tangent":
            assert meet.status == cn.TANGENT
            assert points_equal(m1, u, 1e-7) or points_equal(m2, u, 1e-7)
        else:
            assert abs(cross_ratio_points(u, v, m1, m2) + 1.0) < 1e-9
        if kind == "mixed":
            assert not pj.is_real_triple(m1) and not pj.is_real_triple(m2)
        if kind == "elliptic":
            assert pj.is_real_triple(m1) and pj.is_real_triple(m2)


@pytest.mark.parametrize("kind", ["interior", "mixed", "elliptic", "tangent"])
def test_midpoints_rescaling_invariant(hyp, ell, rng, kind):
    for _ in range(25):
        model, a, b = _segment(kind, hyp, ell, rng)
        la = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
        lb = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
        m1, m2 = mt.midpoints(model, a, b)
        k1, k2 = mt.midpoints(model, pj.HPoint(*(la * x for x in a)),
                              pj.HPoint(*(lb * x for x in b)))
        assert points_equal(m1, k1) and points_equal(m2, k2)


def test_midpoints_degenerate_endpoints(hyp, ell):
    a = affine_point(0.3, -0.2)
    for model in (hyp, ell):
        with pytest.raises(errors.CoincidentPoints):
            mt.midpoints(model, a, a)
        with pytest.raises(errors.CoincidentPoints):
            mt.midpoints(model, a, pj.HPoint(*(2j * x for x in a)))
    with pytest.raises(errors.EndpointOnConic):
        mt.midpoints(hyp, a, affine_point(0.6, 0.8))
    with pytest.raises(errors.EndpointOnConic):
        mt.midpoints(hyp, affine_point(-1, 0), a)
    # on the imaginary absolute: a complex point with x^2 + y^2 + z^2 = 0
    with pytest.raises(errors.EndpointOnConic):
        mt.midpoints(ell, hpoint(1, 1j, 0), a)


def test_midpoint_polars_are_angle_bisectors(hyp, rng):
    # polars of the midpoints of AB bisect the angle between polar(A), polar(B)
    a, b = interior_point(rng, 0.6), interior_point(rng, 0.6)
    q1, q2 = mt.midpoints(hyp, a, b)
    pa, pb = cn.polar(hyp.absolute, a), cn.polar(hyp.absolute, b)
    for q in (q1, q2):
        bis = cn.polar(hyp.absolute, q)
        vertex = pj.meet_lines(pa, pb)
        assert pj.incidence_residual(bis, vertex) < 1e-9


def test_quadrangle_midpoint_constructions_agree(hyp, rng):
    # pole-based and polar-based constructions give the same midpoint set
    a, b = interior_point(rng, 0.7), interior_point(rng, 0.7)
    line = join_points(a, b)
    p = cn.pole(hyp.absolute, line)
    a1, a2 = cn.line_conic_meet(hyp.absolute, join_points(p, a)).points
    b1, b2 = cn.line_conic_meet(hyp.absolute, join_points(p, b)).points
    q = pj.Quadrangle(a1, a2, b1, b2)
    diag = [d for d in q.diagonal_points() if not points_equal(d, p, 1e-7)]
    m1, m2 = mt.midpoints(hyp, a, b)
    assert (points_equal(diag[0], m1, 1e-7) and points_equal(diag[1], m2, 1e-7)) or \
           (points_equal(diag[0], m2, 1e-7) and points_equal(diag[1], m1, 1e-7))


def test_point_symmetry(hyp, rng):
    s = mt.point_symmetry(hyp, affine_point(0, 0), affine_point(0.5, 0))
    assert points_equal(s, affine_point(-0.5, 0))
    center = interior_point(rng, 0.6)
    p = interior_point(rng)
    # involutive
    assert points_equal(mt.point_symmetry(hyp, center,
                        mt.point_symmetry(hyp, center, p)), p)
    # fixes the axis pointwise
    axis = cn.polar(hyp.absolute, center)
    on_axis = pj.meet_lines(axis, hline(0, 1, 0))
    assert points_equal(mt.point_symmetry(hyp, center, on_axis), on_axis)
    # preserves the absolute
    on_conic = hpoint(math.cos(0.83), math.sin(0.83), 1)
    img = mt.point_symmetry(hyp, center, on_conic)
    assert cn.conic_residual(hyp.absolute, img) < 1e-12
    with pytest.raises(errors.CenterOnConic):
        mt.point_symmetry(hyp, affine_point(1, 0), p)


def test_squared_trig_hand_value(hyp):
    c, s, t = mt.squared_trig(hyp, affine_point(0, 0), affine_point(0.5, 0))
    assert abs(c - 4.0 / 3.0) < 1e-12
    assert abs(s + 1.0 / 3.0) < 1e-12
    assert abs(t + 0.25) < 1e-12
    d = mt.distance(hyp, affine_point(0, 0), affine_point(0.5, 0))
    assert abs(c - math.cosh(d) ** 2) < 1e-12


def test_squared_trig_right_segment(hyp):
    a = affine_point(0.2, 0.1)
    line = join_points(a, affine_point(0.5, -0.3))
    ac = cn.conjugate_point(hyp.absolute, a, line)
    c, s, t = mt.squared_trig(hyp, a, ac)
    assert c == 0.0 and s == 1.0 and t == complex(math.inf)


def test_squared_trig_symmetry_and_sum(hyp, rng):
    for _ in range(20):
        a, b = interior_point(rng), exterior_point(rng)
        if pj.incidence_residual(join_points(a, b), a) > 1:
            continue
        c1, s1, _ = mt.squared_trig(hyp, a, b)
        c2, s2, _ = mt.squared_trig(hyp, b, a)
        assert abs(c1 - c2) < 1e-9 * max(1, abs(c1))
        assert abs(c1 + s1 - 1.0) < 1e-9


def test_lemma_four_c(hyp, ell, rng):
    # 4 (AB B_p A_p) = (UVAB) + (UVBA) + 2
    for model in (hyp, ell):
        for _ in range(15):
            a, b = interior_point(rng), interior_point(rng)
            if points_equal(a, b):
                continue
            line = join_points(a, b)
            u, v = cn.line_conic_meet(model.absolute, line).points
            c, _, _ = mt.squared_trig(model, a, b)
            r1 = cross_ratio_points(u, v, a, b)
            r2 = cross_ratio_points(u, v, b, a)
            assert abs(4 * c - (r1 + r2 + 2)) < 1e-9


TABLE_CASES = [
    ("elliptic", "ell"),
    ("hyp-interior-interior", "int-int"),
    ("hyp-mixed", "mixed"),
    ("hyp-exterior-exterior", "ext-ext"),
    ("hyp-exterior-line-angle", "ext-line"),
]


def test_translate_trig_all_rows(hyp, ell, rng):
    seen = set()
    cases = [
        (ell, interior_point(rng), interior_point(rng)),
        (hyp, interior_point(rng, 0.7), interior_point(rng, 0.7)),
        (hyp, interior_point(rng, 0.7), exterior_point(rng)),
        (hyp, affine_point(-1.9, 0.35), affine_point(2.2, -0.1)),
        (hyp, affine_point(2.0, 0.5), affine_point(1.2, 2.0)),
    ]
    for model, a, b in cases:
        tv = mt.translate_trig(model, a, b)
        seen.add(tv.tag)
        assert tv.residual() < 1e-9, tv.tag
    assert seen == {t for t, _ in TABLE_CASES}


def test_oriented_segment_ratios(hyp):
    a, b = affine_point(0, 0), affine_point(0.5, 0)
    mids = mt.midpoints(hyp, a, b)
    # hand evaluation of (A B B_p D): the exterior midpoint gives +cosh(d)
    idx = 1 if hyp.is_interior(mids[0]) else 0
    seg = mt.orient_segment(hyp, a, b, idx, 0)
    cc = seg.cc()
    ss = seg.ss()
    assert abs(cc - 2.0 / math.sqrt(3.0)) < 1e-12
    assert abs(cc * cc - 4.0 / 3.0) < 1e-12
    assert abs(ss * ss + 1.0 / 3.0) < 1e-12
    # even / odd behaviour under direction reversal
    assert abs(seg.cc(reverse=True) - cc) < 1e-12
    assert abs(seg.ss(reverse=True) + ss) < 1e-12
    # the two midpoint choices flip the sign of cc
    seg2 = mt.orient_segment(hyp, a, b, 1 - idx, 0)
    assert abs(seg2.cc() + cc) < 1e-12
    # symmetric segment about the center has the center as a midpoint
    m1, m2 = mt.midpoints(hyp, affine_point(-0.3, 0), affine_point(0.3, 0))
    assert points_equal(m1, affine_point(0, 0)) or points_equal(m2, affine_point(0, 0))


def test_angle_squared_trig_duality(hyp, rng):
    # cos^2 of the Laguerre angle equals the pencil cross ratio (a b b_P a_P)
    for _ in range(10):
        p = interior_point(rng, 0.6)
        a = join_points(p, interior_point(rng))
        b = join_points(p, interior_point(rng))
        if pj.lines_equal(a, b):
            continue
        ap = cn.conjugate_line(hyp.absolute, a, p)
        bp = cn.conjugate_line(hyp.absolute, b, p)
        val = pj.cross_ratio_lines(a, b, bp, ap)
        ang = mt.angle_lines(hyp, a, b)
        assert abs(val - math.cos(ang) ** 2) < 1e-9

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckgeom import errors
from ckgeom import projective as pj
from ckgeom.projective import (
    INF,
    Quadrangle,
    affine_point,
    cross_ratio_lines,
    cross_ratio_points,
    harmonic_conjugate,
    harmonic_involution,
    hline,
    hpoint,
    involution_from_pairs,
    join_points,
    meet_lines,
    points_equal,
    quadrangular_involution,
    separates,
)

X_AXIS = hline(0, 1, 0)


def x_pt(t):
    return affine_point(t, 0.0)


def test_join_points_examples():
    l = join_points(hpoint(1, 0, 1), hpoint(0, 1, 1))
    assert pj.lines_equal(l, hline(1, 1, -1))
    assert pj.lines_equal(join_points(hpoint(0, 0, 1), hpoint(1, 0, 1)), X_AXIS)
    with pytest.raises(errors.CoincidentPoints):
        join_points(hpoint(1, 0, 0), hpoint(1, 0, 0))


def test_meet_lines_examples():
    assert points_equal(meet_lines(hline(0, 1, 0), hline(1, 0, 0)),
                        hpoint(0, 0, 1))
    assert points_equal(meet_lines(hline(1, 1, -1), hline(1, -1, 0)),
                        hpoint(1, 1, 2))
    with pytest.raises(errors.CoincidentLines):
        meet_lines(hline(0, 1, 0), hline(0, 2, 0))


def test_point_gap(rng):
    for _ in range(20):
        p = hpoint(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                   rng.uniform(-1, 1), 1.0)
        c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        scaled = tuple(c * x for x in p)
        assert pj.point_gap(p, scaled) < 1e-14 * abs(c)
        assert pj.triple_eq(p, hpoint(*scaled))
        q = hpoint(p[0] + 0.1, p[1], p[2])
        assert pj.point_gap(p, q) > 1e-3
        assert not pj.triple_eq(p, q)
    assert pj.point_gap(affine_point(0, 0), affine_point(1, 0)) == 1.0


def test_cross_ratio_hand_value():
    # affine x-coordinates 0, 1, 2, 3: hand evaluation of the chart formula
    r = cross_ratio_points(x_pt(0), x_pt(1), x_pt(2), x_pt(3))
    assert abs(r - 4.0 / 3.0) < 1e-14


def test_cross_ratio_harmonic_with_infinity():
    a = hpoint(0, 0, 1)
    b = hpoint(1, 0, 0)
    c = hpoint(1, 0, 1)
    d = hpoint(-1, 0, 1)
    assert abs(cross_ratio_points(a, b, c, d) + 1.0) < 1e-14


def test_cross_ratio_not_collinear():
    with pytest.raises(errors.NotCollinear):
        cross_ratio_points(x_pt(0), x_pt(1), affine_point(0, 1), x_pt(3))
    # A off the line, as the pivot of the carrier products A x B, A x C, A x D
    with pytest.raises(errors.NotCollinear):
        cross_ratio_points(affine_point(0.5, 1), x_pt(0), x_pt(1), x_pt(3))


def _collinear_quadruple(rng, complex_coords):
    def z():
        if complex_coords:
            return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return rng.uniform(-1, 1)

    p = [z() for _ in range(3)]
    q = [z() for _ in range(3)]
    pts = []
    for _ in range(4):
        lam, mu = z(), z()
        pts.append(hpoint(*(lam * p[k] + mu * q[k] for k in range(3))))
    return pts


@pytest.mark.parametrize("complex_coords", [False, True])
def test_carrierless_cross_ratio_matches_explicit_carrier(rng, complex_coords):
    # the carrier only selects the chart axes, so both paths evaluate the
    # same 2x2 determinants and agree bit for bit
    checked = 0
    for _ in range(300):
        a, b, c, d = _collinear_quadruple(rng, complex_coords)
        try:
            r = pj.cross_ratio(a, b, c, d)
        except errors.GeometryError:
            continue
        assert r == pj.cross_ratio(a, b, c, d, carrier=join_points(a, b))
        assert r == pj.cross_ratio(a, b, c, d, carrier=join_points(c, d))
        checked += 1
    assert checked >= 250


@pytest.mark.parametrize("pts, carrier", [
    # D, farthest from A, gives the longest product: the carrier is A x D
    ((hpoint(0, 0, 1), x_pt(0.1), x_pt(0.2), hpoint(1, 1, 0)), hline(1, -1, 0)),
    # the carrier is A x B; C lies on it and D, checked last, does not
    ((x_pt(0), hpoint(1, 0, 0), x_pt(0.5), affine_point(0.2, 0.1)), X_AXIS),
])
def test_cross_ratio_not_collinear_off_carrier(pts, carrier):
    got, _, _ = pj.line_through(*pts, 1e-9)
    assert pj.lines_equal(got, carrier)
    with pytest.raises(errors.NotCollinear):
        cross_ratio_points(*pts)


def test_cross_ratio_coincident_points_degenerate():
    p = affine_point(0.3, -0.7)
    with pytest.raises(errors.DegenerateTriple):
        cross_ratio_points(p, p, p, p)


def test_cross_ratio_lines_not_concurrent():
    # x = 0, y = 0 and y = x meet at the origin; x + y = 1 misses it
    with pytest.raises(errors.NotConcurrent):
        cross_ratio_lines(hline(1, 0, 0), hline(0, 1, 0), hline(1, -1, 0),
                          hline(1, 1, -1))


def test_cross_ratio_coincidence_patterns():
    a, b, c = x_pt(0), x_pt(1), x_pt(2)
    assert cross_ratio_points(a, b, a, c) == 0.0
    assert cross_ratio_points(a, b, c, a) == INF
    assert abs(cross_ratio_points(a, b, c, c) - 1.0) < 1e-14
    with pytest.raises(errors.IndeterminateRatio):
        cross_ratio_points(a, b, a, a)


def _spread_out(ts):
    return min(abs(ts[i] - ts[j])
               for i in range(len(ts)) for j in range(i + 1, len(ts))) > 1e-2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-40, 40), min_size=5, max_size=5,
                unique=True).filter(_spread_out))
def test_cross_ratio_identity_suite(ts):
    # (ABDC) = (ABCD)^-1, (ACBD) = 1 - (ABCD), and the chain rule
    a, b, c, d, e = (x_pt(t) for t in ts)
    r = cross_ratio_points(a, b, c, d)
    assert abs(cross_ratio_points(a, b, d, c) - 1.0 / r) <= 1e-9 * max(1, abs(1 / r))
    assert abs(cross_ratio_points(a, c, b, d) - (1.0 - r)) <= 1e-9 * max(1, abs(1 - r))
    chain = cross_ratio_points(a, b, e, d) * cross_ratio_points(a, b, c, e)
    assert abs(chain - r) <= 1e-9 * max(1.0, abs(r))


def test_projection_invariance(rng):
    # cross ratio is invariant under projection from a center and section
    pts = [x_pt(t) for t in (-1.2, 0.4, 1.7, 2.9)]
    r0 = cross_ratio_points(*pts)
    for _ in range(20):
        center = affine_point(rng.uniform(-2, 2), rng.uniform(0.5, 3))
        sec = join_points(affine_point(rng.uniform(-3, 0), rng.uniform(-3, -1)),
                          affine_point(rng.uniform(1, 3), rng.uniform(-2, 4)))
        images = [meet_lines(join_points(center, p), sec) for p in pts]
        r1 = cross_ratio_points(*images)
        assert abs(r1 - r0) <= 1e-10 * max(1.0, abs(r0))


def test_cross_ratio_lines_harmonic_pencil():
    a = hline(0, 1, 0)      # y = 0
    b = hline(1, 0, 0)      # x = 0
    c = hline(1, -1, 0)     # y = x
    d = hline(1, 1, 0)      # y = -x
    assert abs(cross_ratio_lines(a, b, c, d) + 1.0) < 1e-14


def test_cross_ratio_lines_transversal_agreement(rng):
    vertex = affine_point(0.3, -0.2)
    lines = [join_points(vertex, affine_point(math.cos(t), math.sin(t)))
             for t in (0.2, 1.1, 2.3, 4.0)]
    r0 = cross_ratio_lines(*lines)
    for _ in range(10):
        tr = join_points(affine_point(rng.uniform(1, 3), rng.uniform(-3, -1)),
                         affine_point(rng.uniform(-3, -1), rng.uniform(1, 3)))
        traces = [meet_lines(l, tr) for l in lines]
        assert abs(cross_ratio_points(*traces) - r0) < 1e-9 * max(1.0, abs(r0))


def test_cross_ratio_lines_repeated_is_infinite():
    a = hline(0, 1, 0)
    b = hline(1, 0, 0)
    c = hline(1, -1, 0)
    assert cross_ratio_lines(a, b, c, a) == INF


def test_harmonic_conjugate_examples():
    # midpoint maps to the point at infinity
    h = harmonic_conjugate(x_pt(0), x_pt(2), x_pt(1))
    assert points_equal(h, hpoint(1, 0, 0))
    h2 = harmonic_conjugate(x_pt(0), x_pt(1), x_pt(2))
    assert points_equal(h2, x_pt(2.0 / 3.0))
    # involution: applying twice returns the argument
    c = x_pt(0.37)
    again = harmonic_conjugate(x_pt(0), x_pt(1), harmonic_conjugate(x_pt(0), x_pt(1), c))
    assert points_equal(again, c)
    with pytest.raises(errors.DegenerateTriple):
        harmonic_conjugate(x_pt(0), x_pt(1), x_pt(0))


def test_separates():
    # (ABCD) for affine (0,3,1,4) is -1/8 < 0: the pairs interleave
    assert separates(x_pt(0), x_pt(3), x_pt(1), x_pt(4)) is True
    assert abs(cross_ratio_points(x_pt(0), x_pt(3), x_pt(1), x_pt(4)) + 1 / 8) < 1e-14
    assert separates(x_pt(0), x_pt(2), x_pt(1), x_pt(3)) is True
    assert separates(x_pt(0), x_pt(1), x_pt(2), x_pt(3)) is False
    # harmonic quadruples always separate
    assert separates(x_pt(0), x_pt(2), x_pt(1), hpoint(1, 0, 0)) is True
    with pytest.raises(errors.NonRealInput):
        separates(hpoint(1j, 0, 1), x_pt(1), x_pt(2), x_pt(3))


def test_separation_matches_interleaving(rng):
    for _ in range(200):
        ts = [rng.uniform(-5, 5) for _ in range(4)]
        if min(abs(ts[i] - ts[j]) for i in range(4) for j in range(i + 1, 4)) < 1e-3:
            continue
        a, b, c, d = ts
        lo, hi = min(a, b), max(a, b)
        inside = sum(1 for t in (c, d) if lo < t < hi)
        expected = inside == 1
        got = separates(x_pt(a), x_pt(b), x_pt(c), x_pt(d))
        assert got == expected


def test_diagonal_triangle_square():
    q = Quadrangle(affine_point(0, 0), affine_point(1, 0),
                   affine_point(1, 1), affine_point(0, 1))
    diag = q.diagonal_points()
    names = {tuple(round(abs(c), 9) for c in p) for p in diag}
    assert points_equal(diag[1], affine_point(0.5, 0.5))
    at_inf = [p for p in diag if abs(p[2]) < 1e-12]
    assert len(at_inf) == 2


def test_diagonal_triangle_harmonic_property(rng):
    for _ in range(25):
        pts = [affine_point(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
        try:
            q = Quadrangle(*pts)
        except errors.DegenerateQuadrangle:
            continue
        diag = q.diagonal_points()
        for k, ((i1, j1), (i2, j2)) in enumerate(Quadrangle.OPPOSITE):
            p, r = diag[(k + 1) % 3], diag[(k + 2) % 3]
            line = join_points(p, r)
            cuts = []
            for (ia, ib) in ((i1, j1), (i2, j2)):
                cuts.append(meet_lines(q.side(ia, ib), line))
            assert abs(cross_ratio_points(p, r, cuts[0], cuts[1]) + 1.0) < 1e-9


def test_degenerate_quadrangle():
    with pytest.raises(errors.DegenerateQuadrangle):
        Quadrangle(x_pt(0), x_pt(1), x_pt(2), affine_point(0, 1))


def test_quadrangular_involution(rng):
    pts = [affine_point(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
    q = Quadrangle(*pts)
    line = join_points(affine_point(4, -1), affine_point(-1, 5))
    sigma = quadrangular_involution(q, line)
    for s1, s2 in q.opposite_side_pairs():
        x, y = meet_lines(s1, line), meet_lines(s2, line)
        assert points_equal(sigma(x), y)
        assert points_equal(sigma(y), x)
    assert sigma.involution_residual() < 1e-9
    f1, f2 = sigma.fixed_points()
    assert points_equal(sigma(f1), f1) and points_equal(sigma(f2), f2)
    # the involution is harmonic conjugacy with respect to its fixed points
    x = meet_lines(q.side(0, 1), line)
    assert abs(cross_ratio_points(f1, f2, x, sigma(x)) + 1.0) < 1e-9


def test_quadrangular_involution_vertex_limit():
    pts = [affine_point(0, 0), affine_point(1, 0.2),
           affine_point(0.8, 1.1), affine_point(-0.2, 0.9)]
    q = Quadrangle(*pts)
    line = join_points(pts[0], affine_point(3, 5))
    sigma = quadrangular_involution(q, line)
    assert sigma.degenerate
    f1, f2 = sigma.fixed_points()
    assert points_equal(f1, pts[0]) and points_equal(f2, pts[0])
    with pytest.raises(errors.LineThroughVertex):
        quadrangular_involution(q, line, strict=True)


def test_involution_fixed_points_cases(rng, hyp):
    from ckgeom import conics as cn

    # harmonic conjugacy w.r.t. affine 0 and 1 fixes exactly those points
    inv = harmonic_involution(X_AXIS, x_pt(0), x_pt(1))
    f1, f2 = inv.fixed_points()
    got = sorted(((f1[0] / f1[2]).real, (f2[0] / f2[2]).real))
    assert abs(got[0]) < 1e-12 and abs(got[1] - 1) < 1e-12
    # conjugacy on a secant line of the unit circle fixes the intersections
    line = join_points(affine_point(0.3, 0.1), affine_point(-0.4, 0.5))
    u, v = cn.line_conic_meet(hyp.absolute, line).points
    a = affine_point(0.3, 0.1)
    ap = cn.conjugate_point(hyp.absolute, a, line)
    b = affine_point(-0.4, 0.5)
    bp = cn.conjugate_point(hyp.absolute, b, line)
    inv2 = involution_from_pairs(line, (a, ap), (b, bp))
    g1, g2 = inv2.fixed_points()
    assert points_equal(g1, u) or points_equal(g1, v)
    assert points_equal(g2, u) or points_equal(g2, v)
    # an elliptic involution has complex-conjugate fixed points; the
    # quadratic-root oracle: t and conj(t) solve the fixed-point quadratic
    rot = involution_from_pairs(X_AXIS, (x_pt(0), x_pt(2)), (x_pt(1), x_pt(3)))
    h1, h2 = rot.fixed_points()
    t1 = h1[0] / h1[2]
    t2 = h2[0] / h2[2]
    assert abs(t1.imag) > 1e-6
    assert abs(t1 - t2.conjugate()) < 1e-9

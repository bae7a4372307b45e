import functools
import math

import numpy as np
import pytest

from ckgeom import conics as cn
from ckgeom import errors
from ckgeom import metric as mt
from ckgeom import projective as pj
from ckgeom import rays as ry
from ckgeom.projective import (
    Quadrangle,
    affine_point,
    cross_ratio_points,
    hline,
    hpoint,
    join_points,
    meet_lines,
    points_equal,
)
from ckgeom.tolerance import get_tol
from conftest import ambient_tol, interior_point


@pytest.fixture(scope="module")
def circle():
    return cn.unit_circle()


def circle_pt(t):
    return hpoint(math.cos(t), math.sin(t), 1.0)


def test_polar_examples(circle):
    assert pj.lines_equal(cn.polar(circle, affine_point(0, 0)), hline(0, 0, 1))
    assert pj.lines_equal(cn.polar(circle, affine_point(1, 0)), hline(1, 0, -1))


def test_pole_examples(circle):
    assert points_equal(cn.pole(circle, hline(0, 1, 0)), hpoint(0, 1, 0))
    assert points_equal(cn.pole(circle, hline(0, 0, 1)), affine_point(0, 0))
    # pole of a tangent line is its contact point
    t = 1.234
    tang = cn.tangent_line(circle, circle_pt(t))
    assert points_equal(cn.pole(circle, tang), circle_pt(t))


def test_pole_polar_roundtrip(circle, rng):
    for _ in range(30):
        p = affine_point(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert points_equal(cn.pole(circle, cn.polar(circle, p)), p)


def test_polarity_preserves_incidence(circle, rng):
    # P on q  <=>  pole(q) on polar(P); polars of collinear points concur
    for _ in range(20):
        p1 = affine_point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        p2 = affine_point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        p3mid = hpoint(p1[0] + p2[0], p1[1] + p2[1], p1[2] + p2[2])
        lines = [cn.polar(circle, p) for p in (p1, p2, p3mid)]
        assert pj.concurrency_residual(*lines) < 1e-12


def test_degenerate_conic_rejected():
    pair = cn.Conic(0, 0, 0, 0.5, 0, 0)  # xy = 0, a line pair
    assert pair.is_degenerate()
    with pytest.raises(errors.DegenerateConic):
        cn.polar(pair, affine_point(1, 1))


def test_line_conic_meet_cases(circle):
    m = cn.line_conic_meet(circle, hline(0, 1, 0))
    assert m.status == cn.SECANT
    xs = sorted((p[0] / p[2]).real for p in m.points)
    assert abs(xs[0] + 1) < 1e-12 and abs(xs[1] - 1) < 1e-12
    m2 = cn.line_conic_meet(circle, hline(1, 0, -2))  # x = 2
    assert m2.status == cn.EXTERIOR
    ys = sorted((p[1] / p[0] * 2).imag for p in m2.points)
    assert abs(ys[0] + math.sqrt(3)) < 1e-12 and abs(ys[1] - math.sqrt(3)) < 1e-12
    m3 = cn.line_conic_meet(cn.unit_imaginary_conic(), hline(0, 1, 0))
    assert all(cn.conic_residual(cn.unit_imaginary_conic(), p) < 1e-12
               for p in m3.points)
    assert all(not pj.is_real_triple(p) for p in m3.points)
    m4 = cn.line_conic_meet(circle, hline(0, 1, -1))  # y = 1 tangent
    assert m4.status == cn.TANGENT
    assert points_equal(m4.points[0], affine_point(0, 1))


def test_conjugate_point(circle, rng):
    q = cn.conjugate_point(circle, affine_point(0, 0), hline(0, 1, 0))
    assert points_equal(q, hpoint(1, 0, 0))
    p_on = circle_pt(0.0)
    line = join_points(p_on, affine_point(0.2, 0.3))
    assert points_equal(cn.conjugate_point(circle, p_on, line), p_on)
    # (UV Q Q_p) = -1 and involutivity on a random secant line
    a = affine_point(0.21, -0.33)
    b = affine_point(-0.5, 0.4)
    line = join_points(a, b)
    ap = cn.conjugate_point(circle, a, line)
    assert points_equal(cn.conjugate_point(circle, ap, line), a)
    u, v = cn.line_conic_meet(circle, line).points
    assert abs(cross_ratio_points(u, v, a, ap) + 1.0) < 1e-10
    with pytest.raises(errors.PointNotOnLine):
        cn.conjugate_point(circle, affine_point(5, 5), line)


def test_conjugate_line(circle):
    # center with the x-axis maps to the y-axis
    q = cn.conjugate_line(circle, hline(0, 1, 0), affine_point(0, 0))
    assert pj.lines_equal(q, hline(1, 0, 0))
    # a tangent line through an exterior point is self-conjugate
    tang = cn.tangent_line(circle, circle_pt(0.7))
    ext = meet_lines(tang, hline(1, 0, -2))
    assert pj.lines_equal(cn.conjugate_line(circle, tang, ext), tang, 1e-8)
    # double application returns the line
    p = affine_point(0.3, 0.2)
    q0 = join_points(p, affine_point(-0.5, 0.8))
    q1 = cn.conjugate_line(circle, q0, p)
    q2 = cn.conjugate_line(circle, q1, p)
    assert pj.lines_equal(q2, q0)
    with pytest.raises(errors.PointOnConic):
        cn.conjugate_line(circle, join_points(circle_pt(0.3), affine_point(0, 0)),
                          circle_pt(0.3))


def test_conic_through_five_roundtrip(circle):
    pts = [circle_pt(t) for t in (0.1, 0.9, 2.2, 3.3, 5.1)]
    fit = cn.conic_through_five(pts)
    assert fit.klass == cn.REAL
    sixth = circle_pt(4.2)
    assert cn.conic_residual(fit, sixth) < 1e-12


def _complex_point(rng):
    return hpoint(*(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    for _ in range(3)))


def test_conic_through_five_contains_complex_inputs(rng):
    # for complex rows the null vector of the design matrix is the
    # conjugate of the last right singular vector, not the vector itself
    for _ in range(200):
        pts = [_complex_point(rng) for _ in range(5)]
        fit = cn.conic_through_five(pts)
        assert max(cn.conic_residual(fit, p) for p in pts) < 1e-12


def test_conic_fit_conjugation_closed_six_points_not_conconic(rng):
    # (p, p~, q, q~, r, r~) for random complex p, q, r lie on no common
    # conic, so the sixth point misses the conic through the first five
    # (a fit through the conjugated inputs would contain it)
    misses = []
    for _ in range(200):
        pts = []
        for _ in range(3):
            p = _complex_point(rng)
            pts += [p, hpoint(*(c.conjugate() for c in p))]
        fit = cn.conic_fit(pts[:5], rank_check=False)
        misses.append(cn.conic_residual(fit, pts[5]))
    misses.sort()
    assert misses[len(misses) // 2] > 1e-3


def test_conic_through_five_collinear_degenerate():
    pts = [affine_point(t, 0) for t in (0, 1, 2)] + \
        [affine_point(0, 1), affine_point(1, 2)]
    fit = cn.conic_through_five(pts)
    assert fit.klass == cn.DEGENERATE


def test_degenerate_input_at_each_raise_site(circle):
    with pytest.raises(errors.DegenerateInput, match="zero conic matrix"):
        cn.Conic(0, 0, 0, 0, 0, 0)
    on_circle = [circle_pt(t) for t in (0.1, 0.9, 2.2, 3.3, 5.1, 4.2)]
    with pytest.raises(errors.DegenerateInput, match="at least five"):
        cn.conic_fit(on_circle[:4])
    # five collinear points: every line pair through the line fits them
    collinear = [affine_point(x, 0.3 * x + 0.1)
                 for x in (0.1, 0.7, 1.3, 2.9, -1.7)]
    with pytest.raises(errors.DegenerateInput, match="rank-deficient"):
        cn.conic_fit(collinear)
    with pytest.raises(errors.DegenerateInput, match="rank-deficient"):
        cn.conic_through_five(collinear)
    for n in (4, 6):
        with pytest.raises(errors.DegenerateInput, match="exactly five"):
            cn.conic_through_five(on_circle[:n])


def test_conic_fit_classification():
    assert cn.unit_imaginary_conic().klass == cn.IMAGINARY
    assert cn.unit_circle().klass == cn.REAL


def test_closed_form_classification_matches_eigenvalues():
    # the eigenvalue tests that Conic._classify and ModelGeometry replaced
    # are the reference: definite iff all eigenvalues share a sign, and the
    # hyperbolic absolute is scaled to two positive eigenvalues
    rng = np.random.default_rng(20)
    mats = [np.diag(s) for s in ((1, 1, 1), (-1, -2, -3), (1, 1, -1),
                                 (-0.5, -0.5, 1), (2, -1, -1), (-1, 3, 1))]
    mats += [m + m.T for m in rng.normal(size=(3000, 3, 3))]
    seen = {cn.REAL: 0, cn.IMAGINARY: 0}
    for m in mats:
        conic = cn.Conic.from_matrix(m.astype(complex))
        if conic.is_degenerate():
            continue
        eig = np.linalg.eigvalsh(np.array(conic.real_rows()))
        definite = all(eig > 0) or all(eig < 0)
        assert (conic.klass == cn.IMAGINARY) == definite
        seen[conic.klass] += 1
        if not definite:
            rows = mt.ModelGeometry(conic).real_rows
            assert sum(np.linalg.eigvalsh(np.array(rows)) > 0) == 2
    assert min(seen.values()) > 100


def test_cross_ratio_on_conic(circle):
    a, b = circle_pt(0), circle_pt(math.pi)
    c, d = circle_pt(math.pi / 2), circle_pt(3 * math.pi / 2)
    assert abs(cn.cross_ratio_on_conic(circle, a, b, c, d) + 1.0) < 1e-10
    # swapping the first pair inverts the value (identity 2.2a on the conic)
    pts = [circle_pt(t) for t in (0.3, 1.1, 2.0, 4.4)]
    r = cn.cross_ratio_on_conic(circle, *pts)
    r_swap = cn.cross_ratio_on_conic(circle, pts[1], pts[0], pts[2], pts[3])
    assert abs(r_swap - 1.0 / r) < 1e-9
    # Steiner: the pencil joining any fifth point of the conic to the four
    # has the same cross ratio, whichever input the value was taken at
    for t in (2.9, 5.5):
        x = circle_pt(t)
        pencil = pj.cross_ratio_lines(*(join_points(x, p) for p in pts))
        assert abs(pencil - r) < 1e-9 * max(1.0, abs(r))
    with pytest.raises(errors.PointNotOnConic):
        cn.cross_ratio_on_conic(circle, affine_point(0, 0), *pts[1:])


def test_cross_ratio_on_conic_needs_no_auxiliary_points(monkeypatch):
    # the pencil is taken at an input: no conic point is searched for
    calls = []
    for name in ("line_conic_meet", "sample_conic_points", "conic_point"):
        fn = getattr(cn, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cn, name, counting)
    pts = [circle_pt(t) for t in (0.3, 1.1, 2.0, 4.4)]
    cn.cross_ratio_on_conic(cn.unit_circle(), *pts)
    assert calls == []


def test_cross_ratio_on_conic_repeated_input():
    # two slots may hold the same object: the pencil's tangent slot is the
    # vertex's own index, and an input equal to the vertex is joined by the
    # tangent too, which is the limit of its chord
    circle = cn.unit_circle()
    a, b, c = (circle_pt(t) for t in (0.3, 1.1, 2.0))
    assert cn.cross_ratio_on_conic(circle, a, b, c, a) == pj.INF
    assert abs(cn.cross_ratio_on_conic(circle, a, b, a, c)) < 1e-15
    assert abs(cn.cross_ratio_on_conic(circle, a, b, a, b)) < 1e-15
    # a rescaled copy of the vertex is another object but the same point
    a2 = pj.HPoint(*(2j * x for x in a))
    assert cn.cross_ratio_on_conic(circle, a, b, c, a2) == pj.INF


def test_cross_ratio_on_degenerate_conic_raises():
    # the line pair xy = 0: every input lies on it, and no tangent exists
    pair = cn.Conic(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    assert pair.is_degenerate()
    pts = [hpoint(1, 0, 1), hpoint(2, 0, 1), hpoint(0, 1, 1), hpoint(0, 3, 1)]
    with pytest.raises(errors.DegenerateConic):  # a GeometryError
        cn.cross_ratio_on_conic(pair, *pts)


def _list_real(phi, t):
    # the imaginary-part test as a list over all nine matrix entries
    return max(abs(c.imag) for r in phi.matrix_rows() for c in r) <= 1e3 * t


def test_real_rows_matches_entrywise_imaginary_test():
    thr = 1e3 * get_tol()
    conics = [cn.unit_circle(), cn.unit_imaginary_conic(),
              cn.Conic(1.0, 1.0, -1.0, 0.0, 0.0, 0.5j),
              cn.Conic(1.0, 2.0, -1.0, 0.25j, 0.1, 0.0)]
    for eps in (thr, math.nextafter(thr, 0.0), math.nextafter(thr, 1.0),
                0.999 * thr, 1.001 * thr):
        conics.append(cn.Conic(1.0, 1.0, -1.0, 0.0, 0.0, eps * 1j))
        conics.append(cn.Conic(1.0, 1.0, -1.0, 0.0, eps * -1j, 0.0))
    exterior = hline(0, 1, -2)  # y = 2 misses the real points of the circle
    seen = set()
    for phi in conics:
        for t in (get_tol(), 1e-6, 1e-12):
            with ambient_tol(t):
                assert (phi.real_rows() is not None) == _list_real(phi, t)
        real = _list_real(phi, get_tol())
        seen.add(real)
        assert (phi.real_rows() is not None) == real
        if phi.klass == cn.IMAGINARY:
            continue
        # line_conic_meet reads real-representability at the ambient
        # tolerance, as real_rows does; non-real conics count as generic
        for t in (get_tol(), 1e-6, 1e-12):
            with ambient_tol(t):
                status = cn.line_conic_meet(phi, exterior).status
            assert status == (cn.EXTERIOR if _list_real(phi, t) else cn.SECANT)
    assert seen == {True, False}


def _ray_quadruples(hyp, rng, n):
    """n draws of the conic quadruples behind the ray-angle checks, as
    (angle quads, opposite quad).  An angle quad (U, V, A1, B1) or
    (U, V, A1, B2) is an input of `angle_between_rays`, the opposite quad
    (A1, B1, B2, A2) one of `ray_cosine_opposite`.  Families: generic rays,
    near-parallel rays, origins out to radius 0.999, near-antiparallel
    rays."""
    absolute = hyp.absolute
    out = []
    while len(out) < n:
        family = len(out) % 4
        o = interior_point(rng, 0.7)
        p = interior_point(rng, 0.85)
        q = interior_point(rng, 0.85)
        eps = 10 ** rng.uniform(-9, -3)
        ang = rng.uniform(0, 2 * math.pi)
        if family == 1:
            q = affine_point(p[0].real + eps * math.cos(ang),
                             p[1].real + eps * math.sin(ang))
        elif family == 2:
            rad = rng.uniform(0.9, 0.999)
            o = affine_point(rad * math.cos(ang), rad * math.sin(ang))
        elif family == 3:
            s = rng.uniform(0.05, 0.5)
            ox, oy, px, py = o[0].real, o[1].real, p[0].real, p[1].real
            q = affine_point(ox - s * (px - ox) + eps * math.cos(ang),
                             oy - s * (py - oy) + eps * math.sin(ang))
        try:
            r1 = ry.ray_towards(hyp, o, p)
            r2 = ry.ray_towards(hyp, o, q)
            u, v = cn.line_conic_meet(absolute, cn.polar(absolute, o)).points
            a2 = ry.other_trace(r1, absolute)
            b2 = ry.other_trace(r2, absolute)
        except errors.GeometryError:
            continue
        a1, b1 = r1.endpoint, r2.endpoint
        out.append((((u, v, a1, b1), (u, v, a1, b2)), (a1, b1, b2, a2)))
    return out


FIXED_CIRCLE_POINTS = tuple(circle_pt(t) for t in (0.0, 1.3, 2.6, 3.9, 5.2))


def _far_fixed_point(quad):
    return max(FIXED_CIRCLE_POINTS,
               key=lambda x: min(pj.point_gap(x, p) for p in quad))


def test_steiner_auxiliary_independence(circle, hyp, rng):
    # two explicit auxiliary points give the same value
    pts = [circle_pt(t) for t in (0.2, 1.4, 2.6, 5.0)]
    vals = []
    for t_aux in (3.6, 4.3):
        x = circle_pt(t_aux)
        lines = [join_points(x, p) for p in pts]
        vals.append(pj.cross_ratio_lines(*lines))
    assert abs(vals[0] - vals[1]) < 1e-10
    # the pencil at an input equals the pencil at a fixed circle point clear
    # of all four, on the quadruples of the ray-angle checks
    for angle_quads, opposite in _ray_quadruples(hyp, rng, 400):
        for quad in angle_quads + (opposite,):
            x = _far_fixed_point(quad)
            ref = pj.cross_ratio_lines(*(join_points(x, p) for p in quad))
            got = cn.cross_ratio_on_conic(circle, *quad)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_cross_ratio_on_conic_against_exact_oracle(hyp, rng):
    # 30-digit bracket evaluation of the same rounded inputs, each first
    # moved onto the circle by a Newton step along the gradient of its form
    # (residual ~1e-32), so that the value does not depend on the center
    mp = pytest.importorskip("mpmath")
    sign = (1, 1, -1)

    @functools.lru_cache(maxsize=None)
    def on_circle(p):
        p = [mp.mpc(z.real, z.imag) for z in p]
        step = (sum(s * z * z for s, z in zip(sign, p))
                / (2 * sum(z * z for z in p)))
        return [z - step * s * z for s, z in zip(sign, p)]

    def det(a, b, c):
        return (a[0] * (b[1] * c[2] - b[2] * c[1])
                - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0]))

    def exact(quad):
        x = [mp.mpf(c.real) for c in _far_fixed_point(quad)]
        a, b, c, d = (on_circle(p) for p in quad)
        return det(x, a, c) * det(x, b, d) / (det(x, b, c) * det(x, a, d))

    def error(quad):
        val = cn.cross_ratio_on_conic(hyp.absolute, *quad)
        ref = exact(quad)
        return float(abs(mp.mpc(val.real, val.imag) - ref)), float(abs(ref))

    angle_quads = 0
    with mp.workdps(30):
        for quads, opposite in _ray_quadruples(hyp, rng, 1100):
            # ray-angle quadruples: relative error
            for quad in quads:
                err, ref = error(quad)
                assert err <= 1e-14 * ref
                angle_quads += 1
            # ray_cosine_opposite uses 2 (A1 B1 B2 A2) - 1: absolute error.
            # Near-antiparallel rays put A1 by B2 and B1 by A2 at a gap g,
            # and the value is O(g^2); its relative error grows as
            # eps / g^2 at an input's pencil (eps / g at a far center)
            err, ref = error(opposite)
            assert err <= 1e-14 * max(1.0, ref)
    assert angle_quads >= 2000


def test_self_polar_diagonal_triangle(circle, rng):
    # diagonal triangle of an inscribed quadrangle is self-polar
    for _ in range(10):
        ts = sorted(rng.uniform(0, 2 * math.pi) for _ in range(4))
        if min((ts[(i + 1) % 4] - ts[i]) % (2 * math.pi) for i in range(4)) < 0.3:
            continue
        q = Quadrangle(*(circle_pt(t) for t in ts))
        diag = q.diagonal_points()
        for i in range(3):
            side = join_points(diag[(i + 1) % 3], diag[(i + 2) % 3])
            assert points_equal(cn.pole(circle, side), diag[i], 1e-8)


def test_quadrangle_polar_drawing_algorithm(circle, rng):
    # the secant-quadrangle construction of the polar of an interior point
    for _ in range(10):
        p = interior_point(rng, 0.8)
        l1 = join_points(p, interior_point(rng, 0.9))
        l2 = join_points(p, interior_point(rng, 0.9))
        if pj.lines_equal(l1, l2):
            continue
        a1, a2 = cn.line_conic_meet(circle, l1).points
        b1, b2 = cn.line_conic_meet(circle, l2).points
        q = Quadrangle(a1, a2, b1, b2)
        diag = [d for d in q.diagonal_points() if not points_equal(d, p, 1e-7)]
        assert len(diag) == 2
        constructed = join_points(diag[0], diag[1])
        assert pj.lines_equal(constructed, cn.polar(circle, p), 1e-7)


def test_polarity_preserves_cross_ratio(circle, rng):
    for _ in range(10):
        base = join_points(interior_point(rng), interior_point(rng))
        i, j = pj.chart_axes(base)
        pts = []
        t = 0.1
        while len(pts) < 4:
            t += rng.uniform(0.3, 1.0)
            k = 3 - i - j
            coords = [0j, 0j, 0j]
            coords[i], coords[j] = 1.0, t
            coords[k] = -(base[i] + base[j] * t) / base[k]
            pts.append(hpoint(*coords))
        r0 = cross_ratio_points(*pts)
        polars = [cn.polar(circle, p) for p in pts]
        r1 = pj.cross_ratio_lines(*polars)
        assert abs(r1 - r0) < 1e-9 * max(1.0, abs(r0))
        # conjugacy on the line also preserves the cross ratio
        conj = [cn.conjugate_point(circle, p, base) for p in pts]
        r2 = cross_ratio_points(*conj)
        assert abs(r2 - r0) < 1e-9 * max(1.0, abs(r0))


def test_eleven_point_conic_members(rng):
    for _ in range(5):
        pts = [interior_point(rng, 1.3) for _ in range(4)]
        try:
            q = Quadrangle(*pts)
            line = join_points(affine_point(4, 1), affine_point(1, 5))
            conic, eleven = cn.eleven_point_conic(q, line)
        except errors.GeometryError:
            continue
        assert max(cn.conic_residual(conic, p) for p in eleven) < 1e-9
        # independent oracle: a conic through five of the members carries
        # the remaining six
        fit = cn.conic_through_five(list(eleven[2:7]))
        assert max(cn.conic_residual(fit, p) for p in eleven) < 1e-8


def test_eleven_point_conic_forms_each_side_once(rng, monkeypatch):
    # six sides and their six traces, and three diagonal points: the
    # harmonic conjugates take their sides as carriers; the quadrangular
    # involution cuts only the two pairs it is fixed by
    calls = {"join_points": 0, "meet_lines": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapper = counted(name, getattr(pj, name))
        for mod in (pj, cn):
            monkeypatch.setattr(mod, name, wrapper)
    line = join_points(affine_point(4, 1), affine_point(1, 5))
    checked = 0
    for _ in range(20):
        try:
            q = Quadrangle(*(interior_point(rng, 1.3) for _ in range(4)))
        except errors.GeometryError:
            continue
        for name in calls:
            calls[name] = 0
        cn.eleven_point_conic(q, line)
        assert calls["join_points"] <= 6 and calls["meet_lines"] <= 9
        for name in calls:
            calls[name] = 0
        pj.quadrangular_involution(q, line)
        assert calls == {"join_points": 4, "meet_lines": 4}
        checked += 1
    assert checked >= 15


def test_eleven_point_conic_line_through_vertex(rng):
    pts = [affine_point(0, 0), affine_point(1, 0.2),
           affine_point(0.8, 1.1), affine_point(-0.2, 0.9)]
    q = Quadrangle(*pts)
    with pytest.raises(errors.LineThroughVertex):
        cn.eleven_point_conic(q, join_points(pts[0], affine_point(2, 3)))


def test_eleven_point_is_nine_point_circle():
    # euclidean triangle with its orthocenter against the line at infinity:
    # the eleven-point conic is the classical nine-point circle
    a = affine_point(0.0, 0.0)
    b = affine_point(4.0, 0.0)
    c = affine_point(1.0, 3.0)
    # orthocenter of this triangle: x = 1, y from the altitude at B
    h = affine_point(1.0, 1.0)
    q = Quadrangle(a, b, c, h)
    conic, eleven = cn.eleven_point_conic(q, hline(0, 0, 1))
    # circle: equal diagonal quadratic terms, no cross term
    assert abs(conic.m00 - conic.m11) < 1e-12
    assert abs(conic.m01) < 1e-12
    # passes through the three euclidean side midpoints
    for mid in (affine_point(2, 0), affine_point(2.5, 1.5), affine_point(0.5, 1.5)):
        assert cn.conic_residual(conic, mid) < 1e-12
    # and through the feet of the altitudes (diagonal points of the quadrangle)
    assert cn.conic_residual(conic, affine_point(1, 0)) < 1e-12

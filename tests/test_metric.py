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
from conftest import ambient_tol, exterior_point, interior_point
import oracles
from oracles import oracle_squared_trig


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
    phi = hyp.absolute
    assert cn.lines_conjugate(phi, hline(0, 1, 0), hline(1, 0, 0))
    assert not cn.lines_conjugate(phi, hline(0, 1, 0), hline(1, -1, 0))
    for _ in range(10):
        p = interior_point(rng)
        a = join_points(p, interior_point(rng))
        b = cn.conjugate_line(phi, a, p)
        assert cn.lines_conjugate(phi, a, b)
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


def _assert_sorted_by_the_key(p, q):
    key = oracles.oracle_point_sort_key
    for u, v in ((p, q), (q, p)):
        first, second = mt.sort_point_pair(u, v)
        if key(u) <= key(v):
            assert first is u and second is v
        else:
            assert first is v and second is u


def _fields_point(f):
    # the HPoint whose rounded key reads the six fields f
    return pj.HPoint(complex(f[0], f[1]), complex(f[2], f[3]),
                     complex(f[4], f[5]))


def test_sort_point_pair_follows_the_rounded_key(rng):
    def field():
        return rng.choice((rng.uniform(-1, 1), float(rng.randint(-2, 2))))

    for _ in range(300):
        _assert_sorted_by_the_key(_fields_point([field() for _ in range(6)]),
                                  _fields_point([field() for _ in range(6)]))
    # agree on the first k rounded fields, by equal values or by values
    # 1e-14 apart that round together, then differ: the order is read at
    # field k, whatever the unrounded values and the later fields say
    for k in range(6):
        for _ in range(50):
            f = [field() for _ in range(6)]
            g = [x + rng.choice((0.0, 1e-14, -1e-14)) for x in f[:k]]
            g = [y if round(y, 12) == round(x, 12) else x for x, y in zip(f, g)]
            g += [field() for _ in range(6 - k)]
            if round(f[k], 12) == round(g[k], 12):
                g[k] += 0.5
            p, q = _fields_point(f), _fields_point(g)
            _assert_sorted_by_the_key(p, q)
            first = round(f[k], 12) < round(g[k], 12)
            assert (mt.sort_point_pair(p, q)[0] is p) == first


@pytest.mark.parametrize("f, g", [
    ([0.25, 0.0, -0.5, 0.0, 1.0, 0.0], [0.25, 0.0, -0.5, 0.0, 1.0, 0.0]),
    ([0.0, 0.0, 1.0, 0.0, 0.5, 0.0], [-0.0, 0.0, 1.0, 0.0, 0.25, 0.0]),
    ([-0.0, 0.0, 1.0, 0.0, 0.5, 0.0], [0.0, -0.0, 1.0, 0.0, 0.25, 0.0]),
    ([0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [-0.0, -0.0, -0.0, -0.0, -0.0, -0.0]),
    # round together at 12 decimals, then the later fields disagree
    ([0.1234567890124, 0.0, 0.2, 0.0, 1.0, 0.0],
     [0.1234567890121, 0.0, 0.3, 0.0, 1.0, 0.0]),
    ([0.5, 0.3000000000004, 0.2, 0.0, 1.0, 0.0],
     [0.5, 0.2999999999996, 0.1, 0.0, 1.0, 0.0]),
    ([0.5, 0.3, 0.2, 0.0, 1.0, -1e-13],
     [0.5, 0.3, 0.2, 0.0, 1.0, 1e-13]),
])
def test_sort_point_pair_on_equal_keys_and_signed_zeros(f, g):
    p, q = _fields_point(f), _fields_point(g)
    _assert_sorted_by_the_key(p, q)
    _assert_sorted_by_the_key(p, _fields_point(f))


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


def test_midpoints_coincidence_at_given_tol(hyp, ell):
    # 1e-7 apart: coincident at tol 1e-6, distinct at 1e-9
    a = affine_point(0.3, -0.2)
    b = affine_point(0.3 + 1e-7, -0.2)
    assert pj.points_equal(a, b, 1e-6) and not pj.points_equal(a, b, 1e-9)
    for model in (hyp, ell):
        with ambient_tol(1e-9):
            mt.midpoints(model, a, b)
        with ambient_tol(1e-6), pytest.raises(errors.CoincidentPoints):
            mt.midpoints(model, a, b)


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


def test_squared_trig_right_segment(hyp, ell):
    a = affine_point(0.2, 0.1)
    line = join_points(a, affine_point(0.5, -0.3))
    for model in (hyp, ell):
        ac = cn.conjugate_point(model.absolute, a, line)
        for seg in ((a, ac), (ac, a)):
            c, s, t = mt.squared_trig(model, *seg)
            assert c == 0.0 and s == 1.0 and t == complex(math.inf)
            assert (c, s, t) == oracle_squared_trig(model, *seg)


def _complex_point(rng):
    return hpoint(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                  complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), 1.0)


def _segment_kinds(hyp, ell, rng):
    """(name, model, draw of a segment) of real and complex segments in
    both models, the hyperbolic ones at every pair of sides."""
    return (
        ("elliptic", ell, lambda: (interior_point(rng, 3.0),
                                   interior_point(rng, 3.0))),
        ("interior/interior", hyp, lambda: (interior_point(rng),
                                            interior_point(rng))),
        ("interior/exterior", hyp, lambda: (interior_point(rng),
                                            exterior_point(rng))),
        ("exterior/interior", hyp, lambda: (exterior_point(rng),
                                            interior_point(rng))),
        ("exterior/exterior", hyp, lambda: (exterior_point(rng),
                                            exterior_point(rng))),
        ("complex hyperbolic", hyp, lambda: (_complex_point(rng),
                                             _complex_point(rng))),
        ("complex elliptic", ell, lambda: (_complex_point(rng),
                                           _complex_point(rng))),
    )


# a projective change of frame X = P X', under which the absolute M reads
# P^T M P; its off-diagonal entries reach every term of adj(M)
FRAME = ((1.0, 0.3, -0.2), (0.1, 0.9, 0.4), (-0.3, 0.2, 1.1))


def _in_frame(model, *points):
    """`model` and `points` in the coordinates X' of FRAME."""
    p = FRAME
    m = model.absolute.matrix_rows()
    rows = [[sum(p[k][i] * m[k][l] * p[l][j] for k in range(3)
                 for l in range(3)) for j in range(3)] for i in range(3)]
    cols = list(zip(*p))
    inv = [pj.cross(cols[(i + 1) % 3], cols[(i + 2) % 3])
           for i in range(3)]  # rows of det(P) P^-1
    return (mt.ModelGeometry(cn.Conic.from_matrix(rows)),
            *(hpoint(*(pj.dot(r, x) for r in inv)) for x in points))


def test_squared_trig_matches_the_cross_ratio_definition(hyp, ell, rng):
    # the closed form against C = (AB B_p A_p), S = 1 - C, T = S/C, and
    # the same ratios in another frame
    for name, model, draw in _segment_kinds(hyp, ell, rng):
        lines = set()
        for _ in range(60):
            a, b = draw()
            got = mt.squared_trig(model, a, b)
            moved = _in_frame(model, a, b)
            assert moved[0].kind == model.kind
            for want in (oracle_squared_trig(model, a, b),
                         oracle_squared_trig(*moved),
                         mt.squared_trig(*moved)):
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-10 * max(1.0, abs(w)), (name, a, b)
            lines.add(model.line_status(join_points(a, b)))
        if name == "exterior/exterior":
            assert lines == {cn.SECANT, cn.EXTERIOR}  # both rows of the table


@pytest.mark.parametrize("offset", [1e-12, 1e-11, 1e-10, 1e-8, 1e-7, 1e-6])
def test_squared_trig_near_right_segments(hyp, ell, rng, offset):
    # b is the conjugate of a in a line, moved along it by `offset`, so
    # B(a,b) is of order offset.  Both right-segment tests compare B(a,b)
    # with tol = 1e-9 times an O(1) scale (see `squared_trig`), so off the
    # band around tol they agree on rightness, and elsewhere on the values;
    # C and T are read from a B(a,b) of relative error eps/offset.
    with ambient_tol(1e-9):
        for model in (hyp, ell):
            for _ in range(20):
                a, other = interior_point(rng, 0.8), interior_point(rng, 0.8)
                ac = cn.conjugate_point(model.absolute, a,
                                        join_points(a, other))
                b = hpoint(*(ac[i] + offset * other[i] for i in range(3)))
                got = mt.squared_trig(model, a, b)
                want = oracle_squared_trig(model, a, b)
                assert (got[2] == complex(math.inf)) == (offset < 1e-9)
                assert (want[2] == complex(math.inf)) == (offset < 1e-9)
                if offset < 1e-9:
                    assert got == want
                    continue
                for i in (0, 2):
                    gap = abs(got[i] - want[i])
                    assert gap <= 1e-14 / offset * abs(want[i])
                assert abs(got[1] - want[1]) <= 1e-14


def test_squared_trig_keeps_the_digits_of_s_on_close_pairs(hyp, ell, rng):
    # S by the Lagrange identity against S at 40 digits on the same rounded
    # inputs; 1 - C (the definition) keeps about two digits at gap 1e-7
    mp = pytest.importorskip("mpmath")

    def exact_s(model, a, b):
        big = lambda v: mp.mpc(v.real, v.imag)
        m = [[big(v) for v in row] for row in model.absolute.matrix_rows()]
        form = lambda u, w: sum(big(u[i]) * m[i][j] * big(w[j])
                                for i in range(3) for j in range(3))
        return 1 - form(a, b) ** 2 / (form(a, a) * form(b, b))

    with mp.workdps(40):
        for model, radius in ((hyp, 0.85), (ell, 3.0)):
            for gap in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1):
                worst_new = worst_old = 0.0
                for _ in range(20):
                    a = interior_point(rng, radius)
                    th = rng.uniform(0.0, 2.0 * math.pi)
                    b = affine_point(a[0].real + gap * math.cos(th),
                                     a[1].real + gap * math.sin(th))
                    s = exact_s(model, a, b)
                    rel = lambda v: float(abs(v - s) / abs(s))
                    worst_new = max(worst_new,
                                    rel(mt.squared_trig(model, a, b)[1]))
                    worst_old = max(worst_old,
                                    rel(oracle_squared_trig(model, a, b)[1]))
                assert worst_new <= 1e-8, (model.kind, gap, worst_new)
                if gap == 1e-7:
                    assert worst_old >= 1e-3, (model.kind, worst_old)


def test_squared_trig_takes_no_join_conjugate_or_cross_ratio(hyp, ell, rng,
                                                            monkeypatch):
    # the closed form needs none of the definition's constructions
    a, b = affine_point(0.2, 0.1), affine_point(0.5, -0.3)
    right = (hyp, a, cn.conjugate_point(hyp.absolute, a, join_points(a, b)))
    calls = []
    for mod in (pj, cn, mt, oracles):
        for name in ("join_points", "conjugate_point", "cross_ratio"):
            if hasattr(mod, name):
                f = getattr(mod, name)
                monkeypatch.setattr(mod, name, lambda *args, _f=f, _n=name,
                                    **kw: calls.append(_n) or _f(*args, **kw))
    # the counters see the calls of the definition
    oracles.oracle_squared_trig(hyp, a, b)
    assert {"join_points", "conjugate_point", "cross_ratio"} <= set(calls)
    calls.clear()
    segments = [(model, *draw()) for _, model, draw in
                _segment_kinds(hyp, ell, rng) for _ in range(5)]
    segments.append(right)
    for model, p, q in segments:
        mt.squared_trig(model, p, q)
    assert calls == []


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


def test_distance_and_angle_match_the_cross_ratio_route(hyp, ell, rng):
    # the closed forms against half the log of a cross ratio against the
    # absolute (`oracles`), on well-separated pairs, here and in another
    # frame, where adj(M) is full and det(M) is not 1
    for model in (hyp, ell):
        for _ in range(60):
            a, b = interior_point(rng), interior_point(rng)
            if pj.point_gap(a, b) < 0.05:
                continue
            want = oracles.oracle_distance(model, a, b)
            for got in (mt.distance(model, a, b),
                        mt.distance(*_in_frame(model, a, b))):
                assert abs(got - want) <= 1e-12 * max(1.0, want)
            v, p, q = interior_point(rng, 0.7), interior_point(rng), \
                interior_point(rng)
            if min(pj.point_gap(v, p), pj.point_gap(v, q),
                   abs(pj.collinearity_residual(v, p, q))) < 0.05:
                continue
            want = oracles.oracle_angle_lines(model, join_points(v, p),
                                              join_points(v, q))
            moved, mv, mp_, mq = _in_frame(model, v, p, q)
            for got in (mt.angle_lines(model, join_points(v, p),
                                       join_points(v, q)),
                        mt.angle_lines(moved, join_points(mv, mp_),
                                       join_points(mv, mq))):
                assert abs(got - want) <= 1e-12
    with pytest.raises(errors.VertexOutsideModel):
        mt.angle_lines(hyp, hline(1, 0, -2), hline(0, 1, -2))


def test_distance_keeps_its_digits_near_the_absolute(hyp, rng):
    # pairs 1e-4 inside the absolute at angles 0.1 or more apart, against
    # acosh(|B(a,b)| / sqrt(Q(a)Q(b))) at 50 digits on the same rounded
    # inputs.  The closed form errs only by the rounding of Q(a) and Q(b),
    # at most 4 eps each in absolute value, which moves d by
    # 2 eps (1/|Q(a)| + 1/|Q(b)|); about 1e-13 of d here.  The logarithm
    # of the cross ratio loses more against traces this close to the ends.
    mp = pytest.importorskip("mpmath")
    big = lambda v: mp.mpc(v.real, v.imag)
    m = [[big(v) for v in row] for row in hyp.absolute.matrix_rows()]
    form = lambda u, w: sum(big(u[i]) * m[i][j] * big(w[j])
                            for i in range(3) for j in range(3))
    eps = 2.0 ** -52
    r = 1.0 - 1e-4
    worst_old = 0.0
    with mp.workdps(50):
        for _ in range(300):
            th = rng.uniform(0.0, 2.0 * math.pi)
            ph = th + rng.choice((-1, 1)) * rng.uniform(0.1, math.pi)
            a = affine_point(r * math.cos(th), r * math.sin(th))
            b = affine_point(r * math.cos(ph), r * math.sin(ph))
            qa, qb = form(a, a), form(b, b)
            exact = mp.acosh(mp.sqrt(abs(form(a, b) ** 2 / (qa * qb))))
            bound = 2 * eps * float(1 / abs(qa) + 1 / abs(qb) + 2 * exact)
            assert float(abs(mt.distance(hyp, a, b) - exact)) <= bound
            assert float(abs(mt.distance(hyp, a, b) - exact) / exact) <= 5e-13
            worst_old = max(worst_old, float(abs(
                oracles.oracle_distance(hyp, a, b) - exact) / exact))
    assert worst_old > 5e-13


def _dual_form(model, line):
    r = model.dual_rows
    x, y, z = pj.real_triple(line)
    return (r[0][0] * x * x + r[1][1] * y * y + r[2][2] * z * z
            + 2 * (r[0][1] * x * y + r[0][2] * x * z + r[1][2] * y * z))


def test_line_status_restates_the_line_conic_meet(hyp, ell, rng):
    # the sign of Q*(l) against the discriminant of `line_conic_meet`, on
    # random lines (in another frame too), on complex lines, and on lines
    # swept across tangency to the unit circle, outside a band of 10x the
    # threshold |Q*(l)| = 250 tol around it
    def agrees(model, line):
        assert model.line_status(line) == \
            cn.line_conic_meet(model.absolute, line).status, line

    thr = 250 * 1e-9
    seen = set()
    with ambient_tol(1e-9):
        for model in (hyp, ell):
            for _ in range(300):
                a = exterior_point(rng, 0.0, 3.0)
                b = exterior_point(rng, 0.0, 3.0)
                for m, p, q in ((model, a, b), _in_frame(model, a, b)):
                    line = join_points(p, q)
                    agrees(m, line)
                    seen.add((model.kind, m.line_status(line)))
            for _ in range(20):
                agrees(model, join_points(_complex_point(rng),
                                          _complex_point(rng)))
        for _ in range(200):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            q = rng.choice((-1, 1)) * thr * 10 ** rng.uniform(-3, 3)
            rho = math.sqrt(1.0 + q)
            line = hline(math.cos(phi), math.sin(phi), -rho)
            qd = _dual_form(hyp, line)
            if thr / 10 < abs(qd) < 10 * thr:
                continue
            agrees(hyp, line)
            seen.add(("sweep", hyp.line_status(line)))
        agrees(hyp, hline(0.6, 0.8, -1.0))
    assert seen >= {("hyperbolic", cn.SECANT), ("hyperbolic", cn.EXTERIOR),
                    ("elliptic", cn.EXTERIOR), ("sweep", cn.SECANT),
                    ("sweep", cn.TANGENT), ("sweep", cn.EXTERIOR)}


def test_status_and_distance_take_no_line_conic_meet(hyp, ell, rng,
                                                     monkeypatch):
    # the metric path reads B and adj(M) only; nothing is intersected
    monkeypatch.setattr(cn, "line_conic_meet", None)
    for model in (hyp, ell):
        a, b = interior_point(rng), interior_point(rng)
        mt.distance(model, a, b)
        mt.angle_lines(model, join_points(a, b),
                       join_points(a, interior_point(rng)))
        model.line_status(join_points(a, b))
        mt.segment_measure(model, a, exterior_point(rng))
        mt.segment_measure(model, exterior_point(rng), exterior_point(rng))


def test_segment_on_a_tangent_line_has_no_reading(hyp):
    with pytest.raises(errors.TangentLine):
        mt.segment_measure(hyp, affine_point(-0.5, 1.0), affine_point(0.7, 1.0))


@pytest.mark.parametrize("gap", [1e-7, 1e-4, 1e-1])
def test_elliptic_arcs_keep_their_digits_near_zero_and_pi(ell, rng, gap):
    # atan2 of the rejection's norm and the inner product, against the
    # closed forms of `distance` and `angle_lines`: a clamped acos keeps
    # about half the digits of an arc or angle of size `gap`
    for _ in range(20):
        a = interior_point(rng, 3.0)
        th = rng.uniform(0.0, 2.0 * math.pi)
        b = affine_point(a[0].real + gap * math.cos(th),
                         a[1].real + gap * math.sin(th))
        want = mt.distance(ell, a, b)
        side = mt.elliptic_side(ell, a, b)
        assert abs(min(side, math.pi - side) - want) <= 1e-9 * want
        # arcs from a whose chart directions are `gap` apart
        p, q = (affine_point(a[0].real + 0.5 * math.cos(th + t),
                             a[1].real + 0.5 * math.sin(th + t))
                for t in (0.0, gap))
        want = mt.angle_lines(ell, join_points(a, p), join_points(a, q))
        ang = mt.elliptic_vertex_angle(ell, a, p, q)
        assert abs(min(ang, math.pi - ang) - want) <= 1e-9 * want + 1e-15

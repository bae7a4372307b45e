import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckgeom import conics as cn
from ckgeom import errors
from ckgeom import metric as mt
from ckgeom import projective as pj
from ckgeom.projective import (
    INF,
    HLine,
    HPoint,
    Quadrangle,
    affine_point,
    cross_ratio_lines,
    cross_ratio_points,
    harmonic_conjugate,
    hline,
    hpoint,
    involution_from_pairs,
    join_points,
    meet_lines,
    points_equal,
    quadrangular_involution,
    separates,
)
from ckgeom.tolerance import get_tol
from conftest import ambient_tol

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


def _sqrt_coincident(a, b, t):
    # the unsquared test: |a x b| <= t |a| |b| with three square roots
    def norm(v):
        return math.sqrt(sum(abs(x) ** 2 for x in v))
    lhs, rhs = norm(pj.cross(a, b)), t * norm(a) * norm(b)
    return lhs <= rhs, abs(lhs - rhs) > 1e-12 * rhs


def _coincidence_decisions(a, b, t):
    eq = pj.triple_eq(a, b, t)
    with ambient_tol(t):
        try:
            join_points(pj.HPoint(*a), pj.HPoint(*b))
            joined = False
        except errors.CoincidentPoints:
            joined = True
        try:
            meet_lines(pj.HLine(*a), pj.HLine(*b))
            met = False
        except errors.CoincidentLines:
            met = True
    return eq, joined, met


@pytest.mark.parametrize("complex_coords", [False, True])
def test_squared_coincidence_test_matches_sqrt_form(rng, complex_coords):
    def coord():
        x = rng.uniform(-1, 1)
        return complex(x, rng.uniform(-1, 1)) if complex_coords else x

    def unit():
        return cmath.rect(rng.uniform(0.25, 4.0), rng.uniform(-math.pi, math.pi))

    counts = {True: 0, False: 0}
    for _ in range(3000):
        t = 10.0 ** rng.uniform(-12, -6)
        a = hpoint(coord(), coord(), coord())
        # b is a rescaled copy of a pushed off it by about t
        eps = t * 10.0 ** rng.uniform(-1.5, 1.5)
        lam = unit() if complex_coords else rng.choice((-1, 1)) * abs(unit())
        b = tuple(lam * x + eps * coord() for x in a)
        expected, clear = _sqrt_coincident(a, b, t)
        if not clear:
            continue
        counts[expected] += 1
        assert _coincidence_decisions(a, b, t) == (expected,) * 3
        # complex rescaling of either input keeps the decision
        la, lb = unit(), unit()
        assert _coincidence_decisions(tuple(la * x for x in a), b, t) == (expected,) * 3
        assert _coincidence_decisions(a, tuple(lb * x for x in b), t) == (expected,) * 3
    assert counts[True] > 500 and counts[False] > 500
    assert counts[True] + counts[False] >= 2500


def _two_pass(cls, a, b):
    # join and meet by their definition: `cross_apart`, then `normalized`
    c = pj.cross_apart(a, b, get_tol())
    if c is None:
        raise (errors.CoincidentPoints(f"join of coincident points {a} and {b}")
               if cls is HLine else
               errors.CoincidentLines(f"meet of coincident lines {a} and {b}"))
    return pj.normalized(cls, *c)


def _outcome(f, *args):
    # the value's repr (its class, the sign of each zero, a nan), or the
    # error's class and message
    try:
        return repr(f(*args))
    except (errors.GeometryError, ValueError) as e:
        return type(e), str(e)


def _assert_one_pass_matches(a, b):
    for cls, f in ((HLine, join_points), (HPoint, meet_lines)):
        got, want = _outcome(f, a, b), _outcome(_two_pass, cls, a, b)
        assert got == want, (a, b)
    return got


# pairs whose product a x b has two or three components of equal largest
# modulus, exactly: the first of them is the divisor
TIES = [
    ((1, 1, 0), (0, 0.5, 1)),        # (1, -1, 0.5)
    ((1, 1j, 0), (0, 0.3, 1)),       # (1j, -1, 0.3)
    ((1, 1, 0), (0, 0.3, 1j)),       # (1j, -1j, 0.3)
    ((1, 1, 0), (0, 1, 1)),          # (1, -1, 1)
    ((1, 1, 0), (0, 1j, 1)),         # (1, -1, 1j)
    ((0, 1, 1), (1, 0, 0.5)),        # (0.5, 1, -1)
    ((0, 1, 1), (1j, 0, 0.5)),       # (0.5, 1j, -1j)
]


@pytest.mark.parametrize("a, b", TIES)
def test_join_and_meet_take_the_first_of_tied_divisors(a, b):
    a = tuple(complex(x) for x in a)
    b = tuple(complex(x) for x in b)
    c = pj.cross(a, b)
    mods = [abs(x) for x in c]
    k = mods.index(max(mods))
    assert mods.count(mods[k]) >= 2
    for scale in (1.0, -2.0, 0.5j):
        line = join_points(tuple(scale * x for x in a), b)
        assert line[k] == 1.0 and all(x == y / c[k] for x, y in zip(line, c))
        _assert_one_pass_matches(tuple(scale * x for x in a), b)


@pytest.mark.parametrize("complex_coords", [False, True])
def test_join_and_meet_equal_their_two_pass_definition(rng, complex_coords):
    def coord():
        x = rng.uniform(-1, 1)
        return complex(x, rng.uniform(-1, 1)) if complex_coords else complex(x)

    for _ in range(500):
        _assert_one_pass_matches(hpoint(coord(), coord(), coord()),
                                 hpoint(coord(), coord(), coord()))
    # b a rescaled copy of a, pushed off it by about the threshold
    seen = set()
    for _ in range(500):
        t = 10.0 ** rng.uniform(-12, -6)
        a = hpoint(coord(), coord(), coord())
        lam = complex(rng.uniform(0.5, 2), rng.uniform(-2, 2) * complex_coords)
        eps = t * 10.0 ** rng.uniform(-0.3, 0.3)
        b = tuple(lam * x + eps * coord() for x in a)
        with ambient_tol(t):
            got = _assert_one_pass_matches(a, b)
        seen.add(isinstance(got, str))
    assert seen == {True, False}


@pytest.mark.parametrize("a, b", [
    ((math.inf, 0, 1), (0, 1, 1)),
    ((math.nan, 0, 1), (0, 1, 1)),
    ((0.5, math.nan, 1), (1, 0, 0)),
    ((1, 0, 0), (0, math.inf, 1)),
    ((complex(0, math.inf), 1, 0), (0, 0, 1)),
])
def test_join_and_meet_treat_non_finite_input_as_their_definition(a, b):
    a = tuple(complex(x) for x in a)
    b = tuple(complex(x) for x in b)
    _assert_one_pass_matches(a, b)
    _assert_one_pass_matches(b, a)


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
def test_constructors_return_normalized_triples(rng, complex_coords):
    # the contract of the module docstring: every constructor returns exactly
    # HPoint or HLine, divided by its largest-modulus component.  Complex
    # division leaves c / c = 1 + i*delta with |delta| <= eps, and 1 + 0j
    # exactly for real c; midpoints of real points may be imaginary
    def z():
        if complex_coords:
            return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return rng.uniform(-1, 1)

    def normalized(cls, v, real=not complex_coords):
        assert type(v) is cls
        top = max(v, key=abs)
        assert top.real == 1.0 and abs(top.imag) <= 2.0 ** -52
        if real:
            assert top == 1 + 0j
        return v

    phi = cn.Conic(*(z() for _ in range(6)))
    models = (mt.hyperbolic_model(), mt.elliptic_model())
    built = 0
    for _ in range(200):
        p = normalized(HPoint, hpoint(z(), z(), z()))
        q = normalized(HPoint, hpoint(z(), z(), z()))
        line = normalized(HLine, hline(z(), z(), z()))
        try:
            pq = normalized(HLine, join_points(p, q))
            normalized(HPoint, meet_lines(pq, line))
            normalized(HLine, cn.polar(phi, p))
            normalized(HPoint, cn.pole(phi, line))
            normalized(HPoint, cn.conjugate_point(phi, p, pq))
            for model in models:
                for m in mt.midpoints(model, p, q):
                    normalized(HPoint, m, real=False)
                normalized(HPoint, mt.point_symmetry(model, p, q))
        except errors.GeometryError:
            continue
        built += 1
    assert built >= 190


def _bits(z):
    """The exact bits of a complex number, the signs of zeros included."""
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("complex_coords", [False, True])
def test_carrierless_cross_ratio_matches_explicit_carrier(rng, complex_coords):
    # the carrier only selects the chart axes, so the bracket form of the
    # carrierless path and the chart determinants of a given carrier agree
    # bit for bit, down to the sign of a zero imaginary part
    checked = 0
    dropped = set()
    for _ in range(300):
        a, b, c, d = _collinear_quadruple(rng, complex_coords)
        try:
            r = pj.cross_ratio(a, b, c, d)
        except errors.GeometryError:
            continue
        carrier = pj.line_through(a, b, c, d)[0]
        for explicit in (carrier, join_points(a, b), join_points(c, d)):
            assert _bits(r) == _bits(pj.cross_ratio(a, b, c, d, carrier=explicit))
        dropped.add(3 - sum(pj.chart_axes(carrier)))
        checked += 1
    assert checked >= 250
    assert dropped == {0, 1, 2}


@pytest.mark.parametrize("pts, carrier", [
    # D, farthest from A, gives the longest product: the carrier is A x D
    ((hpoint(0, 0, 1), x_pt(0.1), x_pt(0.2), hpoint(1, 1, 0)), hline(1, -1, 0)),
    # the carrier is A x B; C lies on it and D, checked last, does not
    ((x_pt(0), hpoint(1, 0, 0), x_pt(0.5), affine_point(0.2, 0.1)), X_AXIS),
])
def test_cross_ratio_not_collinear_off_carrier(pts, carrier):
    got, _, _ = pj.line_through(*pts)
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
    x_axis = join_points(x_pt(0), x_pt(2))
    h = harmonic_conjugate(x_pt(0), x_pt(2), x_pt(1), x_axis)
    assert points_equal(h, hpoint(1, 0, 0))
    h2 = harmonic_conjugate(x_pt(0), x_pt(1), x_pt(2), x_axis)
    assert points_equal(h2, x_pt(2.0 / 3.0))
    # involution: applying twice returns the argument
    c = x_pt(0.37)
    again = harmonic_conjugate(x_pt(0), x_pt(1),
                               harmonic_conjugate(x_pt(0), x_pt(1), c, x_axis),
                               x_axis)
    assert points_equal(again, c)
    with pytest.raises(errors.DegenerateTriple):
        harmonic_conjugate(x_pt(0), x_pt(1), x_pt(0), x_axis)
    # C must lie on the carrier
    with pytest.raises(errors.NotCollinear):
        harmonic_conjugate(x_pt(0), x_pt(1), hpoint(0.5, 1, 1), x_axis)


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


def test_involution_fixed_points_cases(rng, hyp):
    from ckgeom import conics as cn

    # harmonic conjugacy w.r.t. affine 0 and 1 fixes exactly those points
    inv = involution_from_pairs(X_AXIS, (x_pt(0), x_pt(0)), (x_pt(1), x_pt(1)))
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


def _collinear_sets(seed, complex_coords, n=200):
    """n random lines, each with four points at well-separated parameters."""
    rng = random.Random(seed)

    def coord():
        if complex_coords:
            return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return rng.uniform(-1, 1)

    sets = []
    while len(sets) < n:
        u = hpoint(coord(), coord(), 1.0)
        v = hpoint(coord(), coord(), coord())
        ts = [coord() * 2 for _ in range(4)]
        if min(abs(s - t) for k, s in enumerate(ts) for t in ts[k + 1:]) < 0.2:
            continue
        try:
            line = join_points(u, v)
        except errors.CoincidentPoints:
            continue
        pts = [hpoint(*(a + t * b for a, b in zip(u, v))) for t in ts]
        sets.append((line, pts))
    return sets


@pytest.mark.parametrize("complex_coords", [False, True])
def test_involution_from_pairs_closed_form(complex_coords):
    for line, (p, p2, q, q2) in _collinear_sets(7, complex_coords):
        sigma = involution_from_pairs(line, (p, p2), (q, q2))
        for x, y in ((p, p2), (q, q2)):
            assert points_equal(sigma(x), y)
            assert points_equal(sigma(y), x)
            assert points_equal(sigma(sigma(x)), x)
        # harmonic involution: the pairs (f1, f1) and (f2, f2)
        h = involution_from_pairs(line, (p, p), (p2, p2))
        assert points_equal(h(q), harmonic_conjugate(p, p2, q,
                                                     join_points(p, p2)))
        # a pair (F, F) fixes F; the same pair twice determines nothing
        fixing = involution_from_pairs(line, (p, p), (q, q2))
        assert points_equal(fixing(p), p)
        assert points_equal(fixing(q), q2)
        with pytest.raises(errors.ChartDegenerate):
            involution_from_pairs(line, (p, p2), (p, p2))

"""Homogeneous points and lines of CP^2, cross ratios, harmonic conjugacy,
involutions on a line, and quadrangle machinery.

Points and lines are immutable triples of complex doubles, identified up to a
nonzero scale and stored normalized: the largest-modulus component is divided
out (it reads 1 + 0j for real input, 1 + i*delta with |delta| <= eps for
complex), so residuals of normalized data are directly comparable to the
ambient tolerance.  Cross ratios are chart-free, in bracket form
(ABCD) = [AC][BD] / ([BC][AD]) at the carrier's largest component, equal bit
for bit to the chart determinants (see `cross_ratio`); the affine-chart
evaluation is kept separately as a test oracle (`tests/oracles.py`).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import (
    ChartDegenerate,
    CoincidentLines,
    CoincidentPoints,
    DegenerateQuadrangle,
    DegenerateTriple,
    IndeterminateRatio,
    NonRealInput,
    NotCollinear,
    NotConcurrent,
)
from .tolerance import get_tol

INF = complex(math.inf, 0.0)


class HPoint(NamedTuple):
    x: complex
    y: complex
    z: complex


class HLine(NamedTuple):
    u: complex
    v: complex
    w: complex


def normalized(cls, x, y, z):
    """cls(x, y, z) divided by its largest-modulus component; no namedtuple
    constructor call."""
    ax, ay, az = abs(x), abs(y), abs(z)
    m = ax
    c = x
    if ay > m:
        m, c = ay, y
    if az > m:
        m, c = az, z
    if m == 0.0:
        raise ValueError("zero homogeneous triple")
    if not (m == m and m < math.inf):
        raise ValueError("non-finite homogeneous triple")
    return tuple.__new__(cls, (x / c, y / c, z / c))


def hpoint(x, y, z) -> HPoint:
    return normalized(HPoint, complex(x), complex(y), complex(z))


def hline(u, v, w) -> HLine:
    return normalized(HLine, complex(u), complex(v), complex(w))


def affine_point(x, y) -> HPoint:
    return hpoint(x, y, 1.0)


def cross(a, b):
    """Raw cross product of two triples (not normalized)."""
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def dot(a, b) -> complex:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross_apart(a, b, t):
    """a x b, or None when a and b coincide: |a x b| <= t |a| |b|.

    The test compares squares, |a x b|^2 <= t^2 |a|^2 |b|^2, so it takes no
    square root; it can differ from the unsquared form only at the rounding
    of the threshold.  Both sides scale alike, so it holds for any
    representatives of a and b.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    c0, c1, c2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    x, y, z = abs(c0), abs(c1), abs(c2)
    p, q, r = abs(a0), abs(a1), abs(a2)
    u, v, w = abs(b0), abs(b1), abs(b2)
    if x * x + y * y + z * z <= t * t * (p * p + q * q + r * r) * (u * u + v * v + w * w):
        return None
    return c0, c1, c2


def triple_eq(a, b, tol=None) -> bool:
    """Projective equality of two homogeneous triples."""
    t = get_tol() if tol is None else tol
    return cross_apart(a, b, t) is None


points_equal = triple_eq
lines_equal = triple_eq


def point_gap(p, q) -> float:
    """|p x q|: zero exactly when p and q are projectively equal."""
    c0, c1, c2 = cross(p, q)
    return math.sqrt(abs(c0) ** 2 + abs(c1) ** 2 + abs(c2) ** 2)


def is_real_triple(a, tol=None) -> bool:
    """True when some representative has all components real.

    Normalization divides by the largest-modulus component, which cancels a
    common phase, so it suffices to inspect imaginary parts directly.
    """
    t = get_tol() if tol is None else tol
    return max(abs(a[0].imag), abs(a[1].imag), abs(a[2].imag)) <= t


def real_triple(a):
    """The real representative of a (projectively) real triple."""
    return (a[0].real, a[1].real, a[2].real)


def _normalized_cross(cls, a, b, coincident, what):
    """normalized(cls, *cross_apart(a, b, get_tol())) in one pass: the
    divisor is chosen from the moduli of the coincidence test, with the tie
    order and errors of `normalized`; `coincident` is raised where
    `cross_apart` is None."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    c0, c1, c2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    x, y, z = abs(c0), abs(c1), abs(c2)
    p, q, r = abs(a0), abs(a1), abs(a2)
    u, v, w = abs(b0), abs(b1), abs(b2)
    t = get_tol()
    if x * x + y * y + z * z <= t * t * (p * p + q * q + r * r) * (u * u + v * v + w * w):
        raise coincident(f"{what} {a} and {b}")
    m, c = x, c0
    if y > m:
        m, c = y, c1
    if z > m:
        m, c = z, c2
    if m == 0.0:
        raise ValueError("zero homogeneous triple")
    if not (m == m and m < math.inf):
        raise ValueError("non-finite homogeneous triple")
    return tuple.__new__(cls, (c0 / c, c1 / c, c2 / c))


def join_points(p: HPoint, q: HPoint) -> HLine:
    return _normalized_cross(HLine, p, q, CoincidentPoints, "join of coincident points")


def meet_lines(a: HLine, b: HLine) -> HPoint:
    return _normalized_cross(HPoint, a, b, CoincidentLines, "meet of coincident lines")


def det3(a, b, c) -> complex:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def collinearity_residual(p, q, r) -> float:
    return abs(det3(p, q, r))


concurrency_residual = collinearity_residual


def incidence_residual(line, point) -> float:
    return abs(dot(line, point))


# ---------------------------------------------------------------------------
# charts on a line and cross ratios
# ---------------------------------------------------------------------------

def line_through(a, b, c, d):
    """The carrier of four collinear points (dually: the vertex of four
    concurrent lines), its chart axes and the inputs' incidence residual.

    Four points span a line iff some pair through A does, so only A x B,
    A x C and A x D are formed and the longest is kept, unnormalized; the
    first wins a tie.  The chart axes follow `chart_axes`.  The residual is
    the larger |<carrier, P>| over the two points not used to form it,
    divided by the carrier's largest component modulus: the residual against
    the normalized carrier.  Returns (carrier, (i, j), residual).
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    c0, c1, c2 = c
    d0, d1, d2 = d
    p0, p1, p2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    q0, q1, q2 = a1 * c2 - a2 * c1, a2 * c0 - a0 * c2, a0 * c1 - a1 * c0
    r0, r1, r2 = a1 * d2 - a2 * d1, a2 * d0 - a0 * d2, a0 * d1 - a1 * d0
    pm0, pm1, pm2 = abs(p0), abs(p1), abs(p2)
    qm0, qm1, qm2 = abs(q0), abs(q1), abs(q2)
    rm0, rm1, rm2 = abs(r0), abs(r1), abs(r2)
    np2 = pm0 * pm0 + pm1 * pm1 + pm2 * pm2
    nq2 = qm0 * qm0 + qm1 * qm1 + qm2 * qm2
    nr2 = rm0 * rm0 + rm1 * rm1 + rm2 * rm2
    if np2 >= nq2 and np2 >= nr2:
        u0, u1, u2, n2, m0, m1, m2, e, f = p0, p1, p2, np2, pm0, pm1, pm2, c, d
    elif nq2 >= nr2:
        u0, u1, u2, n2, m0, m1, m2, e, f = q0, q1, q2, nq2, qm0, qm1, qm2, b, d
    else:
        u0, u1, u2, n2, m0, m1, m2, e, f = r0, r1, r2, nr2, rm0, rm1, rm2, b, c
    t = get_tol()
    if not n2 > t * t:
        raise DegenerateTriple("points do not span a line")
    if m0 >= m1 and m0 >= m2:
        axes, m = (1, 2), m0
    elif m1 >= m2:
        axes, m = (0, 2), m1
    else:
        axes, m = (0, 1), m2
    rmax = max(abs(u0 * e[0] + u1 * e[1] + u2 * e[2]),
               abs(u0 * f[0] + u1 * f[1] + u2 * f[2]))
    return (u0, u1, u2), axes, rmax / m


def chart_axes(carrier):
    """Indices (i, j) parametrizing the elements incident to `carrier`.

    For points on a line u, drop the coordinate where |u| is largest (the
    projection from that basis point is then best conditioned); dually for
    lines through a point.
    """
    a0, a1, a2 = abs(carrier[0]), abs(carrier[1]), abs(carrier[2])
    if a0 >= a1 and a0 >= a2:
        return 1, 2
    if a1 >= a2:
        return 0, 2
    return 0, 1


def cross_ratio(a, b, c, d, carrier=None):
    """Cross ratio (ABCD) of four collinear points (or concurrent lines).

    `carrier` is the common line (resp. point); a given carrier is trusted,
    and only picks the chart.  When omitted it is the longest of A x B,
    A x C and A x D, as in `line_through`, and the inputs must lie on it to
    1e3 * tol, measured relative to its largest component, or NotCollinear
    is raised.

    Bracket form (ABCD) = [AC][BD] / ([BC][AD]), where [PQ] = p_i q_j - p_j q_i
    on the chart (i, j) of `chart_axes`, which drops the carrier's largest
    component k: [PQ] is +-(P x Q)_k formed from the same products.  For
    k = 0, 2 the carrierless path reuses (A x C)_k and (A x D)_k from the
    carrier choice; for k = 1 it forms the brackets in the chart's order,
    as -(A x C)_1 would flip the sign of a zero.  So the value equals the
    chart evaluation bit for bit.
    """
    t = get_tol()
    if carrier is None:
        # `line_through` inlined: the same carrier, tie order and residual
        a0, a1, a2 = a
        b0, b1, b2 = b
        c0, c1, c2 = c
        d0, d1, d2 = d
        p0, p1, p2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
        q0, q1, q2 = a1 * c2 - a2 * c1, a2 * c0 - a0 * c2, a0 * c1 - a1 * c0
        r0, r1, r2 = a1 * d2 - a2 * d1, a2 * d0 - a0 * d2, a0 * d1 - a1 * d0
        pm0, pm1, pm2 = abs(p0), abs(p1), abs(p2)
        qm0, qm1, qm2 = abs(q0), abs(q1), abs(q2)
        rm0, rm1, rm2 = abs(r0), abs(r1), abs(r2)
        np2 = pm0 * pm0 + pm1 * pm1 + pm2 * pm2
        nq2 = qm0 * qm0 + qm1 * qm1 + qm2 * qm2
        nr2 = rm0 * rm0 + rm1 * rm1 + rm2 * rm2
        if np2 >= nq2 and np2 >= nr2:
            u0, u1, u2, n2, m0, m1, m2, e, f = p0, p1, p2, np2, pm0, pm1, pm2, c, d
        elif nq2 >= nr2:
            u0, u1, u2, n2, m0, m1, m2, e, f = q0, q1, q2, nq2, qm0, qm1, qm2, b, d
        else:
            u0, u1, u2, n2, m0, m1, m2, e, f = r0, r1, r2, nr2, rm0, rm1, rm2, b, c
        if not n2 > t * t:
            raise DegenerateTriple("points do not span a line")
        if m0 >= m1 and m0 >= m2:
            m, ac, ad, bc, bd = m0, q0, r0, b1 * c2 - b2 * c1, b1 * d2 - b2 * d1
        elif m1 >= m2:
            m, ac, ad = m1, a0 * c2 - a2 * c0, a0 * d2 - a2 * d0
            bc, bd = b0 * c2 - b2 * c0, b0 * d2 - b2 * d0
        else:
            m, ac, ad, bc, bd = m2, q2, r2, b0 * c1 - b1 * c0, b0 * d1 - b1 * d0
        re = abs(u0 * e[0] + u1 * e[1] + u2 * e[2])
        rf = abs(u0 * f[0] + u1 * f[1] + u2 * f[2])
        rmax = (re if re >= rf else rf) / m
        if rmax > 1e3 * t:
            raise NotCollinear(f"inputs not incident with a common carrier (residual {rmax:.3g})")
    else:
        # `chart_axes` inlined
        m0, m1, m2 = abs(carrier[0]), abs(carrier[1]), abs(carrier[2])
        i, j = (1, 2) if m0 >= m1 and m0 >= m2 else (0, 2) if m1 >= m2 else (0, 1)
        ai, aj, bi, bj, ci, cj, di, dj = a[i], a[j], b[i], b[j], c[i], c[j], d[i], d[j]
        ac, bd = ai * cj - aj * ci, bi * dj - bj * di
        bc, ad = bi * cj - bj * ci, ai * dj - aj * di
    num = ac * bd
    den = bc * ad
    if abs(den) <= t:
        if abs(num) <= t:
            raise IndeterminateRatio("cross ratio 0/0 coincidence pattern")
        return INF
    return num / den


cross_ratio_points = cross_ratio


def cross_ratio_lines(a: HLine, b: HLine, c: HLine, d: HLine):
    vertex, _, rmax = line_through(a, b, c, d)  # dual: common point of the pencil
    if rmax > 1e3 * get_tol():
        raise NotConcurrent(f"lines not concurrent (residual {rmax:.3g})")
    return cross_ratio(a, b, c, d, carrier=vertex)


def harmonic_conjugate(a: HPoint, b: HPoint, c: HPoint, carrier: HLine) -> HPoint:
    """The point D with (ABCD) = -1.  `carrier` is the line AB, trusted as in
    `cross_ratio`; C must lie on it to 1e3 * tol, or NotCollinear is raised."""
    t = get_tol()
    if triple_eq(a, b, t):
        raise DegenerateTriple("harmonic conjugate needs A != B")
    if triple_eq(c, a, t) or triple_eq(c, b, t):
        raise DegenerateTriple("harmonic conjugate needs C distinct from A, B")
    if incidence_residual(carrier, c) > 1e3 * t:
        raise NotCollinear("C not on line AB")
    i, j = chart_axes(carrier)
    d_ac = a[i] * c[j] - a[j] * c[i]
    d_bc = b[i] * c[j] - b[j] * c[i]
    # solve (ABCD) = -1, linear in D:  D = [AC]*B + [BC]*A
    return normalized(HPoint, d_ac * b[0] + d_bc * a[0],
                       d_ac * b[1] + d_bc * a[1], d_ac * b[2] + d_bc * a[2])


def separates(a: HPoint, b: HPoint, c: HPoint, d: HPoint) -> bool:
    """Whether the real pair {A,B} separates {C,D} on their common line.

    The inputs must be real (imaginary parts within tol of 0, as in
    `is_real_triple`) and collinear in the sense of `cross_ratio`: on the
    longest of A x B, A x C and A x D to 1e3 * tol relative to its largest
    component.
    """
    t = get_tol()
    for p0, p1, p2 in (a, b, c, d):
        if abs(p0.imag) > t or abs(p1.imag) > t or abs(p2.imag) > t:
            raise NonRealInput("separation test requires real points")
    r = cross_ratio(a, b, c, d)
    if r == INF:
        return False
    if abs(r.imag) > 1e3 * t * max(1.0, abs(r)):
        raise NonRealInput(f"cross ratio unexpectedly complex: {r}")
    return r.real < 0


# ---------------------------------------------------------------------------
# involutions on a line
# ---------------------------------------------------------------------------

class LineInvolution:
    """A projective involution of a line, stored as its symmetric form

        B(x, y) = a x0 y0 + b (x0 y1 + x1 y0) + c x1 y1

    on the chart of the line that drops its largest-modulus coefficient.  It
    sends x to the y with B(x, y) = 0, by the matrix [[-b, -c], [a, b]],
    whose square is (b^2 - ac) I: every nonzero form is an involution.  Its
    fixed points are the roots of B(x, x) = 0.

    `degenerate` marks the parabolic limit of a quadrangular involution whose
    cutting line passes through a vertex: the matrix is rank one and the two
    fixed points coincide there.
    """

    __slots__ = ("line", "axes", "form", "degenerate")

    def __init__(self, line: HLine, form, degenerate=False):
        self.line = line
        self.axes = chart_axes(line)
        self.form = form
        self.degenerate = degenerate

    def unparam(self, alpha: complex, beta: complex) -> HPoint:
        i, j = self.axes
        k = 3 - i - j
        coords = [0j, 0j, 0j]
        coords[i] = alpha
        coords[j] = beta
        coords[k] = -(self.line[i] * alpha + self.line[j] * beta) / self.line[k]
        return normalized(HPoint, coords[0], coords[1], coords[2])

    def apply(self, p: HPoint) -> HPoint:
        a, b, c = self.form
        i, j = self.axes
        x0, x1 = p[i], p[j]
        return self.unparam(-(b * x0 + c * x1), a * x0 + b * x1)

    __call__ = apply

    def fixed_points(self):
        """The two (possibly coincident, possibly imaginary) fixed points."""
        a, b, c = self.form
        if self.degenerate:
            # rank one: both fixed points are the image, the larger column
            p = self.unparam(-b, a) if abs(a) >= abs(c) else self.unparam(-c, b)
            return p, p
        # fixed parameter (1, t): c t^2 + 2b t + a = 0
        t1, t2 = solve_quadratic(c, 2 * b, a)
        pts = []
        for t in (t1, t2):
            if t == INF:
                pts.append(self.unparam(0.0, 1.0))
            else:
                pts.append(self.unparam(1.0, t))
        return pts[0], pts[1]


def solve_quadratic(a, b, c):
    """Roots of a t^2 + b t + c = 0 over C; a root at infinity when a ~ 0.

    Uses the numerically stable split to avoid cancellation.
    """
    scale = max(abs(a), abs(b), abs(c))
    if scale == 0.0:
        raise ChartDegenerate("identically zero quadratic")
    tol = get_tol()
    if abs(a) <= tol * scale * 1e-6:
        if abs(b) <= tol * scale * 1e-6:
            raise ChartDegenerate("quadratic degenerates to a constant")
        return (-c / b, INF)
    disc = cmath.sqrt(b * b - 4 * a * c)
    if abs(b - disc) > abs(b + disc):
        q = -0.5 * (b - disc)
    else:
        q = -0.5 * (b + disc)
    if q == 0:
        return (0.0j, 0.0j)
    return (q / a, c / q)


def involution_from_pairs(line: HLine, pair1, pair2) -> LineInvolution:
    """The involution of `line` swapping pair1 = (P, P') and pair2 = (Q, Q').

    B(P, P') = 0 and B(Q, Q') = 0 are two linear conditions on the form
    (a, b, c); its coefficients are the cross product of their rows.  A pair
    (F, F) makes F a fixed point.  ChartDegenerate is raised when the rows
    are parallel to tol, as for the same pair given twice.
    """
    i, j = chart_axes(line)
    rows = []
    for p, p2 in (pair1, pair2):
        x0, x1, y0, y1 = p[i], p[j], p2[i], p2[j]
        rows.append((x0 * y0, x0 * y1 + x1 * y0, x1 * y1))
    form = cross_apart(rows[0], rows[1], get_tol())
    if form is None:
        raise ChartDegenerate("the two pairs do not determine an involution")
    return LineInvolution(line, form)


# ---------------------------------------------------------------------------
# quadrangles
# ---------------------------------------------------------------------------

class Quadrangle:
    """Four points, no three collinear, with the six sides and three diagonal
    points of the complete quadrangle."""

    __slots__ = ("vertices",)

    OPPOSITE = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))

    def __init__(self, p1, p2, p3, p4):
        t = get_tol()
        vs = (p1, p2, p3, p4)
        for a in range(4):
            for b in range(a + 1, 4):
                for c in range(b + 1, 4):
                    if collinearity_residual(vs[a], vs[b], vs[c]) <= t:
                        raise DegenerateQuadrangle(
                            f"vertices {a},{b},{c} are collinear"
                        )
        self.vertices = vs

    def side(self, i, j) -> HLine:
        return join_points(self.vertices[i], self.vertices[j])

    def opposite_side_pairs(self):
        for (i1, j1), (i2, j2) in self.OPPOSITE:
            yield self.side(i1, j1), self.side(i2, j2)

    def diagonal_points(self):
        return tuple(meet_lines(s1, s2) for s1, s2 in self.opposite_side_pairs())


def pascal_points(hexagon):
    """The three meets of opposite sides of a hexagon: side i, from vertex i
    to i + 1, against side i + 3, for i = 0, 1, 2.  By Pascal they are
    collinear when the six vertices lie on a conic."""
    meets = []
    for i in range(3):
        s1 = join_points(hexagon[i], hexagon[(i + 1) % 6])
        s2 = join_points(hexagon[(i + 3) % 6], hexagon[(i + 4) % 6])
        meets.append(meet_lines(s1, s2))
    return meets


def quadrangular_involution(q: Quadrangle, line: HLine) -> LineInvolution:
    """The involution the three pairs of opposite sides of `q` cut on `line`,
    fixed by the first two pairs.

    A vertex v on the line is a parabolic limit: v becomes the double point
    and the returned involution is flagged degenerate.  Its form is
    (v_j x0 - v_i x1)(v_j y0 - v_i y1) in the chart (i, j), so the matrix is
    rank one with both image and kernel at v.
    """
    t = get_tol()
    for v in q.vertices:
        if incidence_residual(line, v) <= t:
            i, j = chart_axes(line)
            vi, vj = v[i], v[j]
            return LineInvolution(line, (vj * vj, -vi * vj, vi * vi),
                                  degenerate=True)
    pair1, pair2 = ((meet_lines(q.side(*e1), line), meet_lines(q.side(*e2), line))
                    for e1, e2 in q.OPPOSITE[:2])
    return involution_from_pairs(line, pair1, pair2)

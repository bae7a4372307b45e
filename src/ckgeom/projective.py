"""Homogeneous points and lines of CP^2, cross ratios, harmonic conjugacy,
involutions on a line, and quadrangle machinery.

Points and lines are immutable triples of complex doubles, identified up to a
nonzero scale and stored normalized: the largest-modulus component is divided
out, so residuals of normalized data are directly comparable to the ambient
tolerance.  Cross ratios are computed by a chart-free determinant formula on
homogeneous coordinates; the affine-chart evaluation is kept separately as an
oracle (see theorem_lab).
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
    LineThroughVertex,
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


def _normalize(x: complex, y: complex, z: complex):
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
    return x / c, y / c, z / c


def hpoint(x, y, z) -> HPoint:
    return HPoint(*_normalize(complex(x), complex(y), complex(z)))


def hline(u, v, w) -> HLine:
    return HLine(*_normalize(complex(u), complex(v), complex(w)))


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


def _cross_apart(a, b, t):
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
    return _cross_apart(a, b, t) is None


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


def join_points(p: HPoint, q: HPoint, tol=None) -> HLine:
    c = _cross_apart(p, q, get_tol() if tol is None else tol)
    if c is None:
        raise CoincidentPoints(f"join of coincident points {p} and {q}")
    return HLine(*_normalize(*c))


def meet_lines(a: HLine, b: HLine, tol=None) -> HPoint:
    c = _cross_apart(a, b, get_tol() if tol is None else tol)
    if c is None:
        raise CoincidentLines(f"meet of coincident lines {a} and {b}")
    return HPoint(*_normalize(*c))


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

def line_through(a, b, c, d, tol):
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
    np2 = abs(p0) ** 2 + abs(p1) ** 2 + abs(p2) ** 2
    nq2 = abs(q0) ** 2 + abs(q1) ** 2 + abs(q2) ** 2
    nr2 = abs(r0) ** 2 + abs(r1) ** 2 + abs(r2) ** 2
    if np2 >= nq2 and np2 >= nr2:
        u0, u1, u2, n2, e, f = p0, p1, p2, np2, c, d
    elif nq2 >= nr2:
        u0, u1, u2, n2, e, f = q0, q1, q2, nq2, b, d
    else:
        u0, u1, u2, n2, e, f = r0, r1, r2, nr2, b, c
    if not n2 > tol * tol:
        raise DegenerateTriple("points do not span a line")
    m0, m1, m2 = abs(u0), abs(u1), abs(u2)
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


def cross_ratio(a, b, c, d, carrier=None, tol=None):
    """Cross ratio (ABCD) of four collinear points (or concurrent lines).

    `carrier` is the common line (resp. point); a given carrier is trusted,
    and only picks the chart.  When omitted it is the longest of A x B,
    A x C and A x D (see `line_through`), and the inputs must lie on it to
    1e3 * tol, measured relative to its largest component, or NotCollinear
    is raised.
    Chart-free: evaluated from 2x2 determinants of homogeneous coordinates.
    """
    t = get_tol() if tol is None else tol
    if carrier is None:
        _, (i, j), rmax = line_through(a, b, c, d, t)
        if rmax > 1e3 * t:
            raise NotCollinear(f"inputs not incident with a common carrier (residual {rmax:.3g})")
    else:
        i, j = chart_axes(carrier)
    ai, aj, bi, bj = a[i], a[j], b[i], b[j]
    ci, cj, di, dj = c[i], c[j], d[i], d[j]
    num = (ai * cj - aj * ci) * (bi * dj - bj * di)
    den = (bi * cj - bj * ci) * (ai * dj - aj * di)
    if abs(den) <= t:
        if abs(num) <= t:
            raise IndeterminateRatio("cross ratio 0/0 coincidence pattern")
        return INF
    return num / den


def cross_ratio_points(a: HPoint, b: HPoint, c: HPoint, d: HPoint, tol=None):
    return cross_ratio(a, b, c, d, tol=tol)


def cross_ratio_lines(a: HLine, b: HLine, c: HLine, d: HLine, tol=None):
    t = get_tol() if tol is None else tol
    vertex, _, rmax = line_through(a, b, c, d, t)  # dual: common point of the pencil
    if rmax > 1e3 * t:
        raise NotConcurrent(f"lines not concurrent (residual {rmax:.3g})")
    return cross_ratio(a, b, c, d, carrier=vertex, tol=t)


def harmonic_conjugate(a: HPoint, b: HPoint, c: HPoint, tol=None) -> HPoint:
    """The point D with (ABCD) = -1."""
    t = get_tol() if tol is None else tol
    if triple_eq(a, b, t):
        raise DegenerateTriple("harmonic conjugate needs A != B")
    if triple_eq(c, a, t) or triple_eq(c, b, t):
        raise DegenerateTriple("harmonic conjugate needs C distinct from A, B")
    carrier = join_points(a, b, t)
    if incidence_residual(carrier, c) > 1e3 * t:
        raise NotCollinear("C not on line AB")
    i, j = chart_axes(carrier)
    d_ac = a[i] * c[j] - a[j] * c[i]
    d_bc = b[i] * c[j] - b[j] * c[i]
    # solve (ABCD) = -1, linear in D:  D = [AC]*B + [BC]*A
    d = (
        d_ac * b[0] + d_bc * a[0],
        d_ac * b[1] + d_bc * a[1],
        d_ac * b[2] + d_bc * a[2],
    )
    return HPoint(*_normalize(*d))


def separates(a: HPoint, b: HPoint, c: HPoint, d: HPoint, tol=None) -> bool:
    """Whether the real pair {A,B} separates {C,D} on their common line.

    The inputs must be real (imaginary parts within tol of 0, as in
    `is_real_triple`) and collinear in the sense of `cross_ratio`: on the
    longest of A x B, A x C and A x D to 1e3 * tol relative to its largest
    component.
    """
    t = get_tol() if tol is None else tol
    for p0, p1, p2 in (a, b, c, d):
        if abs(p0.imag) > t or abs(p1.imag) > t or abs(p2.imag) > t:
            raise NonRealInput("separation test requires real points")
    r = cross_ratio(a, b, c, d, tol=t)
    if r == INF:
        return False
    if abs(r.imag) > 1e3 * t * max(1.0, abs(r)):
        raise NonRealInput(f"cross ratio unexpectedly complex: {r}")
    return r.real < 0


# ---------------------------------------------------------------------------
# 1-dimensional projectivities and involutions on a line
# ---------------------------------------------------------------------------

def _solve2(a, b, rhs):
    """Solve [a b] [lam, mu]^T = rhs for column 2-vectors a, b."""
    det = a[0] * b[1] - a[1] * b[0]
    if det == 0:
        raise ChartDegenerate("singular 2x2 system")
    lam = (rhs[0] * b[1] - rhs[1] * b[0]) / det
    mu = (a[0] * rhs[1] - a[1] * rhs[0]) / det
    return lam, mu


def projectivity_1d(src, dst):
    """2x2 matrix of the projectivity sending three source parameter pairs to
    three destination pairs (entries row-major)."""
    p1, p2, p3 = src
    q1, q2, q3 = dst
    lam, mu = _solve2(p1, p2, p3)
    lam2, mu2 = _solve2(q1, q2, q3)
    # columns lam*p1, mu*p2 map the canonical basis; compose dst * src^-1
    s00, s10 = lam * p1[0], lam * p1[1]
    s01, s11 = mu * p2[0], mu * p2[1]
    t00, t10 = lam2 * q1[0], lam2 * q1[1]
    t01, t11 = mu2 * q2[0], mu2 * q2[1]
    det = s00 * s11 - s01 * s10
    if det == 0:
        raise ChartDegenerate("degenerate source triple")
    i00, i01, i10, i11 = s11 / det, -s01 / det, -s10 / det, s00 / det
    return (
        t00 * i00 + t01 * i10,
        t00 * i01 + t01 * i11,
        t10 * i00 + t11 * i10,
        t10 * i01 + t11 * i11,
    )


class LineInvolution:
    """A projective involution of a line, stored as a 2x2 matrix acting on
    the chart of the line that drops its largest-modulus coefficient.

    `degenerate` marks the parabolic limit of a quadrangular involution whose
    cutting line passes through a vertex: the matrix is rank one and the two
    fixed points coincide there.
    """

    __slots__ = ("line", "axes", "matrix", "degenerate")

    def __init__(self, line: HLine, matrix, degenerate=False):
        self.line = line
        self.axes = chart_axes(line)
        self.matrix = matrix
        self.degenerate = degenerate

    def param(self, p: HPoint):
        i, j = self.axes
        return (p[i], p[j])

    def unparam(self, alpha: complex, beta: complex) -> HPoint:
        i, j = self.axes
        k = 3 - i - j
        coords = [0j, 0j, 0j]
        coords[i] = alpha
        coords[j] = beta
        coords[k] = -(self.line[i] * alpha + self.line[j] * beta) / self.line[k]
        return HPoint(*_normalize(*coords))

    def apply(self, p: HPoint) -> HPoint:
        m00, m01, m10, m11 = self.matrix
        a, b = self.param(p)
        return self.unparam(m00 * a + m01 * b, m10 * a + m11 * b)

    __call__ = apply

    def involution_residual(self) -> float:
        """Deviation of matrix^2 from a scalar multiple of the identity."""
        m00, m01, m10, m11 = self.matrix
        s00 = m00 * m00 + m01 * m10
        s01 = m01 * (m00 + m11)
        s10 = m10 * (m00 + m11)
        s11 = m11 * m11 + m01 * m10
        scale = max(abs(s00), abs(s11), 1e-300)
        return max(abs(s01), abs(s10), abs(s00 - s11)) / scale

    def fixed_points(self):
        """The two (possibly coincident, possibly imaginary) fixed points."""
        m00, m01, m10, m11 = self.matrix
        if self.degenerate:
            ev = _dominant_eigvec(self.matrix)
            p = self.unparam(*ev)
            return p, p
        # fixed parameter (1, t): m01 t^2 + (m00 - m11) t - m10 = 0
        t1, t2 = solve_quadratic(m01, m00 - m11, -m10)
        pts = []
        for t in (t1, t2):
            if t == INF:
                pts.append(self.unparam(0.0, 1.0))
            else:
                pts.append(self.unparam(1.0, t))
        return pts[0], pts[1]


def _dominant_eigvec(m):
    m00, m01, m10, m11 = m
    # rank-one matrix: any nonzero column spans the image
    if max(abs(m00), abs(m10)) >= max(abs(m01), abs(m11)):
        return (m00, m10)
    return (m01, m11)


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


def involution_from_pairs(line: HLine, pair1, pair2, tol=None) -> LineInvolution:
    """The involution of `line` swapping pair1 = (P, P') and pair2 = (Q, Q').

    Fitted as the projectivity P -> P', P' -> P, Q -> Q'; a projectivity with
    one 2-cycle is automatically an involution, so Q' -> Q comes for free (it
    is asserted to the ambient tolerance).
    """
    t = get_tol() if tol is None else tol
    i, j = chart_axes(line)
    p, p2 = pair1
    q, q2 = pair2
    src = ((p[i], p[j]), (p2[i], p2[j]), (q[i], q[j]))
    dst = ((p2[i], p2[j]), (p[i], p[j]), (q2[i], q2[j]))
    m = projectivity_1d(src, dst)
    inv = LineInvolution(line, m)
    if inv.involution_residual() > 1e3 * t:
        raise ChartDegenerate("fitted projectivity is not an involution")
    return inv


def harmonic_involution(line: HLine, f1: HPoint, f2: HPoint) -> LineInvolution:
    """Harmonic conjugacy on `line` with respect to fixed points f1, f2."""
    i, j = chart_axes(line)
    a = (f1[i], f1[j])
    b = (f2[i], f2[j])
    # matrix with eigenvectors a, b and eigenvalues +1, -1
    det = a[0] * b[1] - a[1] * b[0]
    m00 = (a[0] * b[1] + a[1] * b[0]) / det
    m01 = (-2 * a[0] * b[0]) / det
    m10 = (2 * a[1] * b[1]) / det
    m11 = -(a[0] * b[1] + a[1] * b[0]) / det
    return LineInvolution(line, (m00, m01, m10, m11))


# ---------------------------------------------------------------------------
# quadrangles
# ---------------------------------------------------------------------------

class Quadrangle:
    """Four points, no three collinear, with the six sides and three diagonal
    points of the complete quadrangle."""

    __slots__ = ("vertices",)

    OPPOSITE = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))

    def __init__(self, p1, p2, p3, p4, tol=None):
        t = get_tol() if tol is None else tol
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


def diagonal_triangle(q: Quadrangle):
    return q.diagonal_points()


def quadrangular_involution(q: Quadrangle, line: HLine, tol=None,
                            strict=False) -> LineInvolution:
    """The involution the three pairs of opposite sides of `q` cut on `line`.

    A vertex on the line is a parabolic limit: that vertex becomes the double
    point and the returned involution is flagged degenerate (rank-one
    matrix with both image and kernel at the vertex).
    """
    t = get_tol() if tol is None else tol
    on_vertex = None
    for v in q.vertices:
        if incidence_residual(line, v) <= t:
            on_vertex = v
            break
    if on_vertex is not None:
        if strict:
            raise LineThroughVertex("cutting line passes through a vertex")
        i, j = chart_axes(line)
        a, b = on_vertex[i], on_vertex[j]
        # rank-one limit with image and kernel both at the vertex
        m = (a * b, -a * a, b * b, -a * b)
        return LineInvolution(line, m, degenerate=True)
    pairs = []
    for s1, s2 in q.opposite_side_pairs():
        pairs.append((meet_lines(s1, line), meet_lines(s2, line)))
    inv = involution_from_pairs(line, pairs[0], pairs[1], tol=t)
    return inv

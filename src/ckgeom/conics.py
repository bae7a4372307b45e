"""Nondegenerate conics: pole/polar, conjugacy, line intersection, fitting,
cross ratio over a conic, and the eleven-point conic of a quadrangle."""

from __future__ import annotations

import math

from .errors import (
    CoincidentPoints,
    DegenerateConic,
    DegenerateInput,
    LineThroughVertex,
    PointNotOnConic,
    PointNotOnLine,
    PointOnConic,
    TangentLine,
)
from .projective import (
    HLine,
    HPoint,
    Quadrangle,
    chart_axes,
    cross,
    cross_ratio,
    dot,
    harmonic_conjugate,
    hline,
    hpoint,
    incidence_residual,
    involution_from_pairs,
    join_points,
    meet_lines,
    normalized,
    point_gap,
    solve_quadratic,
    triple_eq,
)
from .tolerance import get_tol

REAL = "real"
IMAGINARY = "imaginary"
DEGENERATE = "degenerate"


class Conic:
    """A conic as a normalized symmetric 3x3 complex matrix.

    The six independent entries are stored once; the classification and
    the largest imaginary part of an entry are computed eagerly.  `real`
    means representable with all-real entries of indefinite signature,
    `imaginary` all-real entries of definite signature.  A conic is never
    mutated, so its adjugate is stored on first use.
    """

    __slots__ = ("m00", "m11", "m22", "m01", "m02", "m12", "klass", "_imag",
                 "_adj")

    def __init__(self, m00, m11, m22, m01, m02, m12):
        scale = max(abs(m00), abs(m11), abs(m22), abs(m01), abs(m02), abs(m12))
        if scale == 0.0:
            raise DegenerateInput("zero conic matrix")
        div = None
        for c in (m00, m11, m22, m01, m02, m12):
            if abs(c) == scale:
                div = complex(c)
                break
        self.m00 = complex(m00) / div
        self.m11 = complex(m11) / div
        self.m22 = complex(m22) / div
        self.m01 = complex(m01) / div
        self.m02 = complex(m02) / div
        self.m12 = complex(m12) / div
        self._imag = max(abs(self.m00.imag), abs(self.m11.imag),
                         abs(self.m22.imag), abs(self.m01.imag),
                         abs(self.m02.imag), abs(self.m12.imag))
        self._adj = None
        self.klass = self._classify()

    @classmethod
    def from_matrix(cls, rows) -> "Conic":
        r = rows
        m01 = (r[0][1] + r[1][0]) / 2.0
        m02 = (r[0][2] + r[2][0]) / 2.0
        m12 = (r[1][2] + r[2][1]) / 2.0
        return cls(r[0][0], r[1][1], r[2][2], m01, m02, m12)

    def matrix_rows(self):
        return (
            (self.m00, self.m01, self.m02),
            (self.m01, self.m11, self.m12),
            (self.m02, self.m12, self.m22),
        )

    def det(self) -> complex:
        a, b, c = self.m00, self.m11, self.m22
        d, e, f = self.m01, self.m02, self.m12
        return a * (b * c - f * f) - d * (d * c - f * e) + e * (d * f - b * e)

    def adjugate(self):
        """Adjugate matrix rows; pole of a line p is adj(M) . p."""
        if self._adj is None:
            a, b, c = self.m00, self.m11, self.m22
            d, e, f = self.m01, self.m02, self.m12
            self._adj = (
                (b * c - f * f, e * f - d * c, d * f - b * e),
                (e * f - d * c, a * c - e * e, d * e - a * f),
                (d * f - b * e, d * e - a * f, a * b - d * d),
            )
        return self._adj

    def apply(self, p) -> tuple:
        """Raw matrix-vector product M . p."""
        return (
            self.m00 * p[0] + self.m01 * p[1] + self.m02 * p[2],
            self.m01 * p[0] + self.m11 * p[1] + self.m12 * p[2],
            self.m02 * p[0] + self.m12 * p[1] + self.m22 * p[2],
        )

    def value(self, p) -> complex:
        """Quadratic form p^T M p (p assumed normalized)."""
        return dot(p, self.apply(p))

    def real_rows(self):
        """All-real representative rows, or None if not real-representable."""
        if self._imag <= 1e3 * get_tol():
            return tuple(tuple(c.real for c in r) for r in self.matrix_rows())
        return None

    def _classify(self) -> str:
        # Entries are normalized to unit max modulus, so the determinant of a
        # nondegenerate conic is O(1) and of a numerically degenerate one is
        # at noise level; a single relative tolerance separates them.
        det = self.det()
        if abs(det) < get_tol():
            return DEGENERATE
        r = self.real_rows()
        if r is None:
            return REAL  # not real-representable; treated as a generic conic
        # Sylvester's criterion, for either sign: definite iff the leading
        # 2x2 minor is positive and the determinant has the sign of m00
        if r[0][0] * r[1][1] - r[0][1] ** 2 > 0 and r[0][0] * det.real > 0:
            return IMAGINARY
        return REAL

    def is_degenerate(self) -> bool:
        return self.klass == DEGENERATE

    def __repr__(self):
        return (f"Conic({self.klass}; diag=({self.m00:.3g},{self.m11:.3g},"
                f"{self.m22:.3g}))")


def unit_circle() -> Conic:
    return Conic(1.0, 1.0, -1.0, 0.0, 0.0, 0.0)


def unit_imaginary_conic() -> Conic:
    return Conic(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)


def conic_residual(phi: Conic, p) -> float:
    return abs(phi.value(p))


def point_on_conic(phi: Conic, p) -> bool:
    return conic_residual(phi, p) <= 1e3 * get_tol()


def polar(phi: Conic, p: HPoint) -> HLine:
    if phi.is_degenerate():
        raise DegenerateConic("polar needs a nondegenerate conic")
    x, y, z = phi.apply(p)
    return normalized(HLine, x, y, z)


def pole(phi: Conic, line: HLine) -> HPoint:
    if phi.is_degenerate():
        raise DegenerateConic("pole needs a nondegenerate conic")
    adj = phi.adjugate()
    return normalized(HPoint, dot(adj[0], line), dot(adj[1], line),
                       dot(adj[2], line))


def lines_conjugate(phi: Conic, a: HLine, b: HLine) -> bool:
    """Conjugacy of lines: pole of one incident with the other."""
    adj = phi.adjugate()
    v = (dot(adj[0], a), dot(adj[1], a), dot(adj[2], a))
    scale = max(abs(c) for c in v)
    return abs(dot(v, b)) <= 1e3 * get_tol() * max(scale, 1e-300)


EXTERIOR = "exterior"
TANGENT = "tangent"
SECANT = "secant"


class LineConicMeet:
    __slots__ = ("status", "points")

    def __init__(self, status, points):
        self.status = status
        self.points = points


def _line_basis(line: HLine):
    """Two well separated generating points of a line: the unit points of
    its chart (`chart_axes`) lifted onto it."""
    u = line
    i, j = chart_axes(u)
    k = 3 - i - j
    p = [0j, 0j, 0j]
    p[i] = 1.0 + 0j
    p[k] = -u[i] / u[k]
    q = [0j, 0j, 0j]
    q[j] = 1.0 + 0j
    q[k] = -u[j] / u[k]
    return hpoint(*p), hpoint(*q)


def line_conic_meet(phi: Conic, line: HLine) -> LineConicMeet:
    """Intersect a line with a conic.

    The line is parametrized by two generating points P, Q; the quadratic in
    t for P + tQ is solved over C.  The status tag refers to real points of a
    real line against the conic: secant/tangent/exterior by discriminant sign
    when all data is real, `exterior` whenever fewer than two real
    intersection points exist.
    """
    t = get_tol()
    if phi.is_degenerate():
        raise DegenerateConic("line_conic_meet needs a nondegenerate conic")
    p, q = _line_basis(line)
    mp = phi.apply(p)
    mq = phi.apply(q)
    a = dot(q, mq)
    b = 2.0 * dot(p, mq)
    c = dot(p, mp)
    scale = max(abs(a), abs(b), abs(c))
    pts = []
    if abs(a) <= t * scale * 1e-3:
        # q lies (numerically) on the conic: one root at infinity
        pts.append(q)
        if abs(b) <= t * scale * 1e-3:
            # every point of the line is conjugate to q: tangent at q
            contact = pole(phi, line)
            return LineConicMeet(TANGENT, (contact, contact))
        t0 = -c / b
        pts.append(hpoint(p[0] + t0 * q[0], p[1] + t0 * q[1], p[2] + t0 * q[2]))
        disc = b * b - 4 * a * c
    else:
        disc = b * b - 4 * a * c
        r1, r2 = solve_quadratic(a, b, c)
        for r in (r1, r2):
            pts.append(hpoint(p[0] + r * q[0], p[1] + r * q[1], p[2] + r * q[2]))
    # real-representable as in `Conic.real_rows`
    real_conic = phi._imag <= 1e3 * t
    all_real = (
        max(abs(line[0].imag), abs(line[1].imag), abs(line[2].imag)) <= t
        and max(abs(disc.imag), 0.0) <= 1e3 * t * max(1.0, abs(disc))
        and real_conic
    )
    if all_real:
        d = disc.real
        if abs(d) <= 1e3 * t * max(1.0, scale * scale):
            status = TANGENT
        elif d > 0:
            status = SECANT
        else:
            status = EXTERIOR
    else:
        status = EXTERIOR if real_conic else SECANT
    if status == TANGENT:
        # the double root carries sqrt-of-eps noise; the contact point of a
        # tangent line is exactly its pole
        contact = pole(phi, line)
        return LineConicMeet(TANGENT, (contact, contact))
    return LineConicMeet(status, tuple(pts))


def tangent_line(phi: Conic, p: HPoint) -> HLine:
    if not point_on_conic(phi, p):
        raise PointNotOnConic(f"{p} is not on the conic")
    return polar(phi, p)


def conjugate_point(phi: Conic, q: HPoint, line: HLine) -> HPoint:
    """Q_p = p . polar(Q), the conjugate of Q in the line p."""
    t = get_tol()
    if incidence_residual(line, q) > 1e3 * t:
        raise PointNotOnLine("conjugate_point needs Q on the line")
    pol = phi.apply(q)
    if point_gap(line, pol) <= 1e3 * t:
        # polar of Q is the line itself: Q is the contact point of a tangent
        raise TangentLine("line is tangent to the conic at Q")
    x, y, z = cross(line, pol)
    return normalized(HPoint, x, y, z)


def conjugate_line(phi: Conic, q: HLine, p: HPoint) -> HLine:
    """q_P = join(P, pole(q)), the conjugate of q in the pencil through P."""
    if incidence_residual(q, p) > 1e3 * get_tol():
        raise PointNotOnLine("conjugate_line needs P on the line q")
    if point_on_conic(phi, p):
        raise PointOnConic("conjugate_line undefined for P on the conic")
    pl = pole(phi, q)
    if triple_eq(pl, p):
        raise TangentLine("q is the polar of P")
    return join_points(p, pl)


# ---------------------------------------------------------------------------
# fitting and sampling
# ---------------------------------------------------------------------------

def _veronese_row(p):
    x, y, z = p
    return (x * x, y * y, z * z, 2.0 * y * z, 2.0 * x * z, 2.0 * x * y)


def conic_fit(points, rank_check=True) -> Conic:
    """Least-squares conic through >= 5 points via the smallest singular
    vector of the Veronese design matrix (numpy's SVD, imported here so
    that no module imports numpy at import time)."""
    import numpy as np

    if len(points) < 5:
        raise DegenerateInput("need at least five points")
    rows = np.array([_veronese_row(p) for p in points], dtype=complex)
    _, s, vh = np.linalg.svd(rows)
    if rank_check and len(points) == 5 and s[-1] > 0 and s[-2] <= get_tol() * s[0]:
        raise DegenerateInput("design matrix rank-deficient beyond one")
    v = vh[-1].conj()  # rows = U S V^H, so the null vector is conj(vh[-1])
    m00, m11, m22, d12, d02, d01 = v
    return Conic(m00, m11, m22, d01, d02, d12)


def conic_through_five(points) -> Conic:
    if len(points) != 5:
        raise DegenerateInput("conic_through_five takes exactly five points")
    return conic_fit(points)


def conic_point(phi: Conic) -> HPoint:
    """Some point on the conic (possibly imaginary)."""
    for probe in ((0j, 1, 0), (1, 0j, 0), (0, 0j, 1), (1, 1, 0.5)):
        try:
            line = hline(*probe)
        except ValueError:
            continue
        meet = line_conic_meet(phi, line)
        p = meet.points[0]
        if conic_residual(phi, p) <= 1e-6:
            return p
    raise DegenerateInput("could not locate a conic point")


def sample_conic_points(phi: Conic, n: int):
    """Up to n points of the conic: the second traces of n fixed lines
    through the base point `conic_point`."""
    base = conic_point(phi)
    pts = []
    for k in range(n):
        ang = 2.0 * math.pi * (k + 0.37) / n
        other = hpoint(math.cos(ang), math.sin(ang), 0.31 + 0.13 * math.sin(3 * ang))
        if triple_eq(other, base):
            continue
        line = join_points(base, other)
        meet = line_conic_meet(phi, line)
        p1, p2 = meet.points
        cand = p2 if triple_eq(p1, base) else p1
        if not triple_eq(cand, base):
            pts.append(cand)
    return pts


def _pencil_cross_ratio(theta: Conic, quad, k: int) -> complex:
    """Cross ratio of the pencil joining quad[k] to the four conic points:
    the tangent at quad[k] in slot k and for any input coinciding with it."""
    v = quad[k]
    tangent = polar(theta, v)
    lines = []
    for j, p in enumerate(quad):
        try:
            lines.append(tangent if j == k else join_points(v, p))
        except CoincidentPoints:
            lines.append(tangent)
    return cross_ratio(*lines, carrier=v)


def cross_ratio_on_conic(theta: Conic, a, b, c, d) -> complex:
    """Cross ratio of four conic points over the conic.

    By Steiner's theorem it is the cross ratio of the pencil that joins any
    point of the conic to the four, where a point joined to itself gives
    its tangent.  The pencil is taken at the input farthest from the other
    three (the largest least `point_gap`); an input that coincides with it
    at the tolerance is joined by the tangent too.
    """
    quad = (a, b, c, d)
    for p in quad:
        if conic_residual(theta, p) > 1e-6:
            raise PointNotOnConic(f"point {p} not on the conic")
    least = [math.inf] * 4
    for i in range(4):
        for j in range(i + 1, 4):
            g = point_gap(quad[i], quad[j])
            least[i] = min(least[i], g)
            least[j] = min(least[j], g)
    far = max(range(4), key=least.__getitem__)  # the first of any tie
    return _pencil_cross_ratio(theta, quad, far)


# ---------------------------------------------------------------------------
# the eleven-point conic
# ---------------------------------------------------------------------------

def eleven_point_conic(q: Quadrangle, line: HLine):
    """The conic through the fixed points of the quadrangular involution on
    `line`, the diagonal points of the quadrangle, and the six harmonic
    conjugates of the side traces.

    Returns (conic, points) with points ordered [I, J, diag1..3, L1..L6].
    The conic is fitted from the nine members that are real for real input
    (diagonal points and harmonic conjugates); I and J are verified members.
    """
    vs = q.vertices
    for v in vs:
        if incidence_residual(line, v) <= get_tol():
            raise LineThroughVertex("eleven-point conic needs l off the vertices")
    # each side and its trace once, opposite sides adjacent
    ends = [e for pair in Quadrangle.OPPOSITE for e in pair]
    sides = [q.side(i, j) for i, j in ends]
    traces = [meet_lines(side, line) for side in sides]
    # the pairs `quadrangular_involution` uses; no vertex lies on the line
    fixed = involution_from_pairs(line, traces[0:2], traces[2:4]).fixed_points()
    diag = [meet_lines(sides[k], sides[k + 1]) for k in (0, 2, 4)]
    harmonics = [harmonic_conjugate(vs[i], vs[j], trace, side)
                 for (i, j), side, trace in zip(ends, sides, traces)]
    members = diag + harmonics
    conic = conic_fit(members)
    return conic, tuple(list(fixed) + members)

"""The Cayley-Klein metric layer.

A ModelGeometry wraps the absolute conic: a real conic gives the hyperbolic
plane (interior points), an imaginary one the elliptic plane (all of RP^2).
Distances, angles, line status and the squared ratios C/S/T
(`squared_trig`) are closed forms of the absolute's bilinear form B and of
its dual, adj(M) on lines; no line is intersected with the absolute.
Midpoints, point symmetries and the geometric translations of C/S/T live
here.  The translation table (`segment_measure`) tags each segment's
magnitude, and each tag names the root family (`FAMILY`, `ROOTS`) through
which it is read unsquared.
"""

from __future__ import annotations

import cmath
import math

from . import conics as cn
from .errors import (
    CenterOnConic,
    CoincidentPoints,
    DegenerateConic,
    EndpointOnConic,
    PointOutsideModel,
    TangentLine,
    VertexOutsideModel,
)
from .projective import (
    HLine,
    HPoint,
    dot,
    cross_apart,
    is_real_triple,
    join_points,
    normalized,
    real_triple,
    triple_eq,
)
from .tolerance import get_tol

HYPERBOLIC = "hyperbolic"
ELLIPTIC = "elliptic"

INTERIOR = "interior"
EXTERIOR = "exterior"
ON_CONIC = "on_conic"


def _bilinear(r, u, v) -> float:
    """The bilinear form of the symmetric real rows `r` on real triples."""
    return (
        r[0][0] * u[0] * v[0] + r[1][1] * u[1] * v[1] + r[2][2] * u[2] * v[2]
        + r[0][1] * (u[0] * v[1] + u[1] * v[0])
        + r[0][2] * (u[0] * v[2] + u[2] * v[0])
        + r[1][2] * (u[1] * v[2] + u[2] * v[1])
    )


class ModelGeometry:
    """Absolute conic plus derived sign conventions.

    For the hyperbolic kind the real representative is scaled to signature
    (+,+,-), so interior points have a negative quadratic form.
    """

    __slots__ = ("absolute", "kind", "real_rows", "dual_rows")

    def __init__(self, absolute: cn.Conic):
        if absolute.is_degenerate():
            raise DegenerateConic("absolute conic must be nondegenerate")
        rows = absolute.real_rows()
        if rows is None:
            raise DegenerateConic("absolute conic must have a real equation")
        if absolute.klass == cn.IMAGINARY:
            self.kind = ELLIPTIC
            if rows[0][0] + rows[1][1] + rows[2][2] < 0:
                rows = tuple(tuple(-c for c in r) for r in rows)
        else:
            self.kind = HYPERBOLIC
            # an indefinite matrix has one positive eigenvalue iff det > 0
            if absolute.det().real > 0:  # flip to (+,+,-)
                rows = tuple(tuple(-c for c in r) for r in rows)
        self.absolute = absolute
        self.real_rows = rows
        self.dual_rows = tuple(tuple(c.real for c in r)
                               for r in absolute.adjugate())

    def side(self, p: HPoint) -> str:
        t = get_tol()
        if not is_real_triple(p, t):
            return EXTERIOR
        u = real_triple(p)  # the form of the real representative
        v = _bilinear(self.real_rows, u, u)
        if abs(v) <= 1e3 * t:
            return ON_CONIC
        if self.kind == ELLIPTIC:
            return INTERIOR
        return INTERIOR if v < 0 else EXTERIOR

    def is_interior(self, p: HPoint) -> bool:
        return self.side(p) == INTERIOR

    def line_status(self, line: HLine) -> str:
        """Secant iff Q*(l) = l^T adj(M) l < 0 (`dual_rows`; adj(-M) =
        adj(M)), as for the unit circle, where adj(M) = diag(-1, -1, 1), and
        any real absolute in a projective frame; lines of the elliptic plane
        and lines that are not real are exterior.

        The tangent band |Q*(l)| <= 250 tol restates `line_conic_meet`'s,
        whose points p, q of modulus one on a normalized l have p x q = +-l:
        by the Lagrange identity its discriminant is -4 Q*(l), and its band
        |Q*(l)| <= 250 tol max(1, s^2), s the largest coefficient of its
        quadratic.  Near tangents of the unit circle s <= 1 + 250 tol, so
        the two agree but for the rounding of the threshold; for any
        normalized absolute s <= 18: they part only within a factor 324.
        """
        t = get_tol()
        if not is_real_triple(line, t):
            return cn.EXTERIOR
        u = real_triple(line)
        q = _bilinear(self.dual_rows, u, u)
        if 4 * abs(q) <= 1e3 * t:
            return cn.TANGENT
        return cn.SECANT if q < 0 else cn.EXTERIOR


def hyperbolic_model() -> ModelGeometry:
    return ModelGeometry(cn.unit_circle())


def elliptic_model() -> ModelGeometry:
    return ModelGeometry(cn.unit_imaginary_conic())


def distance(model: ModelGeometry, a: HPoint, b: HPoint) -> float:
    """Non-euclidean distance, curvature -1 (hyperbolic) or +1 (elliptic).

    asinh sqrt|S| or atan2(sqrt|S|, sqrt|C|) of `squared_trig`; in the
    elliptic case the length of the shorter of the two segments bounded by
    a and b, in [0, pi/2].
    """
    if model.kind == HYPERBOLIC:
        if not model.is_interior(a) or not model.is_interior(b):
            raise PointOutsideModel("distance needs interior points")
    try:
        c, s, _ = squared_trig(model, a, b)
    except CoincidentPoints:  # the test of `triple_eq`
        return 0.0
    return READ["H" if model.kind == HYPERBOLIC else "C"](c, s)


def angle_lines(model: ModelGeometry, a: HLine, b: HLine) -> float:
    """Laguerre angle between two lines meeting inside the model, in [0, pi/2].

    atan2 of the dual ratios C* = B*(a,b)^2 / (Q*(a)Q*(b)) and, by the
    Lagrange identity and adj(adj M) = det(M) M, S* = det(M) Q(a x b) /
    (Q*(a)Q*(b)).  An angle between lines cannot be told from its
    supplement, so the value is folded onto the acute branch.
    """
    n = cross_apart(a, b, get_tol())
    if n is None:
        return 0.0
    if not model.is_interior(normalized(HPoint, *n)):
        raise VertexOutsideModel("angle vertex must be inside the model")
    phi = model.absolute
    ma, mb = ([dot(r, line) for r in phi.adjugate()] for line in (a, b))
    q = dot(a, ma) * dot(b, mb)
    return READ["C"](dot(ma, b) ** 2 / q, phi.det() * phi.value(n) / q)


# ---------------------------------------------------------------------------
# midpoints and symmetries
# ---------------------------------------------------------------------------

def sort_point_pair(p: HPoint, q: HPoint):
    """Canonical ordering of an unordered point pair: lexicographic on the
    coordinates rounded to 12 decimals, x before y before z and the real
    part before the imaginary one; equal keys keep (p, q).  The comparison
    stops at the first pair of rounded values that differ."""
    for u, v in zip(p, q):
        x, y = round(u.real, 12), round(v.real, 12)
        if x == y:
            x, y = round(u.imag, 12), round(v.imag, 12)
        if x != y:
            return (p, q) if x < y else (q, p)
    return p, q


def midpoints(model: ModelGeometry, a: HPoint, b: HPoint):
    """The two midpoints of the segment ab: the common harmonic pair of
    {a, b} and of the absolute trace of the line ab.

    In closed form they are sqrt(Q(b))*a +- sqrt(Q(a))*b, with Q the
    absolute's quadratic form and the principal complex root.  On a tangent
    line Q(a)Q(b) is the squared bilinear value, so one of the pair is the
    contact point and the other its harmonic conjugate with respect to a, b.
    Output pair is canonically ordered and may be imaginary.
    """
    t = get_tol()
    phi = model.absolute
    qa = phi.value(a)
    qb = phi.value(b)
    if abs(qa) <= 1e3 * t or abs(qb) <= 1e3 * t:
        raise EndpointOnConic("midpoints need endpoints off the absolute")
    if triple_eq(a, b, t):
        raise CoincidentPoints(f"midpoints of coincident points {a} and {b}")
    ra = cmath.sqrt(qa)
    rb = cmath.sqrt(qb)
    if (ra.conjugate() * rb).real < 0:
        ra = -ra  # swaps the pair; keeps ra + rb free of cancellation
    # In the basis a, d = b - a the pair is (ra + rb)*a + ra*d and
    # k*a - ra*d with k = rb - ra = (Q(b) - Q(a))/(ra + rb); Q(b) - Q(a) is
    # the bilinear value of d and a + b, so close endpoints lose no digits.
    d = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
    s = ra + rb
    k = dot(phi.apply(d), (a[0] + b[0], a[1] + b[1], a[2] + b[2])) / s
    return sort_point_pair(
        normalized(HPoint, s * a[0] + ra * d[0], s * a[1] + ra * d[1],
                    s * a[2] + ra * d[2]),
        normalized(HPoint, k * a[0] - ra * d[0], k * a[1] - ra * d[1],
                    k * a[2] - ra * d[2]),
    )


def point_symmetry(model: ModelGeometry, center: HPoint, p: HPoint) -> HPoint:
    """Harmonic homology with the given center and its polar as axis."""
    if cn.point_on_conic(model.absolute, center):
        raise CenterOnConic("symmetry center cannot lie on the absolute")
    q = model.absolute.apply(center)  # polar of the center, unnormalized
    qc = dot(q, center)
    qp = dot(q, p)
    lam = 2.0 * qp / qc
    return normalized(HPoint, p[0] - lam * center[0], p[1] - lam * center[1],
                       p[2] - lam * center[2])


# ---------------------------------------------------------------------------
# squared trigonometric ratios
# ---------------------------------------------------------------------------

def squared_trig(model: ModelGeometry, a: HPoint, b: HPoint):
    """The projective trigonometric ratios (C, S, T) of the segment ab.

    The paper's C = (AB B_p A_p), S = 1 - C and T = S/C, in closed form from
    the absolute M, its bilinear form B and Q(X) = B(X, X):
    C = B(a,b)^2 / (Q(a)Q(b)) and, by the Lagrange identity
    Q(a)Q(b) - B(a,b)^2 = (a x b)^T adj(M) (a x b),
    S = (a x b)^T adj(M) (a x b) / (Q(a)Q(b)), which keeps the digits that
    1 - C loses on close endpoints.  Endpoints on the absolute raise
    EndpointOnConic (the test of `point_on_conic`, on the same Q), coincident
    ones CoincidentPoints (the test of `join_points`).

    A right segment (B(a,b) = 0) yields (0, 1, inf); the test is
    |C| <= tol^2, i.e. |B(a,b)| <= tol sqrt|Q(a)Q(b)|.  It restates the
    definition's test `triple_eq(b_p, a)`: with l = a x b, b_p = l x Mb and,
    as a lies on l, b_p x a = -B(a,b) l, so that test reads
    |B(a,b)| |l| <= tol |a| |l x Mb| (and a_p = b likewise).  Both compare
    the same B(a,b) with tol times scales of the endpoints, of order one
    off the absolute, and neither depends on the representatives; they can
    part only where |B(a,b)| is within such a factor of tol.
    """
    t = get_tol()
    phi = model.absolute
    ma = phi.apply(a)
    qa = dot(a, ma)
    qb = phi.value(b)
    if abs(qa) <= 1e3 * t or abs(qb) <= 1e3 * t:
        raise EndpointOnConic("squared_trig needs endpoints off the absolute")
    n = cross_apart(a, b, t)
    if n is None:
        raise CoincidentPoints(f"squared_trig of coincident points {a}, {b}")
    q = qa * qb
    bab = dot(ma, b)
    c = bab * bab / q
    if abs(c) <= t * t:
        return 0.0j, 1.0 + 0j, complex(math.inf)
    (r00, r01, r02), (_, r11, r12), (_, _, r22) = phi.adjugate()
    x, y, z = n
    s = (r00 * x * x + r11 * y * y + r22 * z * z
         + 2 * (r01 * x * y + r02 * x * z + r12 * y * z)) / q
    return c, s, s / c


# Table of geometric translations: tags for the (C, S, T) triple.
TAG_ELLIPTIC = "elliptic"
TAG_HYP_INT_INT = "hyp-interior-interior"
TAG_HYP_MIXED = "hyp-mixed"
TAG_HYP_EXT_EXT = "hyp-exterior-exterior"
TAG_HYP_EXT_LINE = "hyp-exterior-line-angle"

# Root families: the unsquared (cc, ss, tt) of a measured magnitude v, and
# the family (circular, hyperbolic or mixed) each tag's magnitude is read by.
ROOTS = {
    "C": (math.cos, math.sin, math.tan),                     # circular
    "H": (math.cosh, math.sinh, math.tanh),                  # hyperbolic
    "M": (math.sinh, math.cosh, lambda v: 1.0 / math.tanh(v)),  # mixed
}
FAMILY = {
    TAG_ELLIPTIC: "C", TAG_HYP_EXT_LINE: "C",
    TAG_HYP_INT_INT: "H", TAG_HYP_EXT_EXT: "H",
    TAG_HYP_MIXED: "M",
}
# Each family's magnitude v >= 0 from the squared C and S (`_predict`
# inverted): C = cos^2 v, S = sin^2 v; S = -sinh^2 v; C = -sinh^2 v.
READ = {
    "C": lambda c, s: math.atan2(math.sqrt(abs(s)), math.sqrt(abs(c))),
    "H": lambda c, s: math.asinh(math.sqrt(abs(s))),
    "M": lambda c, s: math.asinh(math.sqrt(abs(c))),
}


class TrigValue:
    """A (C, S, T) triple with its geometric reading."""

    __slots__ = ("c", "s", "t", "tag", "magnitude", "predicted")

    def __init__(self, c, s, t, tag, magnitude, predicted):
        self.c = c
        self.s = s
        self.t = t
        self.tag = tag
        self.magnitude = magnitude  # geometric distance or angle
        self.predicted = predicted  # (C, S, T) recomputed from the magnitude

    def residual(self) -> float:
        vals = (self.c, self.s, self.t)
        r = 0.0
        for got, want in zip(vals, self.predicted):
            if got == complex(math.inf) or want == complex(math.inf):
                continue
            r = max(r, abs(got - want) / max(1.0, abs(want)))
        return r


def segment_measure(model: ModelGeometry, a: HPoint, b: HPoint):
    """Geometric magnitude attached to a projective segment per the
    translation table, (tag, value); each row ends with its tag's family.

    elliptic               -> elliptic distance ||ab||                  C
    hyp interior/interior  -> ||ab||                                    H
    hyp mixed              -> ||a b_p|| (conjugate of the exterior end)  M
    hyp exterior/exterior,
      secant line          -> ||a_p b_p||                               H
    hyp exterior line      -> angle between the polars                  C

    The value is the segment's own C and S read through its family
    (`READ`).  A segment on a tangent line raises TangentLine.
    """
    c, s, _ = squared_trig(model, a, b)
    tag = TAG_ELLIPTIC
    if model.kind == HYPERBOLIC:
        status = model.line_status(join_points(a, b))
        if status == cn.TANGENT:
            raise TangentLine("a segment on a tangent line has no reading")
        inside = (model.side(a) == INTERIOR) + (model.side(b) == INTERIOR)
        tag = (TAG_HYP_EXT_LINE if status == cn.EXTERIOR else
               (TAG_HYP_EXT_EXT, TAG_HYP_MIXED, TAG_HYP_INT_INT)[inside])
    return tag, READ[FAMILY[tag]](c, s)


def _predict(tag, v):
    """(C, S, T) from a tag's magnitude: its family's squared roots, with
    the signs of the segment's ratios (hyperbolic S, T and mixed C, T < 0)."""
    family = FAMILY[tag]
    if family == "M":
        # C = -sinh^2, S = cosh^2; T = -1/tanh^2 rounds unlike -(1/tanh)^2
        t = -1.0 / math.tanh(v) ** 2 if v > 1e-12 else -math.inf
        return complex(-math.sinh(v) ** 2), complex(math.cosh(v) ** 2), complex(t)
    cc, ss, tt = ROOTS[family]
    sign = 1.0 if family == "C" else -1.0
    t = sign * tt(v) ** 2 if family == "H" or abs(math.cos(v)) > 1e-12 else math.inf
    return complex(cc(v) ** 2), complex(sign * ss(v) ** 2), complex(t)


def translate_trig(model: ModelGeometry, a: HPoint, b: HPoint) -> TrigValue:
    """Tag the squared ratios of a segment with their non-euclidean reading
    and check them against the ratios its tag's family predicts."""
    c, s, t = squared_trig(model, a, b)
    tag, v = segment_measure(model, a, b)
    return TrigValue(c, s, t, tag, v, _predict(tag, v))


# ---------------------------------------------------------------------------
# elliptic sides and angles on real representatives
# ---------------------------------------------------------------------------

def _rejection(model, u, v):
    """v minus its projection onto u, against the definite form."""
    lam = _bilinear(model.real_rows, u, v) / _bilinear(model.real_rows, u, u)
    return (v[0] - lam * u[0], v[1] - lam * u[1], v[2] - lam * u[2])


def _arc(model, u, v) -> float:
    """The angle in [0, pi] between vectors u and v: atan2 of |u| times the
    norm of v's rejection from u and of <u, v>, with no clamped acos."""
    r, f = _rejection(model, u, v), model.real_rows
    sine = math.sqrt(abs(_bilinear(f, u, u) * _bilinear(f, r, r)))
    return math.atan2(sine, _bilinear(f, u, v))


def elliptic_side(model: ModelGeometry, p: HPoint, q: HPoint) -> float:
    """Length in (0, pi) of the segment between the real representatives
    of p and q (largest component one)."""
    return _arc(model, real_triple(p), real_triple(q))


def elliptic_vertex_angle(model: ModelGeometry, vertex: HPoint,
                          p: HPoint, q: HPoint) -> float:
    """Angle in (0, pi) at `vertex` between the arcs toward p and q, for the
    real representatives: the angle between the tangent vectors, the
    rejections of p and q from the vertex."""
    v = real_triple(vertex)
    return _arc(model, _rejection(model, v, real_triple(p)),
                _rejection(model, v, real_triple(q)))

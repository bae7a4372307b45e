"""The Cayley-Klein metric layer.

A ModelGeometry wraps the absolute conic: a real conic gives the hyperbolic
plane (interior points), an imaginary one the elliptic plane (all of RP^2).
Distances and Laguerre angles are logarithms of cross ratios against the
absolute.  The squared trigonometric ratios C/S/T are the closed forms of
the absolute's bilinear form B and adjugate (`squared_trig`), so the
magnitudes read by `distance` and `angle_lines` stay an independent route.
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
    VertexOutsideModel,
)
from .projective import (
    HLine,
    HPoint,
    dot,
    cross_apart,
    cross_ratio,
    is_real_triple,
    join_points,
    meet_lines,
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


class ModelGeometry:
    """Absolute conic plus derived sign conventions.

    For the hyperbolic kind the real representative is scaled to signature
    (+,+,-), so interior points have a negative quadratic form.
    """

    __slots__ = ("absolute", "kind", "real_rows")

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

    def form(self, p: HPoint) -> float:
        """Real quadratic form of a real point against the real representative."""
        x, y, z = real_triple(p)
        r = self.real_rows
        return (
            r[0][0] * x * x + r[1][1] * y * y + r[2][2] * z * z
            + 2 * (r[0][1] * x * y + r[0][2] * x * z + r[1][2] * y * z)
        )

    def side(self, p: HPoint) -> str:
        t = get_tol()
        if not is_real_triple(p, t):
            return EXTERIOR
        v = self.form(p)
        if abs(v) <= 1e3 * t:
            return ON_CONIC
        if self.kind == ELLIPTIC:
            return INTERIOR
        return INTERIOR if v < 0 else EXTERIOR

    def is_interior(self, p: HPoint) -> bool:
        return self.side(p) == INTERIOR

    def on_absolute(self, p: HPoint) -> bool:
        return cn.conic_residual(self.absolute, p) <= 1e3 * get_tol()

    def line_status(self, line: HLine) -> str:
        return cn.line_conic_meet(self.absolute, line).status


def hyperbolic_model() -> ModelGeometry:
    return ModelGeometry(cn.unit_circle())


def elliptic_model() -> ModelGeometry:
    return ModelGeometry(cn.unit_imaginary_conic())


def distance(model: ModelGeometry, a: HPoint, b: HPoint) -> float:
    """Non-euclidean distance, curvature -1 (hyperbolic) or +1 (elliptic).

    Half the log of the cross ratio against the absolute trace; the absolute
    value fixes the branch so that the result is a metric.  In the elliptic
    case the value is the length of the shorter of the two segments bounded
    by a and b, in [0, pi/2].
    """
    if model.kind == HYPERBOLIC:
        if not model.is_interior(a) or not model.is_interior(b):
            raise PointOutsideModel("distance needs interior points")
    if triple_eq(a, b):
        return 0.0
    line = join_points(a, b)
    u, v = cn.line_conic_meet(model.absolute, line).points
    r = cross_ratio(u, v, a, b, carrier=line)
    if model.kind == HYPERBOLIC:
        return 0.5 * abs(math.log(abs(r)))
    return 0.5 * abs(cmath.phase(r))


def angle_lines(model: ModelGeometry, a: HLine, b: HLine) -> float:
    """Laguerre angle between two lines meeting inside the model, in [0, pi/2].

    An angle between lines cannot be told from its supplement, so the value
    is folded onto the acute branch.
    """
    if triple_eq(a, b):
        return 0.0
    p = meet_lines(a, b)
    if not model.is_interior(p):
        raise VertexOutsideModel("angle vertex must be inside the model")
    pol = cn.polar(model.absolute, p)
    u_pt, v_pt = cn.line_conic_meet(model.absolute, pol).points
    u = join_points(p, u_pt)
    v = join_points(p, v_pt)
    r = cross_ratio(u, v, a, b, carrier=p)
    return 0.5 * abs(cmath.phase(r))


def perpendicular_through(model: ModelGeometry, line: HLine, p: HPoint) -> HLine:
    """The line through p orthogonal to `line` (join with the pole)."""
    return join_points(p, cn.pole(model.absolute, line))


# ---------------------------------------------------------------------------
# midpoints and symmetries
# ---------------------------------------------------------------------------

def _point_sort_key(p: HPoint):
    return (
        round(p[0].real, 12), round(p[0].imag, 12),
        round(p[1].real, 12), round(p[1].imag, 12),
        round(p[2].real, 12), round(p[2].imag, 12),
    )


def sort_point_pair(p: HPoint, q: HPoint):
    """Canonical (lexicographic) ordering of an unordered point pair."""
    return (p, q) if _point_sort_key(p) <= _point_sort_key(q) else (q, p)


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
    if model.on_absolute(center):
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
    EndpointOnConic (the test of `on_absolute`, on the same Q), coincident
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
    """
    if model.kind == ELLIPTIC:
        return TAG_ELLIPTIC, distance(model, a, b)
    line = join_points(a, b)
    status = model.line_status(line)
    sa = model.side(a)
    sb = model.side(b)
    if status == cn.EXTERIOR:
        pa = cn.polar(model.absolute, a)
        pb = cn.polar(model.absolute, b)
        return TAG_HYP_EXT_LINE, angle_lines(model, pa, pb)
    if sa == INTERIOR and sb == INTERIOR:
        return TAG_HYP_INT_INT, distance(model, a, b)
    if sa == INTERIOR and sb == EXTERIOR:
        bp = cn.conjugate_point(model.absolute, b, line)
        return TAG_HYP_MIXED, distance(model, a, bp)
    if sa == EXTERIOR and sb == INTERIOR:
        ap = cn.conjugate_point(model.absolute, a, line)
        return TAG_HYP_MIXED, distance(model, ap, b)
    ap = cn.conjugate_point(model.absolute, a, line)
    bp = cn.conjugate_point(model.absolute, b, line)
    return TAG_HYP_EXT_EXT, distance(model, ap, bp)


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
    and cross-check them against the independently measured magnitude."""
    c, s, t = squared_trig(model, a, b)
    tag, v = segment_measure(model, a, b)
    return TrigValue(c, s, t, tag, v, _predict(tag, v))


# ---------------------------------------------------------------------------
# elliptic representative-vector helpers (independent measurement oracle)
# ---------------------------------------------------------------------------

def elliptic_rep(model: ModelGeometry, p: HPoint):
    """A unit representative of a real point against the definite form."""
    x, y, z = real_triple(p)
    n = math.sqrt(model.form(p))
    return (x / n, y / n, z / n)


def _ell_inner(model, u, v):
    r = model.real_rows
    return (
        r[0][0] * u[0] * v[0] + r[1][1] * u[1] * v[1] + r[2][2] * u[2] * v[2]
        + r[0][1] * (u[0] * v[1] + u[1] * v[0])
        + r[0][2] * (u[0] * v[2] + u[2] * v[0])
        + r[1][2] * (u[1] * v[2] + u[2] * v[1])
    )


def elliptic_side(model: ModelGeometry, p: HPoint, q: HPoint) -> float:
    """Length in (0, pi) of the segment between chosen unit representatives."""
    c = _ell_inner(model, elliptic_rep(model, p), elliptic_rep(model, q))
    return math.acos(max(-1.0, min(1.0, c)))


def elliptic_vertex_angle(model: ModelGeometry, vertex: HPoint,
                          p: HPoint, q: HPoint) -> float:
    """Angle in (0, pi) at `vertex` between the arcs toward p and q, for the
    chosen unit representatives (tangent-vector formula)."""
    v = elliptic_rep(model, vertex)
    out = []
    for w in (elliptic_rep(model, p), elliptic_rep(model, q)):
        lam = _ell_inner(model, w, v)
        tvec = (w[0] - lam * v[0], w[1] - lam * v[1], w[2] - lam * v[2])
        n = math.sqrt(_ell_inner(model, tvec, tvec))
        out.append((tvec[0] / n, tvec[1] / n, tvec[2] / n))
    c = _ell_inner(model, out[0], out[1])
    return math.acos(max(-1.0, min(1.0, c)))

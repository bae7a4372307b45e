"""The Cayley-Klein metric layer.

A ModelGeometry wraps the absolute conic: a real conic gives the hyperbolic
plane (interior points), an imaginary one the elliptic plane (all of RP^2).
Distances and Laguerre angles are logarithms of cross ratios against the
absolute; midpoints, point symmetries, the squared trigonometric ratios
C/S/T with their geometric translations, and oriented segments with the
unsquared cc/ss ratios all live here.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

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
    _normalize,
    dot,
    cross_ratio,
    is_real_triple,
    join_points,
    meet_lines,
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
            eig = np.linalg.eigvalsh(np.array(rows, dtype=float))
            pos = sum(1 for e in eig if e > 0)
            if pos == 1:  # flip to (+,+,-)
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

    def side(self, p: HPoint, tol=None) -> str:
        t = get_tol() if tol is None else tol
        if not is_real_triple(p, t):
            return EXTERIOR
        v = self.form(p)
        if abs(v) <= 1e3 * t:
            return ON_CONIC
        if self.kind == ELLIPTIC:
            return INTERIOR
        return INTERIOR if v < 0 else EXTERIOR

    def is_interior(self, p: HPoint, tol=None) -> bool:
        return self.side(p, tol) == INTERIOR

    def on_absolute(self, p: HPoint, tol=None) -> bool:
        t = get_tol() if tol is None else tol
        return cn.conic_residual(self.absolute, p) <= 1e3 * t

    def line_status(self, line: HLine, tol=None) -> str:
        return cn.line_conic_meet(self.absolute, line, tol=tol).status


def hyperbolic_model() -> ModelGeometry:
    return ModelGeometry(cn.unit_circle())


def elliptic_model() -> ModelGeometry:
    return ModelGeometry(cn.unit_imaginary_conic())


def absolute_trace(model: ModelGeometry, line: HLine, tol=None):
    """The two intersection points U, V of a line with the absolute."""
    meet = cn.line_conic_meet(model.absolute, line, tol=tol)
    return meet


def distance(model: ModelGeometry, a: HPoint, b: HPoint, tol=None) -> float:
    """Non-euclidean distance, curvature -1 (hyperbolic) or +1 (elliptic).

    Half the log of the cross ratio against the absolute trace; the absolute
    value fixes the branch so that the result is a metric.  In the elliptic
    case the value is the length of the shorter of the two segments bounded
    by a and b, in [0, pi/2].
    """
    t = get_tol() if tol is None else tol
    if model.kind == HYPERBOLIC:
        if not model.is_interior(a, t) or not model.is_interior(b, t):
            raise PointOutsideModel("distance needs interior points")
    if triple_eq(a, b, t):
        return 0.0
    line = join_points(a, b)
    u, v = absolute_trace(model, line, tol=t).points
    r = cross_ratio(u, v, a, b, carrier=line, tol=t, check=False)
    if model.kind == HYPERBOLIC:
        return 0.5 * abs(math.log(abs(r)))
    return 0.5 * abs(cmath.phase(r))


def angle_lines(model: ModelGeometry, a: HLine, b: HLine, tol=None) -> float:
    """Laguerre angle between two lines meeting inside the model, in [0, pi/2].

    An angle between lines cannot be told from its supplement, so the value
    is folded onto the acute branch.
    """
    t = get_tol() if tol is None else tol
    if triple_eq(a, b, t):
        return 0.0
    p = meet_lines(a, b)
    if not model.is_interior(p, t):
        raise VertexOutsideModel("angle vertex must be inside the model")
    pol = cn.polar(model.absolute, p)
    u_pt, v_pt = absolute_trace(model, pol, tol=t).points
    u = join_points(p, u_pt)
    v = join_points(p, v_pt)
    r = cross_ratio(u, v, a, b, carrier=p, tol=t, check=False)
    return 0.5 * abs(cmath.phase(r))


def is_perpendicular(model: ModelGeometry, a: HLine, b: HLine, tol=None) -> bool:
    return cn.lines_conjugate(model.absolute, a, b, tol=tol)


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


def midpoints(model: ModelGeometry, a: HPoint, b: HPoint, tol=None):
    """The two midpoints of the segment ab: the common harmonic pair of
    {a, b} and of the absolute trace of the line ab.

    In closed form they are sqrt(Q(b))*a +- sqrt(Q(a))*b, with Q the
    absolute's quadratic form and the principal complex root.  On a tangent
    line Q(a)Q(b) is the squared bilinear value, so one of the pair is the
    contact point and the other its harmonic conjugate with respect to a, b.
    Output pair is canonically ordered and may be imaginary.
    """
    t = get_tol() if tol is None else tol
    phi = model.absolute
    qa = phi.value(a)
    qb = phi.value(b)
    if abs(qa) <= 1e3 * t or abs(qb) <= 1e3 * t:
        raise EndpointOnConic("midpoints need endpoints off the absolute")
    if triple_eq(a, b):
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
        HPoint(*_normalize(s * a[0] + ra * d[0], s * a[1] + ra * d[1],
                           s * a[2] + ra * d[2])),
        HPoint(*_normalize(k * a[0] - ra * d[0], k * a[1] - ra * d[1],
                           k * a[2] - ra * d[2])),
    )


def complementary_midpoints(model: ModelGeometry, a: HPoint, b: HPoint, tol=None):
    """Midpoints of the complementary segment a b_p (b_p the conjugate of b)."""
    line = join_points(a, b)
    bp = cn.conjugate_point(model.absolute, b, line, tol=tol)
    return midpoints(model, a, bp, tol=tol)


def point_symmetry(model: ModelGeometry, center: HPoint, p: HPoint,
                   tol=None) -> HPoint:
    """Harmonic homology with the given center and its polar as axis."""
    t = get_tol() if tol is None else tol
    if model.on_absolute(center, t):
        raise CenterOnConic("symmetry center cannot lie on the absolute")
    q = model.absolute.apply(center)  # polar of the center, unnormalized
    qc = dot(q, center)
    qp = dot(q, p)
    lam = 2.0 * qp / qc
    return HPoint(*_normalize(
        p[0] - lam * center[0],
        p[1] - lam * center[1],
        p[2] - lam * center[2],
    ))


# ---------------------------------------------------------------------------
# squared trigonometric ratios
# ---------------------------------------------------------------------------

def squared_trig(model: ModelGeometry, a: HPoint, b: HPoint, tol=None):
    """The projective trigonometric ratios (C, S, T) of the segment ab.

    C = (AB B_p A_p), S = 1 - C, T = S/C; a right segment (B conjugate to A)
    yields (0, 1, inf).
    """
    t = get_tol() if tol is None else tol
    if model.on_absolute(a, t) or model.on_absolute(b, t):
        raise EndpointOnConic("squared_trig needs endpoints off the absolute")
    line = join_points(a, b)
    ap = cn.conjugate_point(model.absolute, a, line, tol=t)
    bp = cn.conjugate_point(model.absolute, b, line, tol=t)
    if triple_eq(bp, a, t) or triple_eq(ap, b, t):
        return 0.0j, 1.0 + 0j, complex(math.inf)
    c = cross_ratio(a, b, bp, ap, carrier=line, tol=t, check=False)
    s = 1.0 - c
    tt = s / c if c != 0 else complex(math.inf)
    return c, s, tt


# Table of geometric translations: tags for the (C, S, T) triple.
TAG_ELLIPTIC = "elliptic"
TAG_HYP_INT_INT = "hyp-interior-interior"
TAG_HYP_MIXED = "hyp-mixed"
TAG_HYP_EXT_EXT = "hyp-exterior-exterior"
TAG_HYP_EXT_LINE = "hyp-exterior-line-angle"


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


def segment_measure(model: ModelGeometry, a: HPoint, b: HPoint, tol=None):
    """Geometric magnitude attached to a projective segment per the
    translation table: (tag, value).

    elliptic               -> elliptic distance ||ab||
    hyp interior/interior  -> ||ab||
    hyp mixed              -> ||a b_p|| (conjugate of the exterior endpoint)
    hyp exterior/exterior,
      secant line          -> ||a_p b_p||
    hyp exterior line      -> angle between the polars
    """
    t = get_tol() if tol is None else tol
    if model.kind == ELLIPTIC:
        return TAG_ELLIPTIC, distance(model, a, b, tol=t)
    line = join_points(a, b)
    status = model.line_status(line, tol=t)
    sa = model.side(a, t)
    sb = model.side(b, t)
    if status == cn.EXTERIOR:
        pa = cn.polar(model.absolute, a)
        pb = cn.polar(model.absolute, b)
        return TAG_HYP_EXT_LINE, angle_lines(model, pa, pb, tol=t)
    if sa == INTERIOR and sb == INTERIOR:
        return TAG_HYP_INT_INT, distance(model, a, b, tol=t)
    if sa == INTERIOR and sb == EXTERIOR:
        bp = cn.conjugate_point(model.absolute, b, line, tol=t)
        return TAG_HYP_MIXED, distance(model, a, bp, tol=t)
    if sa == EXTERIOR and sb == INTERIOR:
        ap = cn.conjugate_point(model.absolute, a, line, tol=t)
        return TAG_HYP_MIXED, distance(model, ap, b, tol=t)
    ap = cn.conjugate_point(model.absolute, a, line, tol=t)
    bp = cn.conjugate_point(model.absolute, b, line, tol=t)
    return TAG_HYP_EXT_EXT, distance(model, ap, bp, tol=t)


def _predict(tag, v):
    if tag == TAG_ELLIPTIC or tag == TAG_HYP_EXT_LINE:
        c = math.cos(v) ** 2
        s = math.sin(v) ** 2
        t = math.tan(v) ** 2 if abs(math.cos(v)) > 1e-12 else math.inf
        return complex(c), complex(s), complex(t)
    if tag == TAG_HYP_INT_INT or tag == TAG_HYP_EXT_EXT:
        return (
            complex(math.cosh(v) ** 2),
            complex(-math.sinh(v) ** 2),
            complex(-math.tanh(v) ** 2),
        )
    # mixed: C = -sinh^2, S = cosh^2, T = -coth^2
    c = complex(-math.sinh(v) ** 2)
    s = complex(math.cosh(v) ** 2)
    t = complex(-1.0 / math.tanh(v) ** 2) if v > 1e-12 else complex(-math.inf)
    return c, s, t


def translate_trig(model: ModelGeometry, a: HPoint, b: HPoint, tol=None) -> TrigValue:
    """Tag the squared ratios of a segment with their non-euclidean reading
    and cross-check them against the independently measured magnitude."""
    c, s, t = squared_trig(model, a, b, tol=tol)
    tag, v = segment_measure(model, a, b, tol=tol)
    return TrigValue(c, s, t, tag, v, _predict(tag, v))


# ---------------------------------------------------------------------------
# oriented segments and the unsquared cc/ss ratios
# ---------------------------------------------------------------------------

class OrientedSegment:
    """A segment with a preferred midpoint and preferred complementary
    midpoint; carries the unsquared ratios cc and ss.

    cc(AB) = (AB B_p D) and ss(AB) = (A B_p B G) where D, G are the preferred
    midpoint and complementary midpoint; cc is even and ss odd under
    direction reversal, and cc^2 = C, ss^2 = S.
    """

    __slots__ = ("model", "a", "b", "line", "ap", "bp", "mid", "comp")

    def __init__(self, model, a, b, mid, comp, tol=None):
        t = get_tol() if tol is None else tol
        self.model = model
        self.a = a
        self.b = b
        self.line = join_points(a, b)
        self.ap = cn.conjugate_point(model.absolute, a, self.line, tol=t)
        self.bp = cn.conjugate_point(model.absolute, b, self.line, tol=t)
        self.mid = mid
        self.comp = comp

    def cc(self, reverse=False) -> complex:
        if reverse:
            return cross_ratio(self.b, self.a, self.ap, self.mid,
                               carrier=self.line, check=False)
        return cross_ratio(self.a, self.b, self.bp, self.mid,
                           carrier=self.line, check=False)

    def ss(self, reverse=False) -> complex:
        if reverse:
            return cross_ratio(self.b, self.ap, self.a, self.comp,
                               carrier=self.line, check=False)
        return cross_ratio(self.a, self.bp, self.b, self.comp,
                           carrier=self.line, check=False)


def orient_segment(model: ModelGeometry, a: HPoint, b: HPoint,
                   mid_choice: int = 0, comp_choice: int = 0,
                   tol=None) -> OrientedSegment:
    """Deterministic orientation: midpoints and complementary midpoints are
    canonically sorted and picked by index."""
    mids = midpoints(model, a, b, tol=tol)
    comps = complementary_midpoints(model, a, b, tol=tol)
    return OrientedSegment(model, a, b, mids[mid_choice], comps[comp_choice],
                           tol=tol)


# ---------------------------------------------------------------------------
# elliptic representative-vector helpers (independent measurement oracle)
# ---------------------------------------------------------------------------

def elliptic_rep(model: ModelGeometry, p: HPoint):
    """A unit representative of a real point against the definite form."""
    x, y, z = real_triple(p)
    r = model.real_rows
    q = (
        r[0][0] * x * x + r[1][1] * y * y + r[2][2] * z * z
        + 2 * (r[0][1] * x * y + r[0][2] * x * z + r[1][2] * y * z)
    )
    n = math.sqrt(q)
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

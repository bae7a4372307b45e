"""Angles between rays via cross ratios over the absolute conic.

A ray from an interior point P along a line a is named by its endpoint on
the absolute.  The angle between two rays with common origin is read off the
cross ratio, over the absolute, of the tangency contact points from P and
the two ray endpoints; unlike the Laguerre line-angle this distinguishes an
angle from its supplement.
"""

from __future__ import annotations

import cmath
import math

from . import conics as cn
from .errors import DifferentOrigins
from .projective import (
    HLine,
    HPoint,
    incidence_residual,
    join_points,
    meet_lines,
    points_equal,
    real_triple,
    triple_eq,
)


class Ray:
    __slots__ = ("origin", "carrier", "endpoint")

    def __init__(self, origin: HPoint, carrier: HLine, endpoint: HPoint):
        self.origin = origin
        self.carrier = carrier
        self.endpoint = endpoint

    def __repr__(self):
        return f"Ray(origin={self.origin}, endpoint={self.endpoint})"


def ray_towards(model, origin: HPoint, target: HPoint) -> Ray:
    """The ray from `origin` through `target`: its endpoint is the absolute's
    trace on the target's side of the origin.

    All the points involved (origin, target and the traces of a secant line
    of the model, or of a circle centered at the origin when that circle is
    the model's absolute) are finite in the standard chart, so the side test
    is the sign of the chart direction product.
    """
    line = join_points(origin, target)
    u, v = cn.line_conic_meet(model.absolute, line).points
    ox, oy, oz = real_triple(origin)
    tx, ty, tz = real_triple(target)
    dx, dy = tx / tz - ox / oz, ty / tz - oy / oz
    best = None
    for w in (u, v):
        wx, wy, wz = real_triple(w)
        if abs(wz) < 1e-9 * max(abs(wx), abs(wy)):
            score = 0.0  # trace at chart infinity: decided by the other one
        else:
            score = (wx / wz - ox / oz) * dx + (wy / wz - oy / oz) * dy
        if best is None or score > best[0]:
            best = (score, w)
    return Ray(origin, line, best[1])


def other_trace(ray: Ray, conic) -> HPoint:
    """The trace of the ray's carrier on the conic that is not its endpoint:
    the endpoint of the opposite ray."""
    u, v = cn.line_conic_meet(conic, ray.carrier).points
    return v if triple_eq(u, ray.endpoint, 1e-6) else u


def angle_between_rays(model, r1: Ray, r2: Ray) -> float:
    """Undirected angle between two rays with the same origin, in [0, pi].

    Computed as |arg| of the cross ratio over the absolute of the contact
    points U, V of the tangents from the origin together with the two ray
    endpoints.  With this branch the supplement relation
    angle(a1,b1) + angle(a1,b2) = pi is exact.
    """
    conic = model.absolute
    if not points_equal(r1.origin, r2.origin, 1e-6):
        raise DifferentOrigins("rays must share their origin")
    if triple_eq(r1.endpoint, r2.endpoint, 1e-6):
        return 0.0
    pol = cn.polar(conic, r1.origin)
    u, v = cn.line_conic_meet(conic, pol).points
    val = cn.cross_ratio_on_conic(conic, u, v, r1.endpoint, r2.endpoint)
    return abs(cmath.phase(val))


def ray_cosine_opposite(model, r1: Ray, r2: Ray) -> complex:
    """cos of the ray angle via 2 (A1 B1 B2 A2)_Phi - 1, using the opposite
    ray endpoints A2, B2."""
    conic = model.absolute
    a2 = other_trace(r1, conic)
    b2 = other_trace(r2, conic)
    val = cn.cross_ratio_on_conic(conic, r1.endpoint, r2.endpoint, b2, a2)
    return 2.0 * val - 1.0


def ray_cosine_conjugate(model, r1: Ray, r2: Ray) -> complex:
    """cos of the ray angle via (A1 B1 B1' A1')_Phi, where A1', B1' are
    endpoints of the conjugate lines at the origin, labeled so that the
    lines A1 B2, B1 A2, A1'B1', A2'B2' are concurrent."""
    conic = model.absolute
    p = r1.origin
    a2 = other_trace(r1, conic)
    b2 = other_trace(r2, conic)
    ap = cn.conjugate_line(conic, r1.carrier, p)
    bp = cn.conjugate_line(conic, r2.carrier, p)
    a_pr = cn.line_conic_meet(conic, ap).points
    b_pr = cn.line_conic_meet(conic, bp).points
    z = meet_lines(join_points(r1.endpoint, b2), join_points(r2.endpoint, a2))
    # choose the labeling with A1'B1' (and then A2'B2') through z
    best = None
    for (a1p, a2p) in (a_pr, (a_pr[1], a_pr[0])):
        for (b1p, b2p) in (b_pr, (b_pr[1], b_pr[0])):
            r = max(incidence_residual(join_points(a1p, b1p), z),
                    incidence_residual(join_points(a2p, b2p), z))
            if best is None or r < best[0]:
                best = (r, a1p, b1p)
    _, a1p, b1p = best
    return cn.cross_ratio_on_conic(conic, r1.endpoint, r2.endpoint, b1p, a1p)


def vertex_angle(model, vertex: HPoint, p: HPoint, q: HPoint) -> float:
    """Interior angle at `vertex` between the rays toward p and q, in
    [0, pi]; the points p, q must be interior."""
    r1 = ray_towards(model, vertex, p)
    r2 = ray_towards(model, vertex, q)
    c = ray_cosine_opposite(model, r1, r2)
    cr = c.real
    return math.acos(max(-1.0, min(1.0, cr)))

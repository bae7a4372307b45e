"""Independent oracles for the tests: evaluations that ckgeom itself does
not use, written apart from the kernel they check."""

import cmath
import math

import numpy as np

from ckgeom import conics as cn
from ckgeom import metric as mt
from ckgeom import rays as ry
from ckgeom import trig as tg
from ckgeom.errors import ChartDegenerate, EndpointOnConic
from ckgeom.projective import cross_ratio, join_points, meet_lines, triple_eq
from ckgeom.tolerance import get_tol


def numpy_philox(seed, counter):
    """numpy's generator on Philox4x64-10(key=seed, counter=[0,0,0,counter]),
    the oracle of `ckgeom.philox.Philox`."""
    return np.random.Generator(np.random.Philox(
        key=seed, counter=np.array([0, 0, 0, counter], dtype=np.uint64)))


def oracle_cross_ratio(a, b, c, d):
    """Affine-chart evaluation of the cross ratio, an oracle against the
    bracket form of `ckgeom.projective.cross_ratio`.

    The chart is the coordinate with the largest least modulus across the
    four points; a point at chart infinity falls back to the harmonic-ratio
    form (ABCD) = [AC]/[BC].
    """
    t = get_tol()
    pts = (a, b, c, d)
    # prefer a chart where no point is at infinity; allow exactly one (it
    # must be D, where the harmonic-ratio form applies)
    best = None
    for k in range(3):
        mods = [abs(p[k]) for p in pts]
        n_inf = sum(1 for m in mods if m <= t)
        finite_min = min((m for m in mods if m > t), default=0.0)
        # a single infinite point is only usable in the D slot
        bad_slot = 1 if (n_inf == 1 and mods[3] > t) else 0
        key = (n_inf, bad_slot, -finite_min)
        if best is None or key < best[0]:
            best = (key, k)
    (n_inf, _, _), k = best
    if n_inf > 1:
        raise ChartDegenerate("no affine chart avoids infinity")
    # a usable second coordinate: pick the one with the larger spread
    others = [i for i in range(3) if i != k]
    i = max(others, key=lambda ax: max(abs(p[ax]) for p in pts))
    coords = []
    infinite = None
    for idx, p in enumerate(pts):
        if abs(p[k]) <= t:
            infinite = idx
            coords.append(None)
        else:
            coords.append(p[i] / p[k])
    if infinite is None:
        ca, cb, cc, cd = coords
        return ((cc - ca) * (cd - cb)) / ((cc - cb) * (cd - ca))
    if infinite == 3:
        ca, cb, cc = coords[0], coords[1], coords[2]
        return (cc - ca) / (cc - cb)
    raise ChartDegenerate("chart infinity in an unsupported slot")


def oracle_squared_trig(model, a, b):
    """The paper's definition of the squared ratios of the segment ab,
    C = (AB B_p A_p), S = 1 - C and T = S/C, with A_p and B_p the conjugates
    of the endpoints in the line ab: an oracle for the closed form of
    `ckgeom.metric.squared_trig`.  A right segment (B_p = A or A_p = B)
    yields (0, 1, inf).
    """
    if cn.point_on_conic(model.absolute, a) or \
            cn.point_on_conic(model.absolute, b):
        raise EndpointOnConic("squared_trig needs endpoints off the absolute")
    line = join_points(a, b)
    ap = cn.conjugate_point(model.absolute, a, line)
    bp = cn.conjugate_point(model.absolute, b, line)
    if triple_eq(bp, a) or triple_eq(ap, b):
        return 0.0j, 1.0 + 0j, complex(math.inf)
    c = cross_ratio(a, b, bp, ap, carrier=line)
    s = 1.0 - c
    return c, s, s / c


def oracle_point_sort_key(p):
    """The coordinates of p rounded to 12 decimals, x before y before z and
    the real part before the imaginary one: `ckgeom.metric.sort_point_pair`
    keeps (p, q) exactly when key(p) <= key(q)."""
    return (
        round(p[0].real, 12), round(p[0].imag, 12),
        round(p[1].real, 12), round(p[1].imag, 12),
        round(p[2].real, 12), round(p[2].imag, 12),
    )


def oracle_distance(model, a, b):
    """Half the log of the cross ratio of a, b against the absolute trace of
    the line ab, folded onto a metric branch: an oracle for the closed form
    of `ckgeom.metric.distance`.  Hyperbolic values are |log|r|| / 2,
    elliptic ones |arg r| / 2, in [0, pi/2]."""
    if triple_eq(a, b):
        return 0.0
    line = join_points(a, b)
    u, v = cn.line_conic_meet(model.absolute, line).points
    r = cross_ratio(u, v, a, b, carrier=line)
    if model.kind == mt.HYPERBOLIC:
        return 0.5 * abs(math.log(abs(r)))
    return 0.5 * abs(cmath.phase(r))


def oracle_angle_lines(model, a, b):
    """The Laguerre angle of lines a, b: half the argument of their cross
    ratio against the tangents from their meet to the absolute, in
    [0, pi/2]; an oracle for the closed form of
    `ckgeom.metric.angle_lines`."""
    if triple_eq(a, b):
        return 0.0
    p = meet_lines(a, b)
    u_pt, v_pt = cn.line_conic_meet(model.absolute,
                                    cn.polar(model.absolute, p)).points
    r = cross_ratio(join_points(p, u_pt), join_points(p, v_pt), a, b,
                    carrier=p)
    return 0.5 * abs(cmath.phase(r))


def hand_figure_lengths(cfg, figure):
    """Root families and magnitudes of a worked figure, written out per
    figure as point-pair distances and line angles: an oracle for the
    translation-table readings of `ckgeom.trig`.

    `figure` is a right-angled kind of `ckgeom.trig` (its magnitudes a, b, c,
    beta, gamma, with Lambert figures relabeled so B is exterior), "hexagon"
    or "quadrilateral" (their magnitudes a, b, c, alpha, beta, gamma, with
    the quadrilateral relabeled so C is exterior; its angles alpha and beta
    are vertex angles, read outside the translation table).
    """
    c, model = cfg, cfg.model
    d = lambda p, q: mt.distance(model, p, q)
    angle = lambda x, y: mt.angle_lines(model, x, y)
    if figure == tg.LAMBERT and model.is_interior(c.B):
        c = tg._swap_bc(c)
    if figure == "quadrilateral":
        c = tg._exterior_at_c(c)
    if figure == tg.ELLIPTIC_RIGHT:
        return "CCCCC", (mt.elliptic_side(model, c.B, c.C),
                         mt.elliptic_side(model, c.C, c.A),
                         mt.elliptic_side(model, c.A, c.B),
                         mt.elliptic_vertex_angle(model, c.B, c.C, c.A),
                         mt.elliptic_vertex_angle(model, c.C, c.A, c.B))
    if figure == tg.HYPERBOLIC_RIGHT:
        return "HHHCC", (d(c.B, c.C), d(c.C, c.A), d(c.A, c.B),
                         angle(c.c, c.a), angle(c.a, c.b))
    if figure == tg.LAMBERT:
        return "MHMHC", (d(c.C, c.Ba), d(c.C, c.A), d(c.A, c.Bc),
                         d(c.Bc, c.Ba), angle(c.a, c.b))
    if figure == tg.PENTAGON:
        return "HMMHH", (d(c.Ba, c.Ca), d(c.Cb, c.A), d(c.A, c.Bc),
                         d(c.Bc, c.Ba), d(c.Ca, c.Cb))
    if figure == "hexagon":
        return "HHHHHH", (d(c.Ba, c.Ca), d(c.Cb, c.Ab), d(c.Ac, c.Bc),
                          d(c.Ab, c.Ac), d(c.Bc, c.Ba), d(c.Ca, c.Cb))
    return "MMHCCH", (d(c.B, c.Ca), d(c.A, c.Cb), d(c.A, c.B),
                      ry.vertex_angle(model, c.A, c.B, c.Cb),
                      ry.vertex_angle(model, c.B, c.A, c.Ca),
                      d(c.Ca, c.Cb))

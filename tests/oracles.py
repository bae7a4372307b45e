"""Independent oracles for the tests: evaluations that ckgeom itself does
not use, written apart from the kernel they check."""

import cmath
import math

import numpy as np

from ckgeom import conics as cn
from ckgeom import metric as mt
from ckgeom import rays as ry
from ckgeom import trig as tg
from ckgeom.errors import (
    ChartDegenerate,
    EndpointOnConic,
    GeneralPositionViolation,
    NoCoherentAssignment,
)
from ckgeom.projective import (
    collinearity_residual,
    cross_ratio,
    join_points,
    meet_lines,
    points_equal,
    triple_eq,
)
from ckgeom.tolerance import get_tol


def numpy_philox(seed, counter):
    """numpy's generator on Philox4x64-10(key=seed, counter=[0,0,0,counter]),
    the oracle of `ckgeom.philox.Philox`."""
    return np.random.Generator(np.random.Philox(
        key=seed, counter=np.array([0, 0, 0, counter], dtype=np.uint64)))


def oracle_build(model, A, B, C):
    """The eager slots of `centers.PolarTriangleConfig(model, A, B, C)` by
    name, formed through the kernel functions one test at a time: each M.X
    twice (`point_on_conic`, `polar`), each adj(M).l twice (`pole`,
    `lines_conjugate`) and all 15 pair tests.  Raises where and as that
    build does."""
    t = get_tol()
    phi = model.absolute
    if collinearity_residual(A, B, C) <= t:
        raise GeneralPositionViolation("vertices are collinear")
    for name, v in (("A", A), ("B", B), ("C", C)):
        if cn.point_on_conic(phi, v):
            raise GeneralPositionViolation(f"vertex {name} lies on the absolute")
    s = {"model": model, "A": A, "B": B, "C": C}
    s["a"], s["b"], s["c"] = join_points(B, C), join_points(C, A), join_points(A, B)
    s["ap"], s["bp"], s["cp"] = (cn.polar(phi, v) for v in (A, B, C))
    s["Ap"], s["Bp"], s["Cp"] = (cn.pole(phi, s[x]) for x in "abc")
    for name in ("A'", "B'", "C'"):
        if cn.point_on_conic(phi, s[name[0] + "p"]):
            raise GeneralPositionViolation(
                f"polar vertex {name} on the absolute (tangent side)")
    verts = (("A", A), ("B", B), ("C", C),
             ("A'", s["Ap"]), ("B'", s["Bp"]), ("C'", s["Cp"]))
    for i in range(6):
        for j in range(i + 1, 6):
            if points_equal(verts[i][1], verts[j][1], t):
                raise GeneralPositionViolation(
                    f"vertices {verts[i][0]} and {verts[j][0]} coincide")
    s["conjugate_side_pairs"] = tuple(
        x + y for x, y in ("bc", "ca", "ab")
        if cn.lines_conjugate(phi, s[x], s[y]))
    return s


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


def oracle_coherent_orientation(cfg):
    """The orientation search with every midpoint choice of T' listed before
    the first is tried: the eager reference of the lazy
    `ckgeom.trig.coherent_orientation`, reading the same helpers of
    `ckgeom.trig`."""
    if cfg.is_right_angled():
        raise NoCoherentAssignment("coherent orientation needs a non-right-angled triangle")
    m = cfg.magic
    dual = cfg.dual
    avoid = (cfg.A0, cfg.B0, cfg.C0)
    primal = tg.midpoint_assignments((cfg.mids_a, cfg.mids_b, cfg.mids_c),
                                     avoid)
    primed = [trip for _, trip in tg.midpoint_assignments(
        (dual.mids_a, dual.mids_b, dual.mids_c), avoid)]
    comp, compd = cfg.complementary, dual.complementary
    for _, (D, E, F) in primal:
        for Dp, Ep, Fp in primed:
            mD = tg._pick_on_line(m.pairs[0], join_points(D, Dp))
            mE = tg._pick_on_line(m.pairs[1], join_points(E, Ep))
            mF = tg._pick_on_line(m.pairs[2], join_points(F, Fp))
            if mD is None or mE is None or mF is None:
                continue
            if collinearity_residual(mD, mE, mF) <= 1e3 * get_tol():
                continue
            sol = tg._solve_complementary(comp, (mD, mE, mF))
            if sol is None:
                continue
            sol_d = tg._solve_complementary(compd, (mD, mE, mF))
            if sol_d is None:
                continue
            o = tg.OrientedTriangleConfig(cfg, (D, E, F), sol, (mD, mE, mF))
            o.dual = tg.OrientedTriangleConfig(dual, (Dp, Ep, Fp), sol_d,
                                               o.magic)
            o.dual.dual = o
            return o
    raise NoCoherentAssignment("no coherent orientation found")


def oracle_projective_law_of_cosines(o, side):
    """cc(YZ) = -ss(XY) ss(ZX) cc(Y'Z') - cc(XY) cc(ZX) for one side of the
    oriented triangle o, each ratio its own cross ratio (six per law): the
    reference of `ckgeom.trig.projective_laws_of_cosines`."""
    tgt, s1, s2 = {"a": ("BC", "AB", "CA"), "b": ("CA", "BC", "AB"),
                   "c": ("AB", "CA", "BC")}[side]
    lhs = tg.side_cc(o, tgt)
    rhs = (-tg.side_ss(o, s1) * tg.side_ss(o, s2) * tg.side_cc(o.dual, tgt)
           - tg.side_cc(o, s1) * tg.side_cc(o, s2))
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def oracle_carnot_sides(cfg, f, Astar, Bstar, Cstar):
    """f of `metric.distance` multiplied over the Carnot segments B A*,
    C B*, A C* and over C A*, A B*, B C*: the reference of the measured
    products of `ckgeom.trig`, which read the segments' squared ratios."""
    model = cfg.model
    stars = (Astar, Bstar, Cstar)
    return tuple(
        math.prod(f(mt.distance(model, end, star))
                  for end, star in zip(ends, stars))
        for ends in ((cfg.B, cfg.C, cfg.A), (cfg.C, cfg.A, cfg.B)))

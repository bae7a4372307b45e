"""Trigonometry engine.

Menelaus, Ceva and Van Aubel in projective form; the six squared identities
of right-angled configurations and their unsquared table rows; the general
squared laws of sines and cosines; the Carnot machinery (projective product,
cosine form, its converse through the Carnot involution, fake points); the
magic triangle and coherent orientations; and the unsquared projective laws
of sines and cosines with their geometric translations.
"""

from __future__ import annotations

import cmath
import math

from . import conics as cn
from . import metric as mt
from . import rays as ry
from .centers import PolarTriangleConfig, midpoint_assignments
from .errors import (
    DegenerateInput,
    GeneralPositionViolation,
    KindMismatch,
    NoCoherentAssignment,
    NonConcurrentCevians,
    PointOutsideModel,
    PointsNotConconic,
)
from .projective import (
    HLine,
    HPoint,
    collinearity_residual,
    concurrency_residual,
    cross_ratio,
    cross_ratio_points,
    harmonic_conjugate,
    incidence_residual,
    join_points,
    meet_lines,
    point_gap,
    points_equal,
)
from .tolerance import get_tol


def _rel(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# Menelaus, Ceva, Van Aubel
# ---------------------------------------------------------------------------

class MenelausConfig:
    """Triangle xyz with transversals r, s and the nine labeled intersection
    points (the meet of the transversals is not used)."""

    __slots__ = ("x", "y", "z", "r", "s",
                 "X", "Y", "Z", "X0", "Y0", "Z0", "X1", "Y1", "Z1")

    def __init__(self, x, y, z, r, s, tol=None):
        t = get_tol() if tol is None else tol
        lines = (x, y, z, r, s)
        for i in range(5):
            for j in range(i + 1, 5):
                for k in range(j + 1, 5):
                    if concurrency_residual(lines[i], lines[j], lines[k]) <= t:
                        raise GeneralPositionViolation(
                            f"lines {i},{j},{k} are concurrent")
        self.x, self.y, self.z, self.r, self.s = lines
        self.X = meet_lines(y, z)
        self.Y = meet_lines(z, x)
        self.Z = meet_lines(x, y)
        self.X0 = meet_lines(x, r)
        self.Y0 = meet_lines(y, r)
        self.Z0 = meet_lines(z, r)
        self.X1 = meet_lines(x, s)
        self.Y1 = meet_lines(y, s)
        self.Z1 = meet_lines(z, s)


def menelaus_product(cfg: MenelausConfig) -> complex:
    return (
        cross_ratio(cfg.X, cfg.Y, cfg.Z1, cfg.Z0, carrier=cfg.z, check=False)
        * cross_ratio(cfg.Y, cfg.Z, cfg.X1, cfg.X0, carrier=cfg.x, check=False)
        * cross_ratio(cfg.Z, cfg.X, cfg.Y1, cfg.Y0, carrier=cfg.y, check=False)
    )


def menelaus_residual(cfg: MenelausConfig) -> float:
    return abs(menelaus_product(cfg) - 1.0)


def ceva_product(X, Y, Z, X1, Y1, Z1, r: HLine, tol=None) -> complex:
    """(XYZ1Z0)(YZX1X0)(ZXY1Y0) for cevian feet X1, Y1, Z1 against a
    reference line r missing the vertices; equals -1 iff the cevians
    concur."""
    t = get_tol() if tol is None else tol
    for v in (X, Y, Z):
        if incidence_residual(r, v) <= t:
            raise DegenerateInput("reference line passes through a vertex")
    x = join_points(Y, Z)
    y = join_points(Z, X)
    z = join_points(X, Y)
    X0, Y0, Z0 = meet_lines(x, r), meet_lines(y, r), meet_lines(z, r)
    return (
        cross_ratio(X, Y, Z1, Z0, carrier=z, check=False)
        * cross_ratio(Y, Z, X1, X0, carrier=x, check=False)
        * cross_ratio(Z, X, Y1, Y0, carrier=y, check=False)
    )


def ceva_residual(X, Y, Z, X1, Y1, Z1, r, tol=None) -> float:
    return abs(ceva_product(X, Y, Z, X1, Y1, Z1, r, tol=tol) + 1.0)


def van_aubel(X, Y, Z, X1, Y1, Z1, r: HLine, tol=None):
    """Both sides of (X X1 Q X2) = (X Y Z1 Z0) + (X Z Y1 Y0) for concurrent
    cevians with concurrency point Q and X2 = r . XX1."""
    t = get_tol() if tol is None else tol
    cx = join_points(X, X1)
    cy = join_points(Y, Y1)
    cz = join_points(Z, Z1)
    q = meet_lines(cx, cy)
    if incidence_residual(cz, q) > 1e3 * t:
        raise NonConcurrentCevians("cevians do not concur")
    X2 = meet_lines(r, cx)
    Z0 = meet_lines(r, join_points(X, Y))
    Y0 = meet_lines(r, join_points(X, Z))
    lhs = cross_ratio(X, X1, q, X2, carrier=cx, check=False)
    rhs = (cross_ratio_points(X, Y, Z1, Z0, tol=t)
           + cross_ratio_points(X, Z, Y1, Y0, tol=t))
    return lhs, rhs


# ---------------------------------------------------------------------------
# right-angled configurations: T1..T6 and the unsquared table
# ---------------------------------------------------------------------------

ELLIPTIC_RIGHT = "elliptic-right-triangle"
HYPERBOLIC_RIGHT = "hyperbolic-right-triangle"
LAMBERT = "lambert-quadrilateral"
PENTAGON = "right-angled-pentagon"
OTHER_RIGHT = "other-right-angled"

HEXAGON = "right-angled-hexagon"
QUADRILATERAL_2R = "two-right-angle-quadrilateral"


def right_angle_vertex(cfg: PolarTriangleConfig) -> str:
    """Which vertex carries the right angle ('a' means sides b, c conjugate)."""
    if not cfg.conjugate_side_pairs:
        raise KindMismatch("configuration is not right-angled")
    pair = cfg.conjugate_side_pairs[0]
    return {"bc": "a", "ca": "b", "ab": "c"}[pair]


def right_angled_kind(cfg: PolarTriangleConfig) -> str:
    """Classify a right-angled configuration (right angle canonically at A)
    by the vertex positions, following the generalized-triangle taxonomy."""
    if right_angle_vertex(cfg) != "a":
        raise KindMismatch("canonical right-angled configs have b, c conjugate")
    model = cfg.model
    if model.kind == mt.ELLIPTIC:
        return ELLIPTIC_RIGHT
    if not model.is_interior(cfg.A):
        return OTHER_RIGHT
    bi = model.is_interior(cfg.B)
    ci = model.is_interior(cfg.C)
    if bi and ci:
        return HYPERBOLIC_RIGHT
    if bi != ci:
        return LAMBERT
    if model.line_status(cfg.a) == cn.SECANT:
        return PENTAGON
    return OTHER_RIGHT


def _cst(cfg, p, q):
    return mt.squared_trig(cfg.model, p, q, tol=cfg.tol)


def squared_ratios(cfg: PolarTriangleConfig):
    """C/S/T triples for the five segments a, b, c, b', c' of a right-angled
    configuration (b' = C'A', c' = A'B')."""
    return {
        "a": _cst(cfg, cfg.B, cfg.C),
        "b": _cst(cfg, cfg.C, cfg.A),
        "c": _cst(cfg, cfg.A, cfg.B),
        "b'": _cst(cfg, cfg.Cp, cfg.Ap),
        "c'": _cst(cfg, cfg.Ap, cfg.Bp),
    }


IDENTITY_NAMES = ("T1", "T2", "T3", "T4", "T5", "T6")


def squared_identity(name: str, cfg: PolarTriangleConfig) -> float:
    """Residual of one of the six identities of a right-angled configuration."""
    r = squared_ratios(cfg)
    C = {k: v[0] for k, v in r.items()}
    S = {k: v[1] for k, v in r.items()}
    T = {k: v[2] for k, v in r.items()}
    if name == "T1":
        return _rel(C["a"], C["b"] * C["c"])
    if name == "T2":
        return _rel(S["c"], S["a"] * S["c'"])
    if name == "T3":
        return _rel(C["c'"], C["c"] * S["b'"])
    if name == "T4":
        return _rel(T["c"], T["a"] * C["b'"])
    if name == "T5":
        return _rel(C["a"], 1.0 / (T["b'"] * T["c'"]))
    if name == "T6":
        return _rel(T["c"], S["b"] * T["c'"])
    raise KeyError(name)


def _swap_bc(cfg: PolarTriangleConfig) -> PolarTriangleConfig:
    return PolarTriangleConfig(cfg.model, cfg.A, cfg.C, cfg.B, tol=cfg.tol)


def right_angled_magnitudes(cfg: PolarTriangleConfig):
    """The geometric magnitudes (a, b, c, beta, gamma) of a canonical
    right-angled figure, measured independently of the cross-ratio route.

    Lambert configurations are relabeled so the exterior vertex is B.
    Lengths come from the metric distance; elliptic angles and sides from
    unit representatives, hyperbolic angles from the Laguerre formula (the
    non-right angles of these figures are never obtuse).
    """
    kind = right_angled_kind(cfg)
    model = cfg.model
    t = cfg.tol
    if kind == ELLIPTIC_RIGHT:
        a = mt.elliptic_side(model, cfg.B, cfg.C)
        b = mt.elliptic_side(model, cfg.C, cfg.A)
        c = mt.elliptic_side(model, cfg.A, cfg.B)
        beta = mt.elliptic_vertex_angle(model, cfg.B, cfg.C, cfg.A)
        gamma = mt.elliptic_vertex_angle(model, cfg.C, cfg.A, cfg.B)
        return kind, (a, b, c, beta, gamma)
    if kind == HYPERBOLIC_RIGHT:
        a = mt.distance(model, cfg.B, cfg.C, tol=t)
        b = mt.distance(model, cfg.C, cfg.A, tol=t)
        c = mt.distance(model, cfg.A, cfg.B, tol=t)
        beta = mt.angle_lines(model, cfg.c, cfg.a, tol=t)
        gamma = mt.angle_lines(model, cfg.a, cfg.b, tol=t)
        return kind, (a, b, c, beta, gamma)
    if kind == LAMBERT:
        if model.is_interior(cfg.B):
            cfg = _swap_bc(cfg)
        a = mt.distance(model, cfg.C, cfg.Ba, tol=t)
        b = mt.distance(model, cfg.C, cfg.A, tol=t)
        c = mt.distance(model, cfg.A, cfg.Bc, tol=t)
        beta = mt.distance(model, cfg.Bc, cfg.Ba, tol=t)
        gamma = mt.angle_lines(model, cfg.a, cfg.b, tol=t)
        return LAMBERT, (a, b, c, beta, gamma)
    if kind == PENTAGON:
        a = mt.distance(model, cfg.Ba, cfg.Ca, tol=t)
        b = mt.distance(model, cfg.Cb, cfg.A, tol=t)
        c = mt.distance(model, cfg.A, cfg.Bc, tol=t)
        beta = mt.distance(model, cfg.Bc, cfg.Ba, tol=t)
        gamma = mt.distance(model, cfg.Ca, cfg.Cb, tol=t)
        return kind, (a, b, c, beta, gamma)
    raise KindMismatch(f"no magnitude table for kind {kind}")


_TABLE_ROWS = {
    ELLIPTIC_RIGHT: (
        ("T1", lambda a, b, c, B, G: (math.cos(a), math.cos(c) * math.cos(b))),
        ("T2", lambda a, b, c, B, G: (math.sin(c), math.sin(a) * math.sin(G))),
        ("T3", lambda a, b, c, B, G: (math.cos(G), math.cos(c) * math.sin(B))),
        ("T4", lambda a, b, c, B, G: (math.tan(c), math.tan(a) * math.cos(B))),
        ("T5", lambda a, b, c, B, G: (math.cos(a), 1.0 / (math.tan(B) * math.tan(G)))),
        ("T6", lambda a, b, c, B, G: (math.tan(c), math.sin(b) * math.tan(G))),
    ),
    HYPERBOLIC_RIGHT: (
        ("T1", lambda a, b, c, B, G: (math.cosh(a), math.cosh(c) * math.cosh(b))),
        ("T2", lambda a, b, c, B, G: (math.sinh(c), math.sinh(a) * math.sin(G))),
        ("T3", lambda a, b, c, B, G: (math.cos(G), math.cosh(c) * math.sin(B))),
        ("T4", lambda a, b, c, B, G: (math.tanh(c), math.tanh(a) * math.cos(B))),
        ("T5", lambda a, b, c, B, G: (math.cosh(a), 1.0 / (math.tan(B) * math.tan(G)))),
        ("T6", lambda a, b, c, B, G: (math.tanh(c), math.sinh(b) * math.tan(G))),
    ),
    LAMBERT: (
        ("T1", lambda a, b, c, B, G: (math.sinh(a), math.sinh(c) * math.cosh(b))),
        ("T2", lambda a, b, c, B, G: (math.cosh(c), math.cosh(a) * math.sin(G))),
        ("T3", lambda a, b, c, B, G: (math.cos(G), math.sinh(c) * math.sinh(B))),
        ("T4", lambda a, b, c, B, G: (1.0 / math.tanh(c), math.cosh(B) / math.tanh(a))),
        ("T5", lambda a, b, c, B, G: (math.sinh(a), 1.0 / (math.tanh(B) * math.tan(G)))),
        ("T6", lambda a, b, c, B, G: (1.0 / math.tanh(c), math.sinh(b) * math.tan(G))),
    ),
    PENTAGON: (
        ("T1", lambda a, b, c, B, G: (math.cosh(a), math.sinh(c) * math.sinh(b))),
        ("T2", lambda a, b, c, B, G: (math.cosh(c), math.sinh(a) * math.sinh(G))),
        ("T3", lambda a, b, c, B, G: (math.cosh(G), math.sinh(c) * math.sinh(B))),
        ("T4", lambda a, b, c, B, G: (1.0 / math.tanh(c), math.tanh(a) * math.cosh(B))),
        ("T5", lambda a, b, c, B, G: (math.cosh(a), 1.0 / (math.tanh(B) * math.tanh(G)))),
        ("T6", lambda a, b, c, B, G: (1.0 / math.tanh(c), math.cosh(b) * math.tanh(G))),
    ),
}


def table_5_1(cfg: PolarTriangleConfig, kind: str | None = None):
    """Evaluate all six unsquared rows for the figure, returning
    [(row, lhs, rhs, residual)] from independently measured magnitudes."""
    found, (a, b, c, beta, gamma) = right_angled_magnitudes(cfg)
    if kind is not None and kind != found:
        raise KindMismatch(f"expected {kind}, classified {found}")
    out = []
    for name, fn in _TABLE_ROWS[found]:
        lhs, rhs = fn(a, b, c, beta, gamma)
        out.append((name, lhs, rhs, _rel(lhs, rhs)))
    return out


# ---------------------------------------------------------------------------
# general squared laws
# ---------------------------------------------------------------------------

def squared_law_of_sines(cfg: PolarTriangleConfig):
    """Ratios S(x)/S(x') for the three sides and their maximal spread."""
    sa = _cst(cfg, cfg.B, cfg.C)[1]
    sb = _cst(cfg, cfg.C, cfg.A)[1]
    sc = _cst(cfg, cfg.A, cfg.B)[1]
    sap = _cst(cfg, cfg.Bp, cfg.Cp)[1]
    sbp = _cst(cfg, cfg.Cp, cfg.Ap)[1]
    scp = _cst(cfg, cfg.Ap, cfg.Bp)[1]
    ratios = (sa / sap, sb / sbp, sc / scp)
    spread = max(
        _rel(ratios[0], ratios[1]),
        _rel(ratios[1], ratios[2]),
        _rel(ratios[0], ratios[2]),
    )
    return ratios, spread


def _sqrt_branches(u: complex, v: complex, target: complex, tol: float):
    """Residuals of (sqrt(u) +/- sqrt(v))^2 against target; returns
    (best_residual, n_matching) over the two essentially different branch
    combinations."""
    su = cmath.sqrt(u)
    sv = cmath.sqrt(v)
    r1 = _rel((su + sv) ** 2, target)
    r2 = _rel((su - sv) ** 2, target)
    matches = sum(1 for r in (r1, r2) if r <= 1e3 * tol)
    return min(r1, r2), matches


def squared_law_of_cosines(cfg: PolarTriangleConfig):
    """C(c) = (sqrt(C(a)C(b)) + sqrt(S(a)S(b)C(c')))^2 with principal-root
    branch search; exactly one branch combination must close.

    Returns (residual, n_matching_branches).
    """
    ca, sa, _ = _cst(cfg, cfg.B, cfg.C)
    cb, sb, _ = _cst(cfg, cfg.C, cfg.A)
    cc, _, _ = _cst(cfg, cfg.A, cfg.B)
    ccp = _cst(cfg, cfg.Ap, cfg.Bp)[0]
    return _sqrt_branches(ca * cb, sa * sb * ccp, cc, cfg.tol)


def cosine_split_lemma(cfg: PolarTriangleConfig, x: HPoint | None = None):
    """The two split identities along the altitude foot X on side a:
    (BXCC_a)^2 = T(a)/T(a2) and C(a1) = (sqrt(C(a)C(a2)) + sqrt(S(a)S(a2)))^2,
    for segments a1 = BX, a2 = CX.  Any X on a not on the absolute works.
    """
    X = cfg.HA if x is None else x
    t = cfg.tol
    r = cross_ratio(cfg.B, X, cfg.C, cfg.Ca, carrier=cfg.a, check=False)
    ta = _cst(cfg, cfg.B, cfg.C)[2]
    ca1, sa1, _ = mt.squared_trig(cfg.model, cfg.B, X, tol=t)
    ca2, sa2, ta2 = mt.squared_trig(cfg.model, cfg.C, X, tol=t)
    res1 = _rel(r * r, ta / ta2)
    ca = _cst(cfg, cfg.B, cfg.C)[0]
    sa = _cst(cfg, cfg.B, cfg.C)[1]
    res2, matches = _sqrt_branches(ca * ca2, sa * sa2, ca1, t)
    return res1, res2, matches


# ---------------------------------------------------------------------------
# Carnot machinery
# ---------------------------------------------------------------------------

def carnot_product(X, Y, Z, X0, Y0, Z0, X1, X2, Y1, Y2, Z1, Z2, tol=None) -> complex:
    """(XYZ0Z1)(XYZ0Z2)(YZX0X1)(YZX0X2)(ZXY0Y1)(ZXY0Y2)."""
    t = get_tol() if tol is None else tol
    z = join_points(X, Y)
    x = join_points(Y, Z)
    y = join_points(Z, X)
    return (
        cross_ratio(X, Y, Z0, Z1, carrier=z, check=False)
        * cross_ratio(X, Y, Z0, Z2, carrier=z, check=False)
        * cross_ratio(Y, Z, X0, X1, carrier=x, check=False)
        * cross_ratio(Y, Z, X0, X2, carrier=x, check=False)
        * cross_ratio(Z, X, Y0, Y1, carrier=y, check=False)
        * cross_ratio(Z, X, Y0, Y2, carrier=y, check=False)
    )


def carnot_projective_residual(X, Y, Z, conic: cn.Conic, transversal: HLine,
                               tol=None):
    """Carnot product against the six conic traces on the sides of the
    triangle; returns (residual, six points).  The conic membership of the
    six side intersections is fit-verified."""
    t = get_tol() if tol is None else tol
    x = join_points(Y, Z)
    y = join_points(Z, X)
    z = join_points(X, Y)
    X1, X2 = cn.line_conic_meet(conic, x, tol=t).points
    Y1, Y2 = cn.line_conic_meet(conic, y, tol=t).points
    Z1, Z2 = cn.line_conic_meet(conic, z, tol=t).points
    for p in (X1, X2, Y1, Y2, Z1, Z2):
        if cn.conic_residual(conic, p) > 1e-6:
            raise PointsNotConconic("side trace drifted off the conic")
    X0 = meet_lines(x, transversal)
    Y0 = meet_lines(y, transversal)
    Z0 = meet_lines(z, transversal)
    prod = carnot_product(X, Y, Z, X0, Y0, Z0, X1, X2, Y1, Y2, Z1, Z2, tol=t)
    return abs(prod - 1.0), (X1, X2, Y1, Y2, Z1, Z2)


def carnot_conjugate(model, X: HPoint, Y: HPoint, w: HPoint, tol=None) -> HPoint:
    """zeta_XY(w) = rho_z(tau_XY(rho_z(w))) on the line z = XY."""
    t = get_tol() if tol is None else tol
    z = join_points(X, Y)
    w1 = cn.conjugate_point(model.absolute, w, z, tol=t)
    w2 = harmonic_conjugate(X, Y, w1, tol=t)
    return cn.conjugate_point(model.absolute, w2, z, tol=t)


class CarnotCosines:
    __slots__ = ("identity_residual", "concurrency_residual",
                 "classification", "Dstar")


def carnot_cosines(cfg: PolarTriangleConfig, Astar, Bstar, Cstar, tol=None):
    """The squared-cosine Carnot identity for perpendicular lines through
    three side points, together with the converse classification.

    identity: C(BA*) C(CB*) C(AC*) = C(CA*) C(AB*) C(BC*) when the
    perpendiculars a* = A*A', b* = B*B', c* = C*C' concur.  The converse
    locates A* at D* or at its Carnot conjugate zeta_BC(D*), where D* is cut
    on a by the perpendicular from A' through b*.c*.
    """
    t = cfg.tol if tol is None else tol
    out = CarnotCosines()
    astar = join_points(Astar, cfg.Ap)
    bstar = join_points(Bstar, cfg.Bp)
    cstar = join_points(Cstar, cfg.Cp)
    out.concurrency_residual = concurrency_residual(astar, bstar, cstar)
    lhs = (_cst(cfg, cfg.B, Astar)[0] * _cst(cfg, cfg.C, Bstar)[0]
           * _cst(cfg, cfg.A, Cstar)[0])
    rhs = (_cst(cfg, cfg.C, Astar)[0] * _cst(cfg, cfg.A, Bstar)[0]
           * _cst(cfg, cfg.B, Cstar)[0])
    out.identity_residual = _rel(lhs, rhs)
    hstar = meet_lines(bstar, cstar)
    dstar = meet_lines(cfg.a, join_points(cfg.Ap, hstar))
    out.Dstar = dstar
    if points_equal(Astar, dstar, 1e-6):
        out.classification = "concurrent"
    else:
        zeta = carnot_conjugate(cfg.model, cfg.B, cfg.C, dstar, tol=t)
        if points_equal(Astar, zeta, 1e-6):
            out.classification = "fake"
        else:
            out.classification = "neither"
    return out


def concurrent_carnot_points(cfg: PolarTriangleConfig, hstar: HPoint):
    """Side points whose perpendiculars pass through a common point."""
    Astar = meet_lines(cfg.a, join_points(cfg.Ap, hstar))
    Bstar = meet_lines(cfg.b, join_points(cfg.Bp, hstar))
    Cstar = meet_lines(cfg.c, join_points(cfg.Cp, hstar))
    return Astar, Bstar, Cstar


def fake_carnot_points(cfg: PolarTriangleConfig, Bstar, Cstar, tol=None):
    """Replace the concurrent A* by its Carnot conjugate: the identity still
    holds but the perpendiculars no longer concur (elliptic phenomenon)."""
    t = cfg.tol if tol is None else tol
    bstar = join_points(Bstar, cfg.Bp)
    cstar = join_points(Cstar, cfg.Cp)
    hstar = meet_lines(bstar, cstar)
    dstar = meet_lines(cfg.a, join_points(cfg.Ap, hstar))
    fake = carnot_conjugate(cfg.model, cfg.B, cfg.C, dstar, tol=t)
    return fake, dstar


def carnot_hyperbolic_sides(cfg: PolarTriangleConfig, Astar, Bstar, Cstar):
    """Measured cosh products for the iff-theorem on interior triangles:
    returns (lhs, rhs) of cosh a1 cosh b1 cosh c1 = cosh a2 cosh b2 cosh c2."""
    model = cfg.model
    for p in (cfg.A, cfg.B, cfg.C, Astar, Bstar, Cstar):
        if not model.is_interior(p):
            raise PointOutsideModel("hyperbolic Carnot needs interior data")
    d = lambda p, q: mt.distance(model, p, q, tol=cfg.tol)
    lhs = (math.cosh(d(cfg.B, Astar)) * math.cosh(d(cfg.C, Bstar))
           * math.cosh(d(cfg.A, Cstar)))
    rhs = (math.cosh(d(cfg.C, Astar)) * math.cosh(d(cfg.A, Bstar))
           * math.cosh(d(cfg.B, Cstar)))
    return lhs, rhs


def carnot_elliptic_sides(cfg: PolarTriangleConfig, Astar, Bstar, Cstar):
    """Measured cos products (elliptic).  Elliptic distances live in
    [0, pi/2] (a full line has length pi), so every cosine is nonnegative
    and the product identity is exact, not just up to sign."""
    model = cfg.model
    d = lambda p, q: mt.distance(model, p, q, tol=cfg.tol)
    lhs = (math.cos(d(cfg.B, Astar)) * math.cos(d(cfg.C, Bstar))
           * math.cos(d(cfg.A, Cstar)))
    rhs = (math.cos(d(cfg.C, Astar)) * math.cos(d(cfg.A, Bstar))
           * math.cos(d(cfg.B, Cstar)))
    return lhs, rhs


def carnot_hyperbolic_iff(cfg: PolarTriangleConfig, Astar, Bstar, Cstar,
                          margin: float = 1e-6):
    """Both directions of the interior-triangle equivalence: the cosh
    product identity holds exactly when the perpendiculars concur.

    Returns a dict with the measured identity gap, the concurrency
    residual, and the two direction verdicts under the given margin.
    """
    lhs, rhs = carnot_hyperbolic_sides(cfg, Astar, Bstar, Cstar)
    gap = abs(lhs - rhs) / max(1.0, abs(lhs))
    cc = carnot_cosines(cfg, Astar, Bstar, Cstar)
    concurrent = cc.concurrency_residual <= margin
    identity = gap <= margin
    return {
        "identity_gap": gap,
        "concurrency_residual": cc.concurrency_residual,
        "identity_holds": identity,
        "concurrent": concurrent,
        "equivalent": identity == concurrent,
    }


def carnot_hexagon_sides(cfg: PolarTriangleConfig, Astar, Bstar, Cstar):
    """Measured sinh products on a right-angled hexagon: the hexagon vertices
    on side a are the conjugate points B_a, C_a (dually for b, c)."""
    model = cfg.model
    d = lambda p, q: mt.distance(model, p, q, tol=cfg.tol)
    lhs = (math.sinh(d(cfg.Ca, Astar)) * math.sinh(d(cfg.Ab, Bstar))
           * math.sinh(d(cfg.Bc, Cstar)))
    rhs = (math.sinh(d(cfg.Ba, Astar)) * math.sinh(d(cfg.Cb, Bstar))
           * math.sinh(d(cfg.Ac, Cstar)))
    return lhs, rhs


def six_points_conic_check(cfg: PolarTriangleConfig):
    """Fit a conic through five of the six vertex conjugates and report the
    residual of the sixth; right-angled configurations give a degenerate
    (line-pair) conic."""
    pts = (cfg.Ab, cfg.Ac, cfg.Ba, cfg.Bc, cfg.Ca, cfg.Cb)
    conic = cn.conic_fit(pts[:5], tol=cfg.tol, rank_check=False)
    return conic, cn.conic_residual(conic, pts[5])


# ---------------------------------------------------------------------------
# complementary midpoints, magic triangle, coherent orientation
# ---------------------------------------------------------------------------

def complementary_pairs(cfg: PolarTriangleConfig):
    """Complementary midpoint pairs (G, Ga), (H, Hb), (I, Ic) of the sides
    a, b, c: midpoints of the conjugate-endpoint segments."""
    key = "complementary"
    if key not in cfg._cache:
        model, t = cfg.model, cfg.tol
        cfg._cache[key] = (
            mt.midpoints(model, cfg.B, cfg.Ca, tol=t),
            mt.midpoints(model, cfg.C, cfg.Ab, tol=t),
            mt.midpoints(model, cfg.A, cfg.Bc, tol=t),
        )
    return cfg._cache[key]


def complementary_pairs_dual(cfg: PolarTriangleConfig):
    key = "complementary_dual"
    if key not in cfg._cache:
        model, t = cfg.model, cfg.tol
        cfg._cache[key] = (
            mt.midpoints(model, cfg.Bp, cfg.Ac, tol=t),
            mt.midpoints(model, cfg.Cp, cfg.Ba, tol=t),
            mt.midpoints(model, cfg.Ap, cfg.Cb, tol=t),
        )
    return cfg._cache[key]


def complementary_midpoints_conic(cfg: PolarTriangleConfig):
    """The conic through the six complementary midpoints, its worst member
    residual, and the Carnot-route oracle (product of the six cross ratios
    against the collinear unchosen midpoints equals one)."""
    (g, ga), (h, hb), (i, ic) = complementary_pairs(cfg)
    pts = (g, ga, h, hb, i, ic)
    conic = cn.conic_fit(pts[:5], tol=cfg.tol, rank_check=False)
    fit_residual = cn.conic_residual(conic, pts[5])
    prod = (
        cross_ratio(cfg.B, cfg.C, cfg.Da, g, carrier=cfg.a, check=False)
        * cross_ratio(cfg.B, cfg.C, cfg.Da, ga, carrier=cfg.a, check=False)
        * cross_ratio(cfg.C, cfg.A, cfg.Eb, h, carrier=cfg.b, check=False)
        * cross_ratio(cfg.C, cfg.A, cfg.Eb, hb, carrier=cfg.b, check=False)
        * cross_ratio(cfg.A, cfg.B, cfg.Fc, i, carrier=cfg.c, check=False)
        * cross_ratio(cfg.A, cfg.B, cfg.Fc, ic, carrier=cfg.c, check=False)
    )
    carnot_residual = abs(prod - 1.0)
    transversal_residual = collinearity_residual(cfg.Da, cfg.Eb, cfg.Fc)
    return conic, fit_residual, carnot_residual, transversal_residual


class MagicTriangle:
    __slots__ = ("a", "b", "c", "A", "B", "C", "pairs")


def magic_triangle(cfg: PolarTriangleConfig) -> MagicTriangle:
    """Sides a~ = B_c C_b, b~ = C_a A_c, c~ = A_b B_a, their vertices, and
    the midpoint pair of each side."""
    key = "magic"
    if key not in cfg._cache:
        m = MagicTriangle()
        m.a = join_points(cfg.Bc, cfg.Cb)
        m.b = join_points(cfg.Ca, cfg.Ac)
        m.c = join_points(cfg.Ab, cfg.Ba)
        m.A = meet_lines(m.b, m.c)
        m.B = meet_lines(m.c, m.a)
        m.C = meet_lines(m.a, m.b)
        m.pairs = (
            mt.midpoints(cfg.model, cfg.Bc, cfg.Cb, tol=cfg.tol),
            mt.midpoints(cfg.model, cfg.Ca, cfg.Ac, tol=cfg.tol),
            mt.midpoints(cfg.model, cfg.Ab, cfg.Ba, tol=cfg.tol),
        )
        cfg._cache[key] = m
    return cfg._cache[key]


def _set_gap(pair1, pair2) -> float:
    a, b = pair1
    c, d = pair2
    return min(
        max(point_gap(a, c), point_gap(b, d)),
        max(point_gap(a, d), point_gap(b, c)),
    )


def magic_midpoints_agreement(cfg: PolarTriangleConfig) -> float:
    """Fourfold characterization of the magic midpoints: direct midpoints of
    the magic sides vs the complementary-midpoint diagonal construction, its
    primed version, the midpoints of the magic triangle's own sides, and
    (when not isosceles) the ordinary-midpoint diagonal construction."""
    m = magic_triangle(cfg)
    comp = complementary_pairs(cfg)
    compd = complementary_pairs_dual(cfg)
    worst = 0.0
    per_side = (
        # (magic pair, comp pair 1, comp pair 2, magic vertices, iso flag,
        #  ordinary pairs primal/dual)
        (m.pairs[0], comp[1], comp[2], (m.B, m.C), cfg.iso_flags[0],
         cfg.mids_a, cfg.mids_ap, compd[1], compd[2]),
        (m.pairs[1], comp[2], comp[0], (m.C, m.A), cfg.iso_flags[1],
         cfg.mids_b, cfg.mids_bp, compd[2], compd[0]),
        (m.pairs[2], comp[0], comp[1], (m.A, m.B), cfg.iso_flags[2],
         cfg.mids_c, cfg.mids_cp, compd[0], compd[1]),
    )
    for (pair, c1, c2, mverts, iso, mids, midsp, d1, d2) in per_side:
        # I: diagonal points of the complementary-midpoint quadrangle
        q1 = meet_lines(join_points(c1[0], c2[0]), join_points(c1[1], c2[1]))
        q2 = meet_lines(join_points(c1[0], c2[1]), join_points(c1[1], c2[0]))
        worst = max(worst, _set_gap(pair, (q1, q2)))
        # II: primed complementary quadrangle
        r1 = meet_lines(join_points(d1[0], d2[0]), join_points(d1[1], d2[1]))
        r2 = meet_lines(join_points(d1[0], d2[1]), join_points(d1[1], d2[0]))
        worst = max(worst, _set_gap(pair, (r1, r2)))
        # III: midpoints of the magic triangle side
        s_pair = mt.midpoints(cfg.model, mverts[0], mverts[1], tol=cfg.tol)
        worst = max(worst, _set_gap(pair, s_pair))
        # IVa: ordinary-midpoint quadrangle, away from the isosceles case
        if not iso:
            u1 = meet_lines(join_points(mids[0], midsp[0]),
                            join_points(mids[1], midsp[1]))
            u2 = meet_lines(join_points(mids[0], midsp[1]),
                            join_points(mids[1], midsp[0]))
            worst = max(worst, _set_gap(pair, (u1, u2)))
    return worst


class OrientedTriangleConfig:
    """A coherently oriented configuration: preferred midpoints D, E, F and
    D', E', F', preferred complementary midpoints G, H, I and G', H', I',
    and the noncollinear magic midpoints tied to them."""

    __slots__ = ("cfg", "D", "E", "F", "Dp", "Ep", "Fp",
                 "G", "H", "I", "Gp", "Hp", "Ip", "magic")

    def __init__(self, cfg, D, E, F, Dp, Ep, Fp, G, H, I, Gp, Hp, Ip, magic):
        self.cfg = cfg
        self.D, self.E, self.F = D, E, F
        self.Dp, self.Ep, self.Fp = Dp, Ep, Fp
        self.G, self.H, self.I = G, H, I
        self.Gp, self.Hp, self.Ip = Gp, Hp, Ip
        self.magic = magic


def _pick_on_line(pair, line, t):
    r0 = incidence_residual(line, pair[0])
    r1 = incidence_residual(line, pair[1])
    if min(r0, r1) > 1e-6:
        return None
    if r0 > t and r1 > t and abs(r0 - r1) < t:
        return None
    return pair[0] if r0 <= r1 else pair[1]


def _solve_complementary(comp_pairs, magics, t):
    """Choices (g, h, i) of complementary midpoints such that the magic
    midpoints lie on HI, IG and GH respectively."""
    (gp, hp, ip) = comp_pairs
    (mD, mE, mF) = magics
    for g in range(2):
        for h in range(2):
            for i in range(2):
                if (incidence_residual(join_points(hp[h], ip[i]), mD) <= 1e-6
                        and incidence_residual(join_points(ip[i], gp[g]), mE) <= 1e-6
                        and incidence_residual(join_points(gp[g], hp[h]), mF) <= 1e-6):
                    return gp[g], hp[h], ip[i]
    return None


def coherent_orientation(cfg: PolarTriangleConfig) -> OrientedTriangleConfig:
    """Deterministic search for a coherent orientation: enumerate the valid
    midpoint triples of T and T' in canonical order, derive the magic
    midpoints on the lines DD', EE', FF', and solve for complementary
    choices putting the magic midpoints on HI/IG/GH and primed versions."""
    if cfg.is_right_angled():
        raise NoCoherentAssignment("coherent orientation needs a non-right-angled triangle")
    t = cfg.tol
    m = magic_triangle(cfg)
    avoid = (cfg.A0, cfg.B0, cfg.C0)
    primal = midpoint_assignments((cfg.mids_a, cfg.mids_b, cfg.mids_c), t, avoid)
    dual = [trip for _, trip in midpoint_assignments(
        (cfg.mids_ap, cfg.mids_bp, cfg.mids_cp), t, avoid)]
    comp = complementary_pairs(cfg)
    compd = complementary_pairs_dual(cfg)
    for _, (D, E, F) in primal:
        for (Dp, Ep, Fp) in dual:
            mD = _pick_on_line(m.pairs[0], join_points(D, Dp), t)
            mE = _pick_on_line(m.pairs[1], join_points(E, Ep), t)
            mF = _pick_on_line(m.pairs[2], join_points(F, Fp), t)
            if mD is None or mE is None or mF is None:
                continue
            if collinearity_residual(mD, mE, mF) <= 1e3 * t:
                continue
            sol = _solve_complementary((comp[0], comp[1], comp[2]),
                                       (mD, mE, mF), t)
            if sol is None:
                continue
            sol_d = _solve_complementary((compd[0], compd[1], compd[2]),
                                         (mD, mE, mF), t)
            if sol_d is None:
                continue
            return OrientedTriangleConfig(
                cfg, D, E, F, Dp, Ep, Fp,
                sol[0], sol[1], sol[2], sol_d[0], sol_d[1], sol_d[2],
                (mD, mE, mF),
            )
    raise NoCoherentAssignment("no coherent orientation found")


# ---------------------------------------------------------------------------
# unsquared projective ratios of an oriented triangle
# ---------------------------------------------------------------------------

def _cr(a, b, c, d, carrier):
    return cross_ratio(a, b, c, d, carrier=carrier, check=False)


def side_cc(o: OrientedTriangleConfig, side: str) -> complex:
    """cc of the cyclic side: (X Y Y_p D) with the preferred midpoint."""
    c = o.cfg
    table = {
        "AB": (c.A, c.B, c.Bc, o.F, c.c),
        "BC": (c.B, c.C, c.Ca, o.D, c.a),
        "CA": (c.C, c.A, c.Ab, o.E, c.b),
        "A'B'": (c.Ap, c.Bp, c.Cb, o.Fp, c.cp),
        "B'C'": (c.Bp, c.Cp, c.Ac, o.Dp, c.ap),
        "C'A'": (c.Cp, c.Ap, c.Ba, o.Ep, c.bp),
    }
    x, y, yp, d, carrier = table[side]
    return _cr(x, y, yp, d, carrier)


def side_ss(o: OrientedTriangleConfig, side: str) -> complex:
    """ss of the cyclic side: (X Y_p Y G) with the preferred complementary
    midpoint."""
    c = o.cfg
    table = {
        "AB": (c.A, c.Bc, c.B, o.I, c.c),
        "BC": (c.B, c.Ca, c.C, o.G, c.a),
        "CA": (c.C, c.Ab, c.A, o.H, c.b),
        "A'B'": (c.Ap, c.Cb, c.Bp, o.Ip, c.cp),
        "B'C'": (c.Bp, c.Ac, c.Cp, o.Gp, c.ap),
        "C'A'": (c.Cp, c.Ba, c.Ap, o.Hp, c.bp),
    }
    x, yp, y, g, carrier = table[side]
    return _cr(x, yp, y, g, carrier)


def projective_law_of_sines(o: OrientedTriangleConfig):
    """Ratios ss(XY)/ss(X'Y') over the three cyclic sides and their spread."""
    ratios = tuple(
        side_ss(o, s) / side_ss(o, sp)
        for s, sp in (("AB", "A'B'"), ("BC", "B'C'"), ("CA", "C'A'"))
    )
    spread = max(
        _rel(ratios[0], ratios[1]),
        _rel(ratios[1], ratios[2]),
        _rel(ratios[0], ratios[2]),
    )
    return ratios, spread


_COSINE_SIDES = {
    # target, ss factors, cc' of opposite primed side, cc factors
    "a": ("BC", "AB", "CA", "B'C'", "AB", "CA"),
    "b": ("CA", "BC", "AB", "C'A'", "BC", "AB"),
    "c": ("AB", "CA", "BC", "A'B'", "CA", "BC"),
}


def projective_law_of_cosines(o: OrientedTriangleConfig, side: str = "a",
                              dual: bool = False) -> float:
    """Residual of cc(YZ) = -ss(XY) ss(ZX) cc(Y'Z') - cc(XY) cc(ZX) (or the
    primed dual) for the requested side."""
    tgt, s1, s2, opp, c1, c2 = _COSINE_SIDES[side]
    if dual:
        swap = {"AB": "A'B'", "BC": "B'C'", "CA": "C'A'",
                "A'B'": "AB", "B'C'": "BC", "C'A'": "CA"}
        tgt, s1, s2, opp, c1, c2 = (swap[tgt], swap[s1], swap[s2],
                                    swap[opp], swap[c1], swap[c2])
    lhs = side_cc(o, tgt)
    rhs = (-side_ss(o, s1) * side_ss(o, s2) * side_cc(o, opp)
           - side_cc(o, c1) * side_cc(o, c2))
    return _rel(lhs, rhs)


# ---------------------------------------------------------------------------
# geometric translations of the unsquared laws (worked figures)
# ---------------------------------------------------------------------------

def _convex_in_chart(pts) -> bool:
    """Convexity of an interior-point cycle in the standard affine chart."""
    xy = [((p[0] / p[2]).real, (p[1] / p[2]).real) for p in pts]
    n = len(xy)
    sign = 0
    for i in range(n):
        x0, y0 = xy[i]
        x1, y1 = xy[(i + 1) % n]
        x2, y2 = xy[(i + 2) % n]
        cr = (x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1)
        s = 1 if cr > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def classify_generalized(cfg: PolarTriangleConfig) -> str:
    """Taxonomy of the generalized triangle cut out by T and T'.  Stellate
    variants (vertex cycle not convex in the disk) share the projective
    checks but not the geometric sign tables, so they are tagged apart."""
    model = cfg.model
    if model.kind == mt.ELLIPTIC:
        return "elliptic-triangle"
    ins = sum(1 for v in (cfg.A, cfg.B, cfg.C) if model.is_interior(v))
    secant = all(model.line_status(s) == cn.SECANT
                 for s in (cfg.a, cfg.b, cfg.c))
    if ins == 3:
        return "hyperbolic-triangle"
    if ins == 2 and secant:
        # canonical labels: C exterior
        c2 = cfg
        if model.is_interior(cfg.C):
            ext = "a" if not model.is_interior(cfg.A) else "b"
            c2 = PolarTriangleConfig(
                model,
                *((cfg.B, cfg.C, cfg.A) if ext == "a" else (cfg.C, cfg.A, cfg.B)),
                tol=cfg.tol)
        if _convex_in_chart((c2.A, c2.B, c2.Ca, c2.Cb)):
            return QUADRILATERAL_2R
        return "stellate-quadrilateral"
    if ins == 0 and secant:
        if _convex_in_chart((cfg.Ba, cfg.Ca, cfg.Cb, cfg.Ab, cfg.Ac, cfg.Bc)):
            return HEXAGON
        return "stellate-hexagon"
    return "other"


def elliptic_triangle_laws(cfg: PolarTriangleConfig):
    """Measured spherical laws: law of sines spread, law of cosines, dual
    law of cosines (unit-representative magnitudes)."""
    model = cfg.model
    a = mt.elliptic_side(model, cfg.B, cfg.C)
    b = mt.elliptic_side(model, cfg.C, cfg.A)
    c = mt.elliptic_side(model, cfg.A, cfg.B)
    al = mt.elliptic_vertex_angle(model, cfg.A, cfg.B, cfg.C)
    be = mt.elliptic_vertex_angle(model, cfg.B, cfg.C, cfg.A)
    ga = mt.elliptic_vertex_angle(model, cfg.C, cfg.A, cfg.B)
    r1 = math.sin(a) / math.sin(al)
    r2 = math.sin(b) / math.sin(be)
    r3 = math.sin(c) / math.sin(ga)
    sines = max(_rel(r1, r2), _rel(r2, r3), _rel(r1, r3))
    cosines = _rel(math.cos(a),
                   math.sin(c) * math.sin(b) * math.cos(al)
                   + math.cos(c) * math.cos(b))
    dual = _rel(math.cos(al),
                math.sin(ga) * math.sin(be) * math.cos(a)
                - math.cos(ga) * math.cos(be))
    return {"sines": sines, "cosines": cosines, "dual_cosines": dual}


def hyperbolic_triangle_laws(cfg: PolarTriangleConfig):
    """Measured hyperbolic laws for an interior triangle; angles through the
    ray construction so obtuse angles keep their sign."""
    model = cfg.model
    t = cfg.tol
    a = mt.distance(model, cfg.B, cfg.C, tol=t)
    b = mt.distance(model, cfg.C, cfg.A, tol=t)
    c = mt.distance(model, cfg.A, cfg.B, tol=t)
    al = ry.vertex_angle(model, cfg.A, cfg.B, cfg.C, tol=t)
    be = ry.vertex_angle(model, cfg.B, cfg.C, cfg.A, tol=t)
    ga = ry.vertex_angle(model, cfg.C, cfg.A, cfg.B, tol=t)
    r1 = math.sinh(a) / math.sin(al)
    r2 = math.sinh(b) / math.sin(be)
    r3 = math.sinh(c) / math.sin(ga)
    sines = max(_rel(r1, r2), _rel(r2, r3), _rel(r1, r3))
    cosines = _rel(math.cosh(a),
                   -math.sinh(c) * math.sinh(b) * math.cos(al)
                   + math.cosh(c) * math.cosh(b))
    dual = _rel(math.cos(al),
                math.sin(ga) * math.sin(be) * math.cosh(a)
                - math.cos(ga) * math.cos(be))
    return {"sines": sines, "cosines": cosines, "dual_cosines": dual}


def hexagon_laws(cfg: PolarTriangleConfig):
    """Measured right-angled hexagon laws: sides a, b, c on the sides of T
    between the conjugate points, opposite sides alpha, beta, gamma on the
    sides of T'."""
    model = cfg.model
    t = cfg.tol
    d = lambda p, q: mt.distance(model, p, q, tol=t)
    a = d(cfg.Ba, cfg.Ca)
    b = d(cfg.Cb, cfg.Ab)
    c = d(cfg.Ac, cfg.Bc)
    al = d(cfg.Ab, cfg.Ac)
    be = d(cfg.Bc, cfg.Ba)
    ga = d(cfg.Ca, cfg.Cb)
    r1 = math.sinh(a) / math.sinh(al)
    r2 = math.sinh(b) / math.sinh(be)
    r3 = math.sinh(c) / math.sinh(ga)
    sines = max(_rel(r1, r2), _rel(r2, r3), _rel(r1, r3))
    cosines = _rel(math.cosh(a),
                   math.sinh(c) * math.sinh(b) * math.cosh(al)
                   - math.cosh(c) * math.cosh(b))
    return {"sines": sines, "cosines": cosines}


def quadrilateral_laws(cfg: PolarTriangleConfig):
    """Measured laws of the quadrilateral with two consecutive right angles
    (A, B interior, C exterior): sides a = ||B C_a||, b = ||A C_b||,
    c = ||AB||, gamma = ||C_a C_b||; angles alpha at A, beta at B."""
    model = cfg.model
    t = cfg.tol
    if model.is_interior(cfg.C):
        # rotate labels so the exterior vertex is C
        if not model.is_interior(cfg.A):
            cfg = PolarTriangleConfig(model, cfg.B, cfg.C, cfg.A, tol=t)
        elif not model.is_interior(cfg.B):
            cfg = PolarTriangleConfig(model, cfg.C, cfg.A, cfg.B, tol=t)
    if not (model.is_interior(cfg.A) and model.is_interior(cfg.B)) \
            or model.is_interior(cfg.C):
        raise KindMismatch("quadrilateral laws need A, B interior and C exterior")
    d = lambda p, q: mt.distance(model, p, q, tol=t)
    a = d(cfg.B, cfg.Ca)
    b = d(cfg.A, cfg.Cb)
    c = d(cfg.A, cfg.B)
    ga = d(cfg.Ca, cfg.Cb)
    al = ry.vertex_angle(model, cfg.A, cfg.B, cfg.Cb, tol=t)
    be = ry.vertex_angle(model, cfg.B, cfg.A, cfg.Ca, tol=t)
    r1 = math.cosh(a) / math.sin(al)
    r2 = math.cosh(b) / math.sin(be)
    r3 = math.sinh(c) / math.sinh(ga)
    sines = max(_rel(r1, r2), _rel(r2, r3), _rel(r1, r3))
    laws = {
        "sines": sines,
        "law_alpha": _rel(math.cos(al),
                          math.sinh(ga) * math.sin(be) * math.sinh(a)
                          - math.cosh(ga) * math.cos(be)),
        "law_a": _rel(math.sinh(a),
                      -math.sinh(c) * math.cosh(b) * math.cos(al)
                      + math.cosh(c) * math.sinh(b)),
        "law_c": _rel(math.cosh(c),
                      math.cosh(a) * math.cosh(b) * math.cosh(ga)
                      - math.sinh(a) * math.sinh(b)),
        "law_gamma": _rel(math.cosh(ga),
                          math.sin(al) * math.sin(be) * math.cosh(c)
                          - math.cos(al) * math.cos(be)),
    }
    return laws

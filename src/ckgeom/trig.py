"""Trigonometry engine.

Menelaus, Ceva and Van Aubel in projective form; the six squared identities
of right-angled configurations and their unsquared table rows; the general
squared laws of sines and cosines; the Carnot machinery (projective product,
cosine form, its converse through the Carnot involution, fake points); the
magic midpoints and coherent orientations; and the unsquared projective laws
of sines and cosines with their geometric translations.

Each identity, law and Carnot product is written once.  Every hyperbolic
figure length is the translation-table reading (`metric.segment_measure`) of
a side of T or T', read through the root family of its tag.  Vertex angles
(rays) and elliptic real representatives are read outside the table, as
circular.
"""

from __future__ import annotations

import cmath
import math
from operator import attrgetter

from . import conics as cn
from . import metric as mt
from . import rays as ry
from .centers import PolarTriangleConfig, midpoint_assignments
from .errors import (
    CoincidentPoints,
    DegenerateInput,
    GeneralPositionViolation,
    KindMismatch,
    NoCoherentAssignment,
    NonConcurrentCevians,
    PointOutsideModel,
    PointsNotConconic,
    TangentLine,
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

    __slots__ = ("x", "y", "z", "s",
                 "X", "Y", "Z", "X0", "Y0", "Z0", "X1", "Y1", "Z1")

    def __init__(self, x, y, z, r, s):
        t = get_tol()
        lines = (x, y, z, r, s)
        for i in range(5):
            for j in range(i + 1, 5):
                for k in range(j + 1, 5):
                    if concurrency_residual(lines[i], lines[j], lines[k]) <= t:
                        raise GeneralPositionViolation(
                            f"lines {i},{j},{k} are concurrent")
        self.x, self.y, self.z, self.s = x, y, z, s
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
        cross_ratio(cfg.X, cfg.Y, cfg.Z1, cfg.Z0, carrier=cfg.z)
        * cross_ratio(cfg.Y, cfg.Z, cfg.X1, cfg.X0, carrier=cfg.x)
        * cross_ratio(cfg.Z, cfg.X, cfg.Y1, cfg.Y0, carrier=cfg.y)
    )


def menelaus_residual(cfg: MenelausConfig) -> float:
    return abs(menelaus_product(cfg) - 1.0)


def ceva_product(X, Y, Z, X1, Y1, Z1, r: HLine) -> complex:
    """(XYZ1Z0)(YZX1X0)(ZXY1Y0) for cevian feet X1, Y1, Z1 against a
    reference line r missing the vertices; equals -1 iff the cevians
    concur."""
    for v in (X, Y, Z):
        if incidence_residual(r, v) <= get_tol():
            raise DegenerateInput("reference line passes through a vertex")
    x = join_points(Y, Z)
    y = join_points(Z, X)
    z = join_points(X, Y)
    X0, Y0, Z0 = meet_lines(x, r), meet_lines(y, r), meet_lines(z, r)
    return (
        cross_ratio(X, Y, Z1, Z0, carrier=z)
        * cross_ratio(Y, Z, X1, X0, carrier=x)
        * cross_ratio(Z, X, Y1, Y0, carrier=y)
    )


def ceva_residual(X, Y, Z, X1, Y1, Z1, r) -> float:
    return abs(ceva_product(X, Y, Z, X1, Y1, Z1, r) + 1.0)


def van_aubel(X, Y, Z, X1, Y1, Z1, r: HLine):
    """Both sides of (X X1 Q X2) = (X Y Z1 Z0) + (X Z Y1 Y0) for concurrent
    cevians with concurrency point Q and X2 = r . XX1."""
    cx = join_points(X, X1)
    cy = join_points(Y, Y1)
    cz = join_points(Z, Z1)
    q = meet_lines(cx, cy)
    if incidence_residual(cz, q) > 1e3 * get_tol():
        raise NonConcurrentCevians("cevians do not concur")
    X2 = meet_lines(r, cx)
    Z0 = meet_lines(r, join_points(X, Y))
    Y0 = meet_lines(r, join_points(X, Z))
    lhs = cross_ratio(X, X1, q, X2, carrier=cx)
    rhs = cross_ratio_points(X, Y, Z1, Z0) + cross_ratio_points(X, Z, Y1, Y0)
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
    return mt.squared_trig(cfg.model, p, q)


# The sides of T and T' by name.  Every hyperbolic figure length is the
# reading of one of them through the translation table of
# `metric.segment_measure`, and its root family is the family of its tag.
_SIDES = {
    "a": attrgetter("B", "C"), "b": attrgetter("C", "A"),
    "c": attrgetter("A", "B"), "a'": attrgetter("Bp", "Cp"),
    "b'": attrgetter("Cp", "Ap"), "c'": attrgetter("Ap", "Bp"),
}

# the five segments of the identities of a right-angled configuration
_SEGMENTS = ("a", "b", "c", "b'", "c'")


# T1..T6 as (lhs, rhs) over the C/S/T of the segments a, b, c, b', c': read
# squared from cross ratios, unsquared through root families (table_5_1).
_IDENTITIES = {
    "T1": lambda C, S, T: (C["a"], C["b"] * C["c"]),
    "T2": lambda C, S, T: (S["c"], S["a"] * S["c'"]),
    "T3": lambda C, S, T: (C["c'"], C["c"] * S["b'"]),
    "T4": lambda C, S, T: (T["c"], T["a"] * C["b'"]),
    "T5": lambda C, S, T: (C["a"], 1.0 / (T["b'"] * T["c'"])),
    "T6": lambda C, S, T: (T["c"], S["b"] * T["c'"]),
}

IDENTITY_NAMES = tuple(_IDENTITIES)

# the three segments each identity reads, in the order of _SEGMENTS
_READS = {"T1": ("a", "b", "c"), "T2": ("a", "c", "c'"),
          "T3": ("c", "b'", "c'"), "T4": ("a", "c", "b'"),
          "T5": ("a", "b'", "c'"), "T6": ("b", "c", "c'")}


def squared_identity(name: str, cfg: PolarTriangleConfig) -> float:
    """Residual of one of the six identities of a right-angled configuration,
    from the C/S/T of only the three segments it reads."""
    r = {side: _cst(cfg, *_SIDES[side](cfg)) for side in _READS[name]}
    C = {k: v[0] for k, v in r.items()}
    S = {k: v[1] for k, v in r.items()}
    T = {k: v[2] for k, v in r.items()}
    return _rel(*_IDENTITIES[name](C, S, T))


def _roots(names, families, mags):
    """cc, ss and tt maps of the named magnitudes, each through its root
    family (`metric.ROOTS`)."""
    C, S, T = {}, {}, {}
    for name, family, v in zip(names, families, mags):
        cc, ss, tt = mt.ROOTS[family]
        C[name], S[name], T[name] = cc(v), ss(v), tt(v)
    return C, S, T


def _spread(r) -> float:
    """Largest relative gap among the three ratios a law of sines equates."""
    return max(_rel(r[0], r[1]), _rel(r[1], r[2]), _rel(r[0], r[2]))


def _swap_bc(cfg: PolarTriangleConfig) -> PolarTriangleConfig:
    return PolarTriangleConfig(cfg.model, cfg.A, cfg.C, cfg.B)


def _lengths(cfg: PolarTriangleConfig, sides):
    """Root families (one letter each) and magnitudes of the named sides of
    T and T', read through the translation table."""
    read = [mt.segment_measure(cfg.model, *_SIDES[side](cfg)) for side in sides]
    return "".join(mt.FAMILY[tag] for tag, _ in read), tuple(v for _, v in read)


def right_angled_magnitudes(cfg: PolarTriangleConfig):
    """(kind, families, magnitudes) of a canonical right-angled figure.

    The magnitudes (a, b, c, beta, gamma) stand for the segments a, b, c,
    b', c' of the identities.  Lambert figures are relabeled so the
    exterior vertex is B.  Hyperbolic magnitudes are translation-table
    readings (the non-right angles are never obtuse); elliptic ones are
    read on real representatives.
    """
    kind = right_angled_kind(cfg)
    model = cfg.model
    if kind == ELLIPTIC_RIGHT:
        return kind, "CCCCC", _elliptic_magnitudes(cfg, (1, 2))
    if kind == OTHER_RIGHT:
        raise KindMismatch(f"no magnitude table for kind {kind}")
    if kind == LAMBERT and model.is_interior(cfg.B):
        cfg = _swap_bc(cfg)
    return (kind, *_lengths(cfg, _SEGMENTS))


def _elliptic_magnitudes(cfg: PolarTriangleConfig, corners):
    """Sides a, b, c of an elliptic triangle, then its angles at the vertex
    indices `corners` (0 for A), read on real representatives."""
    m, v = cfg.model, (cfg.A, cfg.B, cfg.C)
    cyc = [(v[i], v[(i + 1) % 3], v[(i + 2) % 3]) for i in range(3)]
    return (tuple(mt.elliptic_side(m, q, r) for _, q, r in cyc)
            + tuple(mt.elliptic_vertex_angle(m, *cyc[i]) for i in corners))


def table_5_1(cfg: PolarTriangleConfig):
    """Evaluate all six unsquared rows for the figure, returning
    [(row, lhs, rhs, residual)]: hyperbolic rows check the families and
    signs of the translation table, not a second measurement."""
    _, families, mags = right_angled_magnitudes(cfg)
    return table_rows(families, mags)


def table_rows(families: str, mags):
    """The rows of `table_5_1` from the root families and magnitudes of the
    segments a, b, c, b', c' (`right_angled_magnitudes`)."""
    C, S, T = _roots(_SEGMENTS, families, mags)
    out = []
    for name, identity in _IDENTITIES.items():
        lhs, rhs = identity(C, S, T)
        out.append((name, lhs, rhs, _rel(lhs, rhs)))
    return out


# ---------------------------------------------------------------------------
# general squared laws
# ---------------------------------------------------------------------------

def squared_law_of_sines(cfg: PolarTriangleConfig):
    """Ratios S(x)/S(x') for the three sides and their maximal spread."""
    s = {side: _cst(cfg, *pair(cfg))[1] for side, pair in _SIDES.items()}
    ratios = (s["a"] / s["a'"], s["b"] / s["b'"], s["c"] / s["c'"])
    return ratios, _spread(ratios)


def _sqrt_branches(u: complex, v: complex, target: complex):
    """Residuals of (sqrt(u) +/- sqrt(v))^2 against target; returns
    (best_residual, n_matching) over the two essentially different branch
    combinations."""
    su = cmath.sqrt(u)
    sv = cmath.sqrt(v)
    r1 = _rel((su + sv) ** 2, target)
    r2 = _rel((su - sv) ** 2, target)
    matches = sum(1 for r in (r1, r2) if r <= 1e3 * get_tol())
    return min(r1, r2), matches


def squared_law_of_cosines(cfg: PolarTriangleConfig):
    """C(c) = (sqrt(C(a)C(b)) + sqrt(S(a)S(b)C(c')))^2 with principal-root
    branch search; exactly one branch combination must close.

    Returns (residual, n_matching_branches).
    """
    (ca, sa, _), (cb, sb, _), (cc, _, _), (ccp, _, _) = (
        _cst(cfg, *_SIDES[side](cfg)) for side in ("a", "b", "c", "c'"))
    return _sqrt_branches(ca * cb, sa * sb * ccp, cc)


def cosine_split_lemma(cfg: PolarTriangleConfig, x: HPoint | None = None):
    """The two split identities along the altitude foot X on side a:
    (BXCC_a)^2 = T(a)/T(a2) and C(a1) = (sqrt(C(a)C(a2)) + sqrt(S(a)S(a2)))^2,
    for segments a1 = BX, a2 = CX.  Any X on a not on the absolute works.
    """
    X = cfg.HA if x is None else x
    r = cross_ratio(cfg.B, X, cfg.C, cfg.Ca, carrier=cfg.a)
    ca, sa, ta = _cst(cfg, cfg.B, cfg.C)
    ca1, sa1, _ = _cst(cfg, cfg.B, X)
    ca2, sa2, ta2 = _cst(cfg, cfg.C, X)
    res1 = _rel(r * r, ta / ta2)
    res2, matches = _sqrt_branches(ca * ca2, sa * sa2, ca1)
    return res1, res2, matches


# ---------------------------------------------------------------------------
# Carnot machinery
# ---------------------------------------------------------------------------

def carnot_product(X, Y, Z, X0, Y0, Z0, X1, X2, Y1, Y2, Z1, Z2) -> complex:
    """(XYZ0Z1)(XYZ0Z2)(YZX0X1)(YZX0X2)(ZXY0Y1)(ZXY0Y2)."""
    z = join_points(X, Y)
    x = join_points(Y, Z)
    y = join_points(Z, X)
    return (
        cross_ratio(X, Y, Z0, Z1, carrier=z)
        * cross_ratio(X, Y, Z0, Z2, carrier=z)
        * cross_ratio(Y, Z, X0, X1, carrier=x)
        * cross_ratio(Y, Z, X0, X2, carrier=x)
        * cross_ratio(Z, X, Y0, Y1, carrier=y)
        * cross_ratio(Z, X, Y0, Y2, carrier=y)
    )


def carnot_projective_residual(X, Y, Z, conic: cn.Conic, transversal: HLine):
    """Carnot product against the six conic traces on the sides of the
    triangle; returns (residual, six points).  The traces are fit-verified,
    and a side tangent to the conic raises TangentLine."""
    x = join_points(Y, Z)
    y = join_points(Z, X)
    z = join_points(X, Y)
    six = []
    for side in (x, y, z):
        meet = cn.line_conic_meet(conic, side)
        if meet.status == cn.TANGENT:  # its two traces are one point
            raise TangentLine("a side of the triangle touches the conic")
        six += meet.points
    for p in six:
        if cn.conic_residual(conic, p) > 1e-6:
            raise PointsNotConconic("side trace drifted off the conic")
    X0 = meet_lines(x, transversal)
    Y0 = meet_lines(y, transversal)
    Z0 = meet_lines(z, transversal)
    prod = carnot_product(X, Y, Z, X0, Y0, Z0, *six)
    return abs(prod - 1.0), tuple(six)


def carnot_conjugate(model, X: HPoint, Y: HPoint, w: HPoint) -> HPoint:
    """zeta_XY(w) = rho_z(tau_XY(rho_z(w))) on the line z = XY."""
    z = join_points(X, Y)
    w1 = cn.conjugate_point(model.absolute, w, z)
    w2 = harmonic_conjugate(X, Y, w1, z)
    return cn.conjugate_point(model.absolute, w2, z)


def _carnot_foot(cfg: PolarTriangleConfig, bstar, cstar) -> HPoint:
    """D*: the cut on a by the perpendicular from A' through b*.c*."""
    return meet_lines(cfg.a, join_points(cfg.Ap, meet_lines(bstar, cstar)))


class CarnotSegments:
    """Side points A*, B*, C* on the sides a, b, c and the squared ratios
    (C, S) of their six Carnot segments, each read once by `squared_trig`:
    `left` of B A*, C B*, A C* and `right` of C A*, A B*, B C*.  A star on
    its end reads None, where `metric.distance` reads 0."""

    __slots__ = ("stars", "left", "right")


def _segment_trig(model, p, q):
    try:
        return mt.squared_trig(model, p, q)[:2]
    except CoincidentPoints:
        return None


def carnot_segments(cfg: PolarTriangleConfig, Astar, Bstar, Cstar):
    """The `CarnotSegments` of the side points A*, B*, C*."""
    out = CarnotSegments()
    out.stars = (Astar, Bstar, Cstar)
    out.left, out.right = (
        tuple(_segment_trig(cfg.model, end, star)
              for end, star in zip(ends, out.stars))
        for ends in ((cfg.B, cfg.C, cfg.A), (cfg.C, cfg.A, cfg.B)))
    return out


class CarnotCosines:
    __slots__ = ("identity_residual", "concurrency_residual",
                 "classification", "segments")


def carnot_cosines(cfg: PolarTriangleConfig, Astar, Bstar, Cstar):
    """The squared-cosine Carnot identity for perpendicular lines through
    three side points, together with the converse classification.

    identity: C(BA*) C(CB*) C(AC*) = C(CA*) C(AB*) C(BC*) when the
    perpendiculars a* = A*A', b* = B*B', c* = C*C' concur.  The converse
    locates A* at D* or at its Carnot conjugate zeta_BC(D*), where D* is cut
    on a by the perpendicular from A' through b*.c*.  A star on its end has
    no C and raises CoincidentPoints.  `segments` keeps the six segments'
    ratios for the measured products.
    """
    out = CarnotCosines()
    astar = join_points(Astar, cfg.Ap)
    bstar = join_points(Bstar, cfg.Bp)
    cstar = join_points(Cstar, cfg.Cp)
    out.concurrency_residual = concurrency_residual(astar, bstar, cstar)
    out.segments = segs = carnot_segments(cfg, Astar, Bstar, Cstar)
    if None in segs.left + segs.right:
        raise CoincidentPoints("a Carnot point lies on its segment's end")
    out.identity_residual = _rel(*(x[0] * y[0] * z[0]
                                   for x, y, z in (segs.left, segs.right)))
    dstar = _carnot_foot(cfg, bstar, cstar)
    if points_equal(Astar, dstar, 1e-6):
        out.classification = "concurrent"
    else:
        zeta = carnot_conjugate(cfg.model, cfg.B, cfg.C, dstar)
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


def fake_carnot_points(cfg: PolarTriangleConfig, Bstar, Cstar):
    """Replace the concurrent A* by its Carnot conjugate: the identity still
    holds but the perpendiculars no longer concur (elliptic phenomenon)."""
    bstar = join_points(Bstar, cfg.Bp)
    cstar = join_points(Cstar, cfg.Cp)
    dstar = _carnot_foot(cfg, bstar, cstar)
    fake = carnot_conjugate(cfg.model, cfg.B, cfg.C, dstar)
    return fake, dstar


def _measured_products(cfg: PolarTriangleConfig, segs: CarnotSegments, f):
    """Both sides of a measured Carnot product: f of each segment's
    distance, read from its C and S as `metric.distance` reads it (0 for a
    star on its end).  In the hyperbolic model every endpoint must be
    interior, as there; each is tested once."""
    model = cfg.model
    hyperbolic = model.kind == mt.HYPERBOLIC
    if hyperbolic:
        for p in (cfg.A, cfg.B, cfg.C, *segs.stars):
            if not model.is_interior(p):
                raise PointOutsideModel("hyperbolic Carnot needs interior data")
    read = mt.READ["H" if hyperbolic else "C"]

    def seg(r):
        return f(0.0 if r is None else read(*r))
    return tuple(math.prod(map(seg, side)) for side in (segs.left, segs.right))


def carnot_hyperbolic_sides(cfg: PolarTriangleConfig, segs: CarnotSegments):
    """Measured cosh products for the iff-theorem on interior triangles:
    returns (lhs, rhs) of cosh a1 cosh b1 cosh c1 = cosh a2 cosh b2 cosh c2
    over the segments of `carnot_segments` (or `CarnotCosines.segments`)."""
    return _measured_products(cfg, segs, math.cosh)


def carnot_elliptic_sides(cfg: PolarTriangleConfig, segs: CarnotSegments):
    """Measured cos products (elliptic).  Elliptic distances live in
    [0, pi/2] (a full line has length pi), so every cosine is nonnegative
    and the product identity is exact, not just up to sign."""
    return _measured_products(cfg, segs, math.cos)


def carnot_hexagon_sides(cfg: PolarTriangleConfig, Astar, Bstar, Cstar):
    """Measured sinh products on a right-angled hexagon: the hexagon vertices
    on side a are the conjugate points B_a, C_a (dually for b, c)."""
    stars = (Astar, Bstar, Cstar)
    return tuple(math.prod(math.sinh(mt.distance(cfg.model, end, star))
                           for end, star in zip(ends, stars))
                 for ends in ((cfg.Ca, cfg.Ab, cfg.Bc), (cfg.Ba, cfg.Cb, cfg.Ac)))


def six_points_conic_check(cfg: PolarTriangleConfig):
    """Fit a conic through five of the six vertex conjugates and report the
    residual of the sixth; right-angled configurations give a degenerate
    (line-pair) conic."""
    pts = (cfg.Ab, cfg.Ac, cfg.Ba, cfg.Bc, cfg.Ca, cfg.Cb)
    conic = cn.conic_fit(pts[:5], rank_check=False)
    return conic, cn.conic_residual(conic, pts[5])


# ---------------------------------------------------------------------------
# complementary midpoints, magic midpoints, coherent orientation
# ---------------------------------------------------------------------------

def complementary_midpoints_conic(cfg: PolarTriangleConfig):
    """The conic through the six complementary midpoints, its worst member
    residual, and the Carnot-route oracle (product of the six cross ratios
    against the collinear unchosen midpoints equals one)."""
    (g, ga), (h, hb), (i, ic) = cfg.complementary
    pts = (g, ga, h, hb, i, ic)
    conic = cn.conic_fit(pts[:5], rank_check=False)
    fit_residual = cn.conic_residual(conic, pts[5])
    prod = (
        cross_ratio(cfg.B, cfg.C, cfg.Da, g, carrier=cfg.a)
        * cross_ratio(cfg.B, cfg.C, cfg.Da, ga, carrier=cfg.a)
        * cross_ratio(cfg.C, cfg.A, cfg.Eb, h, carrier=cfg.b)
        * cross_ratio(cfg.C, cfg.A, cfg.Eb, hb, carrier=cfg.b)
        * cross_ratio(cfg.A, cfg.B, cfg.Fc, i, carrier=cfg.c)
        * cross_ratio(cfg.A, cfg.B, cfg.Fc, ic, carrier=cfg.c)
    )
    carnot_residual = abs(prod - 1.0)
    transversal_residual = collinearity_residual(cfg.Da, cfg.Eb, cfg.Fc)
    return conic, fit_residual, carnot_residual, transversal_residual


def pair_gap(pair1, pair2) -> float:
    """Gap between two unordered point pairs: the worse point gap under the
    better matching."""
    a, b = pair1
    c, d = pair2
    return min(
        max(point_gap(a, c), point_gap(b, d)),
        max(point_gap(a, d), point_gap(b, c)),
    )


def _diagonal_points(p, q):
    """The diagonal points p0q0.p1q1 and p0q1.p1q0 of the quadrangle of the
    point pairs p and q."""
    return (meet_lines(join_points(p[0], q[0]), join_points(p[1], q[1])),
            meet_lines(join_points(p[0], q[1]), join_points(p[1], q[0])))


def magic_midpoints_agreement(cfg: PolarTriangleConfig) -> float:
    """Fourfold characterization of the magic midpoints: direct midpoints of
    the magic sides vs the complementary-midpoint diagonal construction, its
    primed version, the midpoints of the magic triangle's own sides, and
    (when not isosceles) the ordinary-midpoint diagonal construction."""
    m = cfg.magic
    d = cfg.dual
    comp, compd = cfg.complementary, d.complementary
    iso = cfg.iso_flags
    verts = (m.A, m.B, m.C)
    mids = (cfg.mids_a, cfg.mids_b, cfg.mids_c)
    midsp = (d.mids_a, d.mids_b, d.mids_c)
    worst = 0.0
    for k, pair in enumerate(m.pairs):
        i, j = (k + 1) % 3, (k + 2) % 3
        # I: complementary-midpoint quadrangle; II: its primed version;
        # III: midpoints of the magic triangle side
        found = [_diagonal_points(comp[i], comp[j]),
                 _diagonal_points(compd[i], compd[j]),
                 mt.midpoints(cfg.model, verts[i], verts[j])]
        # IVa: ordinary-midpoint quadrangle, away from the isosceles case
        if not iso[k]:
            found.append(_diagonal_points(mids[k], midsp[k]))
        worst = max(worst, *(pair_gap(pair, f) for f in found))
    return worst


class OrientedTriangleConfig:
    """A coherently oriented configuration: preferred midpoints D, E, F,
    preferred complementary midpoints G, H, I, and the noncollinear magic
    midpoints tied to them.  `dual` is the same orientation on `cfg.dual`,
    whose D, E, F and G, H, I are D', E', F' and G', H', I'."""

    __slots__ = ("cfg", "D", "E", "F", "G", "H", "I", "magic", "dual")

    def __init__(self, cfg, mids, comps, magic):
        self.cfg = cfg
        self.D, self.E, self.F = mids
        self.G, self.H, self.I = comps
        self.magic = magic


def _pick_on_line(pair, line):
    t = get_tol()
    r0 = incidence_residual(line, pair[0])
    r1 = incidence_residual(line, pair[1])
    if min(r0, r1) > 1e-6:
        return None
    if r0 > t and r1 > t and abs(r0 - r1) < t:
        return None
    return pair[0] if r0 <= r1 else pair[1]


def _solve_complementary(comp_pairs, magics):
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


def _recording(items, record):
    """`items`, each appended to `record` as it is yielded."""
    for item in items:
        record.append(item)
        yield item


def coherent_orientation(cfg: PolarTriangleConfig) -> OrientedTriangleConfig:
    """Deterministic search for a coherent orientation: enumerate the valid
    midpoint triples of T and T' in canonical order, derive the magic
    midpoints on the lines DD', EE', FF', and solve for complementary
    choices putting the magic midpoints on HI/IG/GH and primed versions.

    Both enumerations are lazy: a choice is tested only when the search
    reaches it, and each choice of T' is tested once."""
    if cfg.is_right_angled():
        raise NoCoherentAssignment("coherent orientation needs a non-right-angled triangle")
    m = cfg.magic
    dual = cfg.dual
    avoid = (cfg.A0, cfg.B0, cfg.C0)
    primal = midpoint_assignments((cfg.mids_a, cfg.mids_b, cfg.mids_c), avoid)
    choices = midpoint_assignments((dual.mids_a, dual.mids_b, dual.mids_c),
                                   avoid)
    # the inner loop returns or runs to its end, so after its first pass
    # `primed` holds every choice of T'
    primed = []
    comp, compd = cfg.complementary, dual.complementary
    for _, (D, E, F) in primal:
        for _, (Dp, Ep, Fp) in primed or _recording(choices, primed):
            mD = _pick_on_line(m.pairs[0], join_points(D, Dp))
            mE = _pick_on_line(m.pairs[1], join_points(E, Ep))
            mF = _pick_on_line(m.pairs[2], join_points(F, Fp))
            if mD is None or mE is None or mF is None:
                continue
            if collinearity_residual(mD, mE, mF) <= 1e3 * get_tol():
                continue
            sol = _solve_complementary(comp, (mD, mE, mF))
            if sol is None:
                continue
            sol_d = _solve_complementary(compd, (mD, mE, mF))
            if sol_d is None:
                continue
            o = OrientedTriangleConfig(cfg, (D, E, F), sol, (mD, mE, mF))
            o.dual = OrientedTriangleConfig(dual, (Dp, Ep, Fp), sol_d, o.magic)
            o.dual.dual = o
            return o
    raise NoCoherentAssignment("no coherent orientation found")


# ---------------------------------------------------------------------------
# unsquared projective ratios of an oriented triangle
# ---------------------------------------------------------------------------

# The cyclic sides XY of T (of T' on `o.dual`): X, Y, the conjugate point
# Y_p of Y on XY and the side itself on the config, then the preferred
# midpoint D and the preferred complementary midpoint G of the side on the
# orientation.
_CYCLIC = {
    "AB": attrgetter("cfg.A", "cfg.B", "cfg.Bc", "cfg.c", "F", "I"),
    "BC": attrgetter("cfg.B", "cfg.C", "cfg.Ca", "cfg.a", "D", "G"),
    "CA": attrgetter("cfg.C", "cfg.A", "cfg.Ab", "cfg.b", "E", "H"),
}


def side_cc(o: OrientedTriangleConfig, side: str) -> complex:
    """cc of the cyclic side: (X Y Y_p D) with the preferred midpoint."""
    x, y, yp, carrier, d, _ = _CYCLIC[side](o)
    return cross_ratio(x, y, yp, d, carrier=carrier)


def side_ss(o: OrientedTriangleConfig, side: str) -> complex:
    """ss of the cyclic side: (X Y_p Y G) with the preferred complementary
    midpoint."""
    x, y, yp, carrier, _, g = _CYCLIC[side](o)
    return cross_ratio(x, yp, y, g, carrier=carrier)


def projective_law_of_sines(o: OrientedTriangleConfig):
    """Ratios ss(XY)/ss(X'Y') over the three cyclic sides and their spread."""
    ratios = tuple(side_ss(o, s) / side_ss(o.dual, s) for s in _CYCLIC)
    return ratios, _spread(ratios)


# target YZ and the sides XY and ZX; the opposite side Y'Z' is YZ on o.dual
_COSINE_SIDES = {"a": ("BC", "AB", "CA"), "b": ("CA", "BC", "AB"),
                 "c": ("AB", "CA", "BC")}


def projective_laws_of_cosines(o: OrientedTriangleConfig):
    """Residuals of cc(YZ) = -ss(XY) ss(ZX) cc(Y'Z') - cc(XY) cc(ZX) for
    the sides a, b, c and of the primed laws a', b', c' (each law on
    `o.dual`), in the order a, a', b, b', c, c'.  The six laws read the cc
    and ss of the three cyclic sides of o and of o.dual, each ratio taken
    once."""
    halves = (o, o.dual)
    cc = [{s: side_cc(h, s) for s in _CYCLIC} for h in halves]
    ss = [{s: side_ss(h, s) for s in _CYCLIC} for h in halves]
    out = {}
    for side, (tgt, s1, s2) in _COSINE_SIDES.items():
        for k, name in ((0, side), (1, side + "'")):
            c, s = cc[k], ss[k]
            out[name] = _rel(c[tgt], -s[s1] * s[s2] * cc[1 - k][tgt]
                             - c[s1] * c[s2])
    return out


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


def _exterior_at_c(cfg: PolarTriangleConfig) -> PolarTriangleConfig:
    """Rotate the labels so that C is exterior when C is interior and A or B
    is not."""
    model = cfg.model
    if model.is_interior(cfg.C):
        if not model.is_interior(cfg.A):
            return PolarTriangleConfig(model, cfg.B, cfg.C, cfg.A)
        if not model.is_interior(cfg.B):
            return PolarTriangleConfig(model, cfg.C, cfg.A, cfg.B)
    return cfg


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
        c2 = _exterior_at_c(cfg)
        if _convex_in_chart((c2.A, c2.B, c2.Ca, c2.Cb)):
            return QUADRILATERAL_2R
        return "stellate-quadrilateral"
    if ins == 0 and secant:
        if _convex_in_chart((cfg.Ba, cfg.Ca, cfg.Cb, cfg.Ab, cfg.Ac, cfg.Bc)):
            return HEXAGON
        return "stellate-hexagon"
    return "other"


# The magnitudes a, b, c, alpha, beta, gamma of a worked figure and its
# cosine laws (x, y, z, w, e1, e2), which read
# cc(x) = e1 ss(y) ss(z) cc(w) + e2 cc(y) cc(z); its law of sines equates
# ss(x)/ss(opposite) over the pairs (a, alpha), (b, beta), (c, gamma).
_MAGNITUDES = ("a", "b", "c", "alpha", "beta", "gamma")
_LAWS = {
    "elliptic": {
        "cosines": ("a", "c", "b", "alpha", 1.0, 1.0),
        "dual_cosines": ("alpha", "gamma", "beta", "a", 1.0, -1.0),
    },
    "hyperbolic": {
        "cosines": ("a", "c", "b", "alpha", -1.0, 1.0),
        "dual_cosines": ("alpha", "gamma", "beta", "a", 1.0, -1.0),
    },
    "hexagon": {"cosines": ("a", "c", "b", "alpha", 1.0, -1.0)},
    "quadrilateral": {
        "law_alpha": ("alpha", "gamma", "beta", "a", 1.0, -1.0),
        "law_a": ("a", "c", "b", "alpha", -1.0, 1.0),
        "law_c": ("c", "a", "b", "gamma", 1.0, -1.0),
        "law_gamma": ("gamma", "alpha", "beta", "c", 1.0, -1.0),
    },
}


def _laws(figure: str, families: str, mags):
    """Residuals of the figure's law of sines (spread) and cosine laws, each
    magnitude read through its root family."""
    C, S, _ = _roots(_MAGNITUDES, families, mags)
    out = {"sines": _spread(tuple(
        S[x] / S[y] for x, y in (("a", "alpha"), ("b", "beta"), ("c", "gamma"))))}
    for name, (x, y, z, w, e1, e2) in _LAWS[figure].items():
        out[name] = _rel(C[x], e1 * S[y] * S[z] * C[w] + e2 * C[y] * C[z])
    return out


def elliptic_triangle_laws(cfg: PolarTriangleConfig):
    """Measured spherical laws: law of sines spread, law of cosines, dual
    law of cosines (real-representative magnitudes, all circular)."""
    return _laws("elliptic", "CCCCCC", _elliptic_magnitudes(cfg, (0, 1, 2)))


def hyperbolic_triangle_laws(cfg: PolarTriangleConfig):
    """Measured hyperbolic laws for an interior triangle: sides through the
    translation table, angles through the ray construction so obtuse angles
    keep their sign."""
    model = cfg.model
    families, (a, b, c) = _lengths(cfg, ("a", "b", "c"))
    al = ry.vertex_angle(model, cfg.A, cfg.B, cfg.C)
    be = ry.vertex_angle(model, cfg.B, cfg.C, cfg.A)
    ga = ry.vertex_angle(model, cfg.C, cfg.A, cfg.B)
    return _laws("hyperbolic", families + "CCC", (a, b, c, al, be, ga))


def hexagon_laws(cfg: PolarTriangleConfig):
    """Measured right-angled hexagon laws: sides a, b, c on the sides of T
    between the conjugate points, opposite sides alpha, beta, gamma on the
    sides of T' (the sides a', b', c' through the translation table)."""
    return _laws("hexagon", *_lengths(cfg, ("a", "b", "c", "a'", "b'", "c'")))


def quadrilateral_laws(cfg: PolarTriangleConfig):
    """Measured laws of the quadrilateral with two consecutive right angles
    (A, B interior, C exterior): sides a = ||B C_a||, b = ||A C_b||,
    c = ||AB||, gamma = ||C_a C_b|| are the sides a, b, c, c' through the
    translation table; angles alpha at A, beta at B."""
    cfg = _exterior_at_c(cfg)
    model = cfg.model
    if not (model.is_interior(cfg.A) and model.is_interior(cfg.B)) \
            or model.is_interior(cfg.C):
        raise KindMismatch("quadrilateral laws need A, B interior and C exterior")
    families, (a, b, c, ga) = _lengths(cfg, ("a", "b", "c", "c'"))
    al = ry.vertex_angle(model, cfg.A, cfg.B, cfg.Cb)
    be = ry.vertex_angle(model, cfg.B, cfg.A, cfg.Ca)
    return _laws("quadrilateral", families[:3] + "CC" + families[3],
                 (a, b, c, al, be, ga))

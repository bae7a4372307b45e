"""Triangle + polar triangle configurations and their centers.

A PolarTriangleConfig is built from a triangle ABC in general position with
respect to the absolute conic.  The build keeps eager only what can reject
a scene, or what every draw reads: the general-position checks, the sides,
the polar sides and polar vertices, the distinctness of the six vertices
and the conjugate side pairs.  Everything else is derived one way: on first
read, one group of slots at a time, by the groups of `_DERIVED`, so a
theorem pays only for the groups it reads and every check reads the same
coordinates.  Each group is a pure function of the eager slots, so reading
it early or late gives the same floats.  Two contracts:

* the incidence groups (conjugate points and lines, the orthic objects,
  the meets A0, B0, C0 of each side with its polar, the midpoint pairs of
  all six sides, the chosen midpoints) never raise on a scene the eager
  build accepted, which would change what a certificate counts: the
  midpoint groups test their endpoints exactly as the eager checks do, at
  the same tolerance, and tests pin this on drawn scenes of every kind;
* the isosceles flags, the complementary midpoint pairs, the magic triangle
  and the center reports (read through `classical()`, `pseudo()`, `euler()`
  and `nine_point()`) may raise `GeometryError`.  A raise leaves the slot
  unset, so the next read raises again.

The eager build is one pass with the tests, raises and floats of the kernel
functions it restates.  It forms M.X once per vertex, for its test against
the absolute (`point_on_conic`) and its polar; adj(M).l once per side, for
its pole and the conjugacy test of `lines_conjugate`; and the squared norm
of each of the six vertices once, for the coincidence tests of
`points_equal`.  It runs those on every pair but (A, B) and (B, C), which
the joins c and a test on the same operands.  In order: collinearity, the
vertices on the absolute, the joins, the polar vertices on the absolute,
the 13 pairs, then the conjugate side pairs.

The polar triangle T' is read, never rebuilt: `cfg.dual` reads and writes
the slots of the config through the swap A<->A', a<->a', A_b<->B_a,
A_c<->C_a, B_c<->C_b, mids_a<->mids_a', D<->D', D_a<->D_a' (and cyclically)
and complementary<->complementary_dual, fixing model and A0, B0, C0
(`_SWAP`).  Each group of T' is its group of T run on that view.

A config holds no tolerance: its build and every derived group read the
ambient one (`get_tol`), so a config is to be read under the tolerance it
was built under.  Inside the trial driver this holds: `lab.verify` runs
under its own tolerance, and the driver shares a config only among runs at
the tolerance it was drawn under.
"""

from __future__ import annotations

import math
from operator import attrgetter

from . import conics as cn
from . import metric as mt
from .errors import GeneralPositionViolation, GeometryError
from .projective import (
    HLine,
    HPoint,
    Quadrangle,
    collinearity_residual,
    cross_ratio,
    cross_ratio_points,
    incidence_residual,
    join_points,
    meet_lines,
    normalized,
    pascal_points,
    point_gap,
    points_equal,
)
from .tolerance import get_tol


# The coincidence tests of the build, in its order: every pair of the six
# vertices A, B, C, A', B', C' but (A, B) and (B, C), which the joins c and a
# test on the same operands.
_VERTEX_NAMES = ("A", "B", "C", "A'", "B'", "C'")
_PAIR_TESTS = tuple((i, j) for i in range(6) for j in range(i + 1, 6)
                    if (i, j) not in ((0, 1), (1, 2)))


class PolarTriangleConfig:
    """A triangle, its polar triangle and what they derive.

    Eager: model, A/B/C, the sides a/b/c, the polars ap/bp/cp, the
    poles Ap/Bp/Cp and conjugate_side_pairs.  Every other slot is filled on
    first read by its group in `_DERIVED`, under the module's two contracts.
    """

    __slots__ = (
        "model", "A", "B", "C", "a", "b", "c",
        "ap", "bp", "cp", "Ap", "Bp", "Cp",
        "A0", "B0", "C0",
        "Ab", "Ac", "Bc", "Ba", "Ca", "Cb",
        "aB", "aC", "bC", "bA", "cA", "cB",
        "mids_a", "mids_b", "mids_c", "mids_ap", "mids_bp", "mids_cp",
        "D", "E", "F", "Da", "Eb", "Fc",
        "Dp", "Ep", "Fp", "Dap", "Ebp", "Fcp",
        "ha", "hb", "hc", "H", "h", "HA", "HB", "HC",
        "A1", "B1", "C1",
        "conjugate_side_pairs",
        "iso_flags", "complementary", "complementary_dual", "magic",
        "_classical", "_pseudo", "_euler", "_nine_point",
    )

    def __init__(self, model, A, B, C):
        self.model = model
        self.A, self.B, self.C = A, B, C
        self._check_and_derive()

    # -- construction -----------------------------------------------------

    def _check_and_derive(self):
        t = get_tol()
        on = 1e3 * t
        phi = self.model.absolute
        A, B, C = self.A, self.B, self.C
        if collinearity_residual(A, B, C) <= t:
            raise GeneralPositionViolation("vertices are collinear")
        ms = []
        for name, v in (("A", A), ("B", B), ("C", C)):
            m = phi.apply(v)
            if abs(v[0] * m[0] + v[1] * m[1] + v[2] * m[2]) <= on:
                raise GeneralPositionViolation(f"vertex {name} lies on the absolute")
            ms.append(m)
        self.a = a = join_points(B, C)
        self.b = b = join_points(C, A)
        self.c = c = join_points(A, B)
        # the absolute is nondegenerate (`ModelGeometry`): polars and poles
        # need no test of it
        self.ap, self.bp, self.cp = (normalized(HLine, *m) for m in ms)
        (r0, r1, r2) = phi.adjugate()
        vs = [(r0[0] * l[0] + r0[1] * l[1] + r0[2] * l[2],
               r1[0] * l[0] + r1[1] * l[1] + r1[2] * l[2],
               r2[0] * l[0] + r2[1] * l[1] + r2[2] * l[2]) for l in (a, b, c)]
        self.Ap, self.Bp, self.Cp = poles = [normalized(HPoint, *v) for v in vs]
        for name, v in zip(("A'", "B'", "C'"), poles):
            m = phi.apply(v)
            if abs(v[0] * m[0] + v[1] * m[1] + v[2] * m[2]) <= on:
                raise GeneralPositionViolation(
                    f"polar vertex {name} on the absolute (tangent side)")
        # `points_equal` on each pair of _PAIR_TESTS, from squared norms
        # formed once per vertex
        verts = (A, B, C, *poles)
        norms = []
        for v0, v1, v2 in verts:
            p, q, r = abs(v0), abs(v1), abs(v2)
            norms.append(p * p + q * q + r * r)
        tt = t * t
        for i, j in _PAIR_TESTS:
            a0, a1, a2 = verts[i]
            b0, b1, b2 = verts[j]
            x = abs(a1 * b2 - a2 * b1)
            y = abs(a2 * b0 - a0 * b2)
            z = abs(a0 * b1 - a1 * b0)
            if x * x + y * y + z * z <= tt * norms[i] * norms[j]:
                raise GeneralPositionViolation(
                    f"vertices {_VERTEX_NAMES[i]} and {_VERTEX_NAMES[j]} coincide")
        # `lines_conjugate` of b, c; c, a; a, b on the raw poles of b, c, a
        pairs = []
        for pair, v, l in (("bc", vs[1], c), ("ca", vs[2], a), ("ab", vs[0], b)):
            scale = max(abs(v[0]), abs(v[1]), abs(v[2]))
            if abs(v[0] * l[0] + v[1] * l[1] + v[2] * l[2]) <= on * max(scale, 1e-300):
                pairs.append(pair)
        self.conjugate_side_pairs = tuple(pairs)

    def __getattr__(self, name):
        # called only for an unset slot: derive its group, then read it
        derive = _DERIVED.get(name)
        if derive is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        derive(self)
        return object.__getattribute__(self, name)

    def is_right_angled(self) -> bool:
        return len(self.conjugate_side_pairs) > 0

    def classical(self) -> CentersReport:
        return self._classical

    def pseudo(self) -> PseudoCenters:
        return self._pseudo

    def euler(self) -> EulerLine:
        return self._euler

    def nine_point(self) -> NinePointConic:
        return self._nine_point

    @property
    def dual(self) -> _Dual:
        """This config read as the config of the polar triangle T'."""
        return _Dual(self)


# The swap T <-> T': each name the dual view maps, and the slot it reads.
_PAIRS = (("A", "Ap"), ("B", "Bp"), ("C", "Cp"), ("a", "ap"), ("b", "bp"),
          ("c", "cp"), ("Ab", "Ba"), ("Ac", "Ca"), ("Bc", "Cb"),
          ("mids_a", "mids_ap"), ("mids_b", "mids_bp"), ("mids_c", "mids_cp"),
          ("D", "Dp"), ("E", "Ep"), ("F", "Fp"),
          ("Da", "Dap"), ("Eb", "Ebp"), ("Fc", "Fcp"),
          ("complementary", "complementary_dual"))
_SWAP = {"model": "model", "A0": "A0", "B0": "B0", "C0": "C0",
         **dict(_PAIRS), **{q: p for p, q in _PAIRS}}


class _Dual:
    """The config `dual` read and written through `_SWAP`: one property per
    mapped name, so a name the swap does not map is no attribute."""

    __slots__ = ("dual",)

    def __init__(self, cfg):
        self.dual = cfg


def _swapped(name):
    def write(view, value):
        setattr(view.dual, name, value)
    return property(attrgetter("dual." + name), write)


for _name, _partner in _SWAP.items():
    setattr(_Dual, _name, _swapped(_partner))


def build_config(model, A, B, C) -> PolarTriangleConfig:
    return PolarTriangleConfig(model, A, B, C)


def midpoint_assignments(pairs, avoid=None):
    """The noncollinear choices of one midpoint per side, in (i, j, k) bit
    order: yields ((i, j, k), (da[i], db[j], dc[k])).  A midpoint equal to
    its side's `avoid` point (when given) is never chosen."""
    t = get_tol()
    da, db, dc = pairs
    for i in range(2):
        if avoid and points_equal(da[i], avoid[0], t):
            continue
        for j in range(2):
            if avoid and points_equal(db[j], avoid[1], t):
                continue
            for k in range(2):
                if avoid and points_equal(dc[k], avoid[2], t):
                    continue
                trip = (da[i], db[j], dc[k])
                if collinearity_residual(*trip) > 1e3 * t:
                    yield (i, j, k), trip


def _choose_midpoints(pairs, avoid):
    """First assignment of one midpoint per side that avoids the prescribed
    points and is noncollinear; paper's selection procedure.

    Returns (D, E, F, Da, Eb, Fc) with Da/Eb/Fc the unchosen partners.
    """
    da, db, dc = pairs
    for (i, j, k), trip in midpoint_assignments(pairs, avoid):
        return (*trip, da[1 - i], db[1 - j], dc[1 - k])
    raise GeneralPositionViolation("no valid midpoint assignment found")


# -- groups derived on first read: each fills all of its slots ---------------

def _conjugate_points(cfg):
    # conjugate points of the vertices on the sides through them
    cfg.Ab = meet_lines(cfg.b, cfg.ap)
    cfg.Ac = meet_lines(cfg.c, cfg.ap)
    cfg.Bc = meet_lines(cfg.c, cfg.bp)
    cfg.Ba = meet_lines(cfg.a, cfg.bp)
    cfg.Ca = meet_lines(cfg.a, cfg.cp)
    cfg.Cb = meet_lines(cfg.b, cfg.cp)


def _orthic(cfg):
    A, B, C = cfg.A, cfg.B, cfg.C
    # conjugate lines of the sides at the vertices
    cfg.aB = join_points(B, cfg.Ap)
    cfg.aC = join_points(C, cfg.Ap)
    cfg.bC = join_points(C, cfg.Bp)
    cfg.bA = join_points(A, cfg.Bp)
    cfg.cA = join_points(A, cfg.Cp)
    cfg.cB = join_points(B, cfg.Cp)
    # altitudes, orthocenter, feet
    cfg.ha = join_points(A, cfg.Ap)
    cfg.hb = join_points(B, cfg.Bp)
    cfg.hc = join_points(C, cfg.Cp)
    cfg.H = meet_lines(cfg.ha, cfg.hb)
    cfg.h = cn.polar(cfg.model.absolute, cfg.H)
    cfg.HA = meet_lines(cfg.a, cfg.ha)
    cfg.HB = meet_lines(cfg.b, cfg.hb)
    cfg.HC = meet_lines(cfg.c, cfg.hc)
    cfg.A1 = meet_lines(cfg.bC, cfg.cB)
    cfg.B1 = meet_lines(cfg.cA, cfg.aC)
    cfg.C1 = meet_lines(cfg.aB, cfg.bA)


def _side_meets(cfg):
    # each side of T met by the polar of its opposite vertex, the side of
    # T' of the same name: A0 = a.a'
    cfg.A0 = meet_lines(cfg.a, cfg.ap)
    cfg.B0 = meet_lines(cfg.b, cfg.bp)
    cfg.C0 = meet_lines(cfg.c, cfg.cp)


# midpoint pairs (canonically ordered)
def _side_midpoints(cfg):
    model = cfg.model
    cfg.mids_a = mt.midpoints(model, cfg.B, cfg.C)
    cfg.mids_b = mt.midpoints(model, cfg.C, cfg.A)
    cfg.mids_c = mt.midpoints(model, cfg.A, cfg.B)


def _midpoint_choice(cfg):
    avoid = (cfg.A0, cfg.B0, cfg.C0)
    cfg.D, cfg.E, cfg.F, cfg.Da, cfg.Eb, cfg.Fc = _choose_midpoints(
        (cfg.mids_a, cfg.mids_b, cfg.mids_c), avoid)


def _isosceles_flags(cfg):
    """Isosceles test at each vertex: equality of the two conic cross
    ratios (B1B2AC) = (C1C2AB) under the best labeling."""
    t = get_tol()
    phi = cfg.model.absolute
    # each side with its traces on the absolute, met once for both vertices
    a, b, c = ((side, cn.line_conic_meet(phi, side).points)
               for side in (cfg.a, cfg.b, cfg.c))
    flags = []
    for vertex, (s1, (p1, p2)), (s2, (q1, q2)), v1, v2 in (
        (cfg.A, b, c, cfg.C, cfg.B),
        (cfg.B, c, a, cfg.A, cfg.C),
        (cfg.C, a, b, cfg.B, cfg.A),
    ):
        r1 = cross_ratio(p1, p2, vertex, v1, carrier=s1)
        best = math.inf
        for q in ((q1, q2), (q2, q1)):
            r2 = cross_ratio(q[0], q[1], vertex, v2, carrier=s2)
            best = min(best, abs(r1 - r2), abs(1.0 / r1 - r2))
        flags.append(best <= t)
    cfg.iso_flags = tuple(flags)


def _complementary(cfg):
    """Complementary midpoint pairs (G, Ga), (H, Hb), (I, Ic) of the sides
    a, b, c: midpoints of the conjugate-endpoint segments."""
    model = cfg.model
    cfg.complementary = (
        mt.midpoints(model, cfg.B, cfg.Ca),
        mt.midpoints(model, cfg.C, cfg.Ab),
        mt.midpoints(model, cfg.A, cfg.Bc),
    )


class MagicTriangle:
    __slots__ = ("a", "b", "c", "A", "B", "C", "pairs")


def _magic(cfg):
    """Sides a~ = B_c C_b, b~ = C_a A_c, c~ = A_b B_a, their vertices, and
    the midpoint pair of each side."""
    m = MagicTriangle()
    m.a = join_points(cfg.Bc, cfg.Cb)
    m.b = join_points(cfg.Ca, cfg.Ac)
    m.c = join_points(cfg.Ab, cfg.Ba)
    m.A = meet_lines(m.b, m.c)
    m.B = meet_lines(m.c, m.a)
    m.C = meet_lines(m.a, m.b)
    m.pairs = (
        mt.midpoints(cfg.model, cfg.Bc, cfg.Cb),
        mt.midpoints(cfg.model, cfg.Ca, cfg.Ac),
        mt.midpoints(cfg.model, cfg.Ab, cfg.Ba),
    )
    cfg.magic = m


# ---------------------------------------------------------------------------
# classical centers
# ---------------------------------------------------------------------------

class CentersReport:
    __slots__ = ("barycenters", "circumcenters", "incenters")

    def __init__(self):
        self.barycenters = []
        self.circumcenters = []
        self.incenters = []


def _classical_centers(cfg: PolarTriangleConfig):
    """Barycenters, circumcenters and incenters for every consistent
    midpoint assignment, with their concurrency residuals; the incenters of
    T are the circumcenters of T'.  Each join of a vertex with a midpoint is
    formed once per family, on the first assignment that reads it."""
    report = CentersReport()
    d = cfg.dual
    for tri, families in (
            (cfg, ((report.barycenters, (cfg.A, cfg.B, cfg.C)),
                   (report.circumcenters, (cfg.Ap, cfg.Bp, cfg.Cp)))),
            (d, ((report.incenters, (d.Ap, d.Bp, d.Cp)),))):
        joins = {}
        for bits, mids in midpoint_assignments(
                (tri.mids_a, tri.mids_b, tri.mids_c)):
            for f, (out, verts) in enumerate(families):
                lines = []
                for k, (v, m) in enumerate(zip(verts, mids)):
                    key = f, k, bits[k]
                    if key not in joins:
                        joins[key] = join_points(v, m)
                    lines.append(joins[key])
                la, lb, lc = lines
                p = meet_lines(la, lb)
                out.append((bits, p, incidence_residual(lc, p)))
    cfg._classical = report


# ---------------------------------------------------------------------------
# pseudo centers (double triangle, pseudomedians, pseudobisectors)
# ---------------------------------------------------------------------------

class PseudoCenters:
    __slots__ = (
        "App", "Bpp", "Cpp",
        "N", "NA", "NB", "NC", "P", "Np", "Pp",
        "residuals",
    )


def _pseudo_chain(cfg):
    """Double triangle, pseudomedians, pseudomidpoints and pseudobisectors
    of the triangle of `cfg` (T' on `cfg.dual`).

    Returns (A'', B'', C'', N, N_A, N_B, N_C, P, res_n, res_p).
    """
    A, B, C = cfg.A, cfg.B, cfg.C
    app = join_points(cfg.A0, A)
    bpp = join_points(cfg.B0, B)
    cpp = join_points(cfg.C0, C)
    App = meet_lines(bpp, cpp)
    Bpp = meet_lines(cpp, app)
    Cpp = meet_lines(app, bpp)
    na = join_points(A, App)
    nb = join_points(B, Bpp)
    nc = join_points(C, Cpp)
    N = meet_lines(na, nb)
    res_n = incidence_residual(nc, N)
    NA = meet_lines(na, cfg.a)
    NB = meet_lines(nb, cfg.b)
    NC = meet_lines(nc, cfg.c)
    pa = join_points(NA, cfg.Ap)
    pb = join_points(NB, cfg.Bp)
    pc = join_points(NC, cfg.Cp)
    P = meet_lines(pa, pb)
    res_p = incidence_residual(pc, P)
    return App, Bpp, Cpp, N, NA, NB, NC, P, res_n, res_p


def _pseudo_centers(cfg: PolarTriangleConfig):
    out = PseudoCenters()
    res = {}
    (out.App, out.Bpp, out.Cpp, out.N, out.NA, out.NB, out.NC, out.P,
     res["pseudomedians"], res["pseudobisectors"]) = _pseudo_chain(cfg)
    (_, _, _, out.Np, _, _, _, out.Pp,
     res["pseudomedians_dual"], res["pseudobisectors_dual"]) = _pseudo_chain(
        cfg.dual)
    # A A1, B B1, C C1 pass through P; primed versions through P'
    ones = (cfg.A1, cfg.B1, cfg.C1)
    for name, verts, p in (
            ("AA1_through_P", (cfg.A, cfg.B, cfg.C), out.P),
            ("ApA1_through_Pp", (cfg.Ap, cfg.Bp, cfg.Cp), out.Pp)):
        res[name] = max(incidence_residual(join_points(v, v1), p)
                        for v, v1 in zip(verts, ones))
    # A, A0 are the midpoints of B''C'' (harmonic against the double side)
    res["vertices_midpoints_of_double"] = max(
        abs(cross_ratio_points(out.Bpp, out.Cpp, cfg.A, cfg.A0) + 1.0),
        abs(cross_ratio_points(out.Cpp, out.App, cfg.B, cfg.B0) + 1.0),
        abs(cross_ratio_points(out.App, out.Bpp, cfg.C, cfg.C0) + 1.0),
    )
    # A', A'', A1 collinear
    res["Ap_App_A1"] = max(
        collinearity_residual(cfg.Ap, out.App, cfg.A1),
        collinearity_residual(cfg.Bp, out.Bpp, cfg.B1),
        collinearity_residual(cfg.Cp, out.Cpp, cfg.C1),
    )
    # each altitude is conjugate to the opposite side of the pseudomedial
    # triangle and of A1B1C1
    phi = cfg.model.absolute
    alts = (cfg.ha, cfg.hb, cfg.hc)
    for name, tri in (("ha_conj_NBNC", (out.NA, out.NB, out.NC)),
                      ("ha_conj_B1C1", ones)):
        res[name] = max(
            0.0 if cn.lines_conjugate(phi, alts[k], join_points(
                tri[(k + 1) % 3], tri[(k + 2) % 3])) else 1.0
            for k in range(3))
    out.residuals = res
    cfg._pseudo = out


# ---------------------------------------------------------------------------
# Euler-Wildberger line and orthic axis
# ---------------------------------------------------------------------------

class EulerLine:
    __slots__ = ("line", "orthic_axis", "residuals")


def _euler_wildberger(cfg: PolarTriangleConfig):
    ps = cfg.pseudo()
    out = EulerLine()
    e = join_points(cfg.H, ps.N)
    out.line = e
    res = {
        "five_point_collinearity": max(
            incidence_residual(e, ps.Np),
            incidence_residual(e, ps.P),
            incidence_residual(e, ps.Pp),
        )
    }
    # orthic axis: trilinear polar of H
    p1 = meet_lines(cfg.a, join_points(cfg.HB, cfg.HC))
    p2 = meet_lines(cfg.b, join_points(cfg.HC, cfg.HA))
    p3 = meet_lines(cfg.c, join_points(cfg.HA, cfg.HB))
    o = join_points(p1, p2)
    res["orthic_axis_collinear"] = incidence_residual(o, p3)
    pole_o = cn.pole(cfg.model.absolute, o)
    res["orthic_pole_is_Np"] = point_gap(pole_o, ps.Np)
    res["e_perp_orthic"] = incidence_residual(e, pole_o)
    out.orthic_axis = o
    out.residuals = res
    cfg._euler = out


# ---------------------------------------------------------------------------
# nine-point conic
# ---------------------------------------------------------------------------

class NinePointConic:
    __slots__ = ("conic", "points", "residuals")


def _nine_point_conic(cfg: PolarTriangleConfig):
    """The eleven-point conic of the quadrangle {A, B, C, H} and the polar h
    of the orthocenter, carrying the nine classical members.

    Feet of altitudes are the diagonal points of the quadrangle; the
    pseudomidpoints enter through the harmonic-conjugate lemma; L_A, L_B, L_C
    come from the R-point quadrangle construction.  The Euler-Wildberger
    line is checked to be the Pascal line of the hexagon
    HA NB HC NA HB NC.
    """
    ps = cfg.pseudo()
    eu = cfg.euler()
    out = NinePointConic()
    res = {}
    quad = Quadrangle(cfg.A, cfg.B, cfg.C, cfg.H)
    gamma, eleven = cn.eleven_point_conic(quad, cfg.h)
    # R-point quadrangles for the harmonic conjugates on the altitudes
    ra = join_points(cfg.A0, cfg.H)
    rb = join_points(cfg.B0, cfg.H)
    rc = join_points(cfg.C0, cfg.H)
    R_ab = meet_lines(ra, cfg.b)
    R_ba = meet_lines(rb, cfg.a)
    R_bc = meet_lines(rb, cfg.c)
    R_cb = meet_lines(rc, cfg.b)
    R_ca = meet_lines(rc, cfg.a)
    R_ac = meet_lines(ra, cfg.c)
    LC = meet_lines(join_points(R_ab, R_ba), cfg.hc)
    LA = meet_lines(join_points(R_bc, R_cb), cfg.ha)
    LB = meet_lines(join_points(R_ca, R_ac), cfg.hb)
    nine = (cfg.HA, cfg.HB, cfg.HC, ps.NA, ps.NB, ps.NC, LA, LB, LC)
    res["nine_on_conic"] = max(cn.conic_residual(gamma, p) for p in nine)
    res["eleven_on_conic"] = max(cn.conic_residual(gamma, p) for p in eleven)
    # Pascal line of the hexagon HA NB HC NA HB NC is the Euler line
    hexagon = (cfg.HA, ps.NB, cfg.HC, ps.NA, cfg.HB, ps.NC)
    res["pascal_on_euler"] = max(incidence_residual(eu.line, p)
                                 for p in pascal_points(hexagon))
    out.conic = gamma
    out.points = nine
    out.residuals = res
    cfg._nine_point = out


# ---------------------------------------------------------------------------
# invariants exposed for the harness
# ---------------------------------------------------------------------------

def midpoint_quadrilateral_residual(mids_a, mids_b, mids_c) -> float:
    """Max collinearity residual of the four triples of side midpoints that
    form the sides of the midpoint quadrilateral.

    Exactly four of the eight one-midpoint-per-side assignments are
    collinear (the sides of the quadrilateral); which four depends on the
    geometry, so all eight are measured and the four smallest must all
    vanish.
    """
    residuals = sorted(
        collinearity_residual(mids_a[i], mids_b[j], mids_c[k])
        for i in range(2) for j in range(2) for k in range(2)
    )
    return residuals[3]


def experimental_conjectures(cfg: PolarTriangleConfig):
    """The three experimental nine-point claims; reported, never gated."""
    phi = cfg.model.absolute
    ps = cfg.pseudo()
    eu = cfg.euler()
    np_ = cfg.nine_point()
    gamma = np_.conic
    report = {}
    m1, m2 = mt.midpoints(cfg.model, cfg.H, ps.P)
    e_pole = cn.pole(phi, eu.line)
    # (1) {m1, m2, pole(e)} self-polar for the absolute and for gamma
    def self_polar_residual(conic):
        r = 0.0
        tri = (m1, m2, e_pole)
        for i in range(3):
            side = join_points(tri[(i + 1) % 3], tri[(i + 2) % 3])
            r = max(r, point_gap(cn.pole(conic, side), tri[i]))
        return r
    try:
        report["self_polar_absolute"] = self_polar_residual(phi)
        report["self_polar_gamma"] = self_polar_residual(gamma)
    except GeometryError as exc:  # degenerate gamma etc.
        report["self_polar_error"] = repr(exc)
    # (2) e is a symmetry axis of gamma: the harmonic homology with axis e
    # and center pole(e) w.r.t. the absolute maps gamma to itself
    def axis_symmetry(center):
        # gamma against its image under the symmetry, at 8 sample points
        worst = 0.0
        for s in cn.sample_conic_points(gamma, 8):
            worst = max(worst, cn.conic_residual(gamma,
                        mt.point_symmetry(cfg.model, center, s)))
        return worst
    try:
        report["axis_symmetry"] = axis_symmetry(e_pole)
    except GeometryError as exc:
        report["axis_symmetry_error"] = repr(exc)
    # (3) ellipse case: center of gamma is a midpoint of HP, and the
    # orthogonal line to e through the center is another symmetry axis
    rows = gamma.real_rows()
    is_ellipse = False
    if rows is not None and gamma.klass != cn.DEGENERATE:
        det2 = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        is_ellipse = det2 > 0
    report["gamma_is_ellipse"] = is_ellipse
    if is_ellipse:
        center = cn.pole(gamma, HLine(0j, 0j, 1 + 0j))
        report["center_is_HP_midpoint"] = min(
            point_gap(center, m1), point_gap(center, m2))
        try:
            axis2 = join_points(center, e_pole)  # perpendicular to e
            report["second_axis_symmetry"] = axis_symmetry(cn.pole(phi, axis2))
        except GeometryError as exc:
            report["second_axis_error"] = repr(exc)
    return report


# -- the slots derived on first read, by the group that fills them ----------
# A0, B0, C0 are a group of their own: the midpoint choices of T and T' and
# the coherent orientation read them, and derive no orthic object.

def _on_dual(group):
    """The group of T' that `group` is of T: `group` run on the dual view."""
    return lambda cfg: group(cfg.dual)


_DERIVED = {name: group for group, names in (
    (_conjugate_points, ("Ab", "Ac", "Bc", "Ba", "Ca", "Cb")),
    (_orthic, ("aB", "aC", "bC", "bA", "cA", "cB",
               "ha", "hb", "hc", "H", "h", "HA", "HB", "HC",
               "A1", "B1", "C1")),
    (_side_meets, ("A0", "B0", "C0")),
    (_side_midpoints, ("mids_a", "mids_b", "mids_c")),
    (_on_dual(_side_midpoints), ("mids_ap", "mids_bp", "mids_cp")),
    (_midpoint_choice, ("D", "E", "F", "Da", "Eb", "Fc")),
    (_on_dual(_midpoint_choice), ("Dp", "Ep", "Fp", "Dap", "Ebp", "Fcp")),
    # these may raise GeometryError and leave their slots unset
    (_isosceles_flags, ("iso_flags",)),
    (_complementary, ("complementary",)),
    (_on_dual(_complementary), ("complementary_dual",)),
    (_magic, ("magic",)),
    (_classical_centers, ("_classical",)),
    (_pseudo_centers, ("_pseudo",)),
    (_euler_wildberger, ("_euler",)),
    (_nine_point_conic, ("_nine_point",)),
) for name in names}

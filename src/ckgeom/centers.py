"""Triangle + polar triangle configurations and their centers.

A PolarTriangleConfig eagerly derives, from a triangle ABC in general
position with respect to the absolute conic, every named object used by the
center theorems: polar sides and vertices, conjugate points and lines, the
midpoint pairs of all six sides and altitudes/orthocenter/feet.  The
isosceles flags and the center operations (classical centers, pseudo
centers, Euler line, nine-point conic) are computed once on demand and
cached so all downstream residual checks reference identical coordinates.
"""

from __future__ import annotations

import math

from . import conics as cn
from . import metric as mt
from .errors import GeneralPositionViolation
from .projective import (
    HLine,
    Quadrangle,
    collinearity_residual,
    concurrency_residual,
    cross_ratio,
    cross_ratio_points,
    incidence_residual,
    join_points,
    meet_lines,
    point_gap,
    points_equal,
)
from .tolerance import get_tol


class PolarTriangleConfig:
    __slots__ = (
        "model", "tol",
        "A", "B", "C", "a", "b", "c",
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
        "_cache",
    )

    def __init__(self, model, A, B, C, tol=None):
        self.model = model
        self.tol = get_tol() if tol is None else tol
        self.A, self.B, self.C = A, B, C
        self._check_and_derive()
        self._cache = {}

    # -- construction -----------------------------------------------------

    def _check_and_derive(self):
        t = self.tol
        model = self.model
        phi = model.absolute
        A, B, C = self.A, self.B, self.C
        if collinearity_residual(A, B, C) <= t:
            raise GeneralPositionViolation("vertices are collinear")
        for name, v in (("A", A), ("B", B), ("C", C)):
            if model.on_absolute(v, t):
                raise GeneralPositionViolation(f"vertex {name} lies on the absolute")
        self.a = join_points(B, C)
        self.b = join_points(C, A)
        self.c = join_points(A, B)
        self.ap = cn.polar(phi, A)
        self.bp = cn.polar(phi, B)
        self.cp = cn.polar(phi, C)
        self.Ap = cn.pole(phi, self.a)
        self.Bp = cn.pole(phi, self.b)
        self.Cp = cn.pole(phi, self.c)
        for name, v in (("A'", self.Ap), ("B'", self.Bp), ("C'", self.Cp)):
            if model.on_absolute(v, t):
                raise GeneralPositionViolation(
                    f"polar vertex {name} on the absolute (tangent side)")
        verts = (("A", A), ("B", B), ("C", C),
                 ("A'", self.Ap), ("B'", self.Bp), ("C'", self.Cp))
        for i in range(6):
            for j in range(i + 1, 6):
                if points_equal(verts[i][1], verts[j][1], t):
                    raise GeneralPositionViolation(
                        f"vertices {verts[i][0]} and {verts[j][0]} coincide")
        # conjugate points of the vertices on the sides through them
        self.Ab = meet_lines(self.b, self.ap)
        self.Ac = meet_lines(self.c, self.ap)
        self.Bc = meet_lines(self.c, self.bp)
        self.Ba = meet_lines(self.a, self.bp)
        self.Ca = meet_lines(self.a, self.cp)
        self.Cb = meet_lines(self.b, self.cp)
        # conjugate lines of the sides at the vertices
        self.aB = join_points(B, self.Ap)
        self.aC = join_points(C, self.Ap)
        self.bC = join_points(C, self.Bp)
        self.bA = join_points(A, self.Bp)
        self.cA = join_points(A, self.Cp)
        self.cB = join_points(B, self.Cp)
        self.A0 = meet_lines(self.a, self.ap)
        self.B0 = meet_lines(self.b, self.bp)
        self.C0 = meet_lines(self.c, self.cp)
        # altitudes, orthocenter, feet
        self.ha = join_points(A, self.Ap)
        self.hb = join_points(B, self.Bp)
        self.hc = join_points(C, self.Cp)
        self.H = meet_lines(self.ha, self.hb)
        self.h = cn.polar(phi, self.H)
        self.HA = meet_lines(self.a, self.ha)
        self.HB = meet_lines(self.b, self.hb)
        self.HC = meet_lines(self.c, self.hc)
        self.A1 = meet_lines(self.bC, self.cB)
        self.B1 = meet_lines(self.cA, self.aC)
        self.C1 = meet_lines(self.aB, self.bA)
        # midpoint pairs (canonically ordered)
        self.mids_a = mt.midpoints(model, B, C, tol=t)
        self.mids_b = mt.midpoints(model, C, A, tol=t)
        self.mids_c = mt.midpoints(model, A, B, tol=t)
        self.mids_ap = mt.midpoints(model, self.Bp, self.Cp, tol=t)
        self.mids_bp = mt.midpoints(model, self.Cp, self.Ap, tol=t)
        self.mids_cp = mt.midpoints(model, self.Ap, self.Bp, tol=t)
        self.D, self.E, self.F, self.Da, self.Eb, self.Fc = _choose_midpoints(
            (self.mids_a, self.mids_b, self.mids_c),
            (self.A0, self.B0, self.C0), t)
        self.Dp, self.Ep, self.Fp, self.Dap, self.Ebp, self.Fcp = \
            _choose_midpoints(
                (self.mids_ap, self.mids_bp, self.mids_cp),
                (self.A0, self.B0, self.C0), t)
        self.conjugate_side_pairs = self._conjugate_sides()

    def _conjugate_sides(self):
        phi = self.model.absolute
        pairs = []
        if cn.lines_conjugate(phi, self.b, self.c, self.tol):
            pairs.append("bc")
        if cn.lines_conjugate(phi, self.c, self.a, self.tol):
            pairs.append("ca")
        if cn.lines_conjugate(phi, self.a, self.b, self.tol):
            pairs.append("ab")
        return tuple(pairs)

    def is_right_angled(self) -> bool:
        return len(self.conjugate_side_pairs) > 0

    def _isosceles_flags(self):
        """Isosceles test at each vertex: equality of the two conic cross
        ratios (B1B2AC) = (C1C2AB) under the best labeling."""
        t = self.tol
        phi = self.model.absolute
        flags = []
        for vertex, s1, s2, v1, v2 in (
            (self.A, self.b, self.c, self.C, self.B),
            (self.B, self.c, self.a, self.A, self.C),
            (self.C, self.a, self.b, self.B, self.A),
        ):
            p1, p2 = cn.line_conic_meet(phi, s1, tol=t).points
            q1, q2 = cn.line_conic_meet(phi, s2, tol=t).points
            r1 = cross_ratio(p1, p2, vertex, v1, carrier=s1, check=False)
            best = math.inf
            for q in ((q1, q2), (q2, q1)):
                r2 = cross_ratio(q[0], q[1], vertex, v2, carrier=s2, check=False)
                best = min(best, abs(r1 - r2), abs(1.0 / r1 - r2))
            flags.append(best <= t)
        return tuple(flags)

    # -- cached derivations -------------------------------------------------

    @property
    def iso_flags(self):
        if "iso_flags" not in self._cache:
            self._cache["iso_flags"] = self._isosceles_flags()
        return self._cache["iso_flags"]

    def classical(self):
        if "classical" not in self._cache:
            self._cache["classical"] = _classical_centers(self)
        return self._cache["classical"]

    def pseudo(self):
        if "pseudo" not in self._cache:
            self._cache["pseudo"] = _pseudo_centers(self)
        return self._cache["pseudo"]

    def euler(self):
        if "euler" not in self._cache:
            self._cache["euler"] = _euler_wildberger(self)
        return self._cache["euler"]

    def nine_point(self):
        if "nine_point" not in self._cache:
            self._cache["nine_point"] = _nine_point_conic(self)
        return self._cache["nine_point"]


def build_config(model, A, B, C, tol=None) -> PolarTriangleConfig:
    return PolarTriangleConfig(model, A, B, C, tol=tol)


def midpoint_assignments(pairs, t, avoid=None):
    """The noncollinear choices of one midpoint per side, in (i, j, k) bit
    order: yields ((i, j, k), (da[i], db[j], dc[k])).  A midpoint equal to
    its side's `avoid` point (when given) is never chosen."""
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


def _choose_midpoints(pairs, avoid, t):
    """First assignment of one midpoint per side that avoids the prescribed
    points and is noncollinear; paper's selection procedure.

    Returns (D, E, F, Da, Eb, Fc) with Da/Eb/Fc the unchosen partners.
    """
    da, db, dc = pairs
    for (i, j, k), trip in midpoint_assignments(pairs, t, avoid):
        return (*trip, da[1 - i], db[1 - j], dc[1 - k])
    raise GeneralPositionViolation("no valid midpoint assignment found")


# ---------------------------------------------------------------------------
# classical centers
# ---------------------------------------------------------------------------

class CentersReport:
    __slots__ = (
        "orthocenter", "barycenters", "circumcenters", "incenters",
        "pseudo_spieker", "N", "Np", "P", "Pp", "euler_line", "orthic_axis",
        "residuals",
    )

    def __init__(self):
        self.orthocenter = None
        self.barycenters = []
        self.circumcenters = []
        self.incenters = []
        self.pseudo_spieker = None
        self.N = None
        self.Np = None
        self.P = None
        self.Pp = None
        self.euler_line = None
        self.orthic_axis = None
        self.residuals = {}


def _classical_centers(cfg: PolarTriangleConfig):
    """Barycenters, circumcenters and incenters for every consistent
    midpoint assignment, with their concurrency residuals."""
    t = cfg.tol
    report = CentersReport()
    report.orthocenter = cfg.H
    report.residuals["orthocenter"] = incidence_residual(cfg.hc, cfg.H)
    for bits, (d, e, f) in midpoint_assignments(
            (cfg.mids_a, cfg.mids_b, cfg.mids_c), t):
        med_a = join_points(cfg.A, d)
        med_b = join_points(cfg.B, e)
        med_c = join_points(cfg.C, f)
        g = meet_lines(med_a, med_b)
        report.barycenters.append((bits, g, incidence_residual(med_c, g)))
        bis_a = join_points(cfg.Ap, d)
        bis_b = join_points(cfg.Bp, e)
        bis_c = join_points(cfg.Cp, f)
        o = meet_lines(bis_a, bis_b)
        report.circumcenters.append((bits, o, incidence_residual(bis_c, o)))
    for bits, (d, e, f) in midpoint_assignments(
            (cfg.mids_ap, cfg.mids_bp, cfg.mids_cp), t):
        ang_a = join_points(cfg.A, d)
        ang_b = join_points(cfg.B, e)
        ang_c = join_points(cfg.C, f)
        i = meet_lines(ang_a, ang_b)
        report.incenters.append((bits, i, incidence_residual(ang_c, i)))
    return report


def classical_centers(cfg: PolarTriangleConfig) -> CentersReport:
    return cfg.classical()


def pseudo_spieker(cfg: PolarTriangleConfig):
    """Concurrency point of DD', EE', FF' with its residual."""
    dd = join_points(cfg.D, cfg.Dp)
    ee = join_points(cfg.E, cfg.Ep)
    ff = join_points(cfg.F, cfg.Fp)
    s = meet_lines(dd, ee)
    return s, incidence_residual(ff, s)


# ---------------------------------------------------------------------------
# pseudo centers (double triangle, pseudomedians, pseudobisectors)
# ---------------------------------------------------------------------------

class PseudoCenters:
    __slots__ = (
        "App", "Bpp", "Cpp", "napp", "nbpp", "ncpp",
        "N", "NA", "NB", "NC", "P", "Np", "NpA", "NpB", "NpC", "Pp",
        "residuals",
    )


def _pseudo_chain(cfg, A, B, C, a, b, c, poleA, poleB, poleC):
    """Double triangle, pseudomedians, pseudomidpoints and pseudobisectors
    for the triangle (A, B, C); poleX is the pole of the side x.

    Returns (A'', B'', C'', N, N_A, N_B, N_C, P, residuals dict).
    """
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
    NA = meet_lines(na, a)
    NB = meet_lines(nb, b)
    NC = meet_lines(nc, c)
    pa = join_points(NA, poleA)
    pb = join_points(NB, poleB)
    pc = join_points(NC, poleC)
    P = meet_lines(pa, pb)
    res_p = incidence_residual(pc, P)
    return App, Bpp, Cpp, N, NA, NB, NC, P, res_n, res_p


def _pseudo_centers(cfg: PolarTriangleConfig) -> PseudoCenters:
    out = PseudoCenters()
    res = {}
    (out.App, out.Bpp, out.Cpp, out.N, out.NA, out.NB, out.NC, out.P,
     res["pseudomedians"], res["pseudobisectors"]) = _pseudo_chain(
        cfg, cfg.A, cfg.B, cfg.C, cfg.a, cfg.b, cfg.c,
        cfg.Ap, cfg.Bp, cfg.Cp)
    (_, _, _, out.Np, out.NpA, out.NpB, out.NpC, out.Pp,
     res["pseudomedians_dual"], res["pseudobisectors_dual"]) = _pseudo_chain(
        cfg, cfg.Ap, cfg.Bp, cfg.Cp, cfg.ap, cfg.bp, cfg.cp,
        cfg.A, cfg.B, cfg.C)
    # A A1, B B1, C C1 pass through P; primed versions through P'
    res["AA1_through_P"] = max(
        incidence_residual(join_points(cfg.A, cfg.A1), out.P),
        incidence_residual(join_points(cfg.B, cfg.B1), out.P),
        incidence_residual(join_points(cfg.C, cfg.C1), out.P),
    )
    res["ApA1_through_Pp"] = max(
        incidence_residual(join_points(cfg.Ap, cfg.A1), out.Pp),
        incidence_residual(join_points(cfg.Bp, cfg.B1), out.Pp),
        incidence_residual(join_points(cfg.Cp, cfg.C1), out.Pp),
    )
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
    # altitudes orthogonal to the pseudomedial triangle and to A1B1C1
    phi = cfg.model.absolute
    res["ha_conj_NBNC"] = max(
        0.0 if cn.lines_conjugate(phi, cfg.ha, join_points(out.NB, out.NC)) else 1.0,
        0.0 if cn.lines_conjugate(phi, cfg.hb, join_points(out.NC, out.NA)) else 1.0,
        0.0 if cn.lines_conjugate(phi, cfg.hc, join_points(out.NA, out.NB)) else 1.0,
    )
    res["ha_conj_B1C1"] = max(
        0.0 if cn.lines_conjugate(phi, cfg.ha, join_points(cfg.B1, cfg.C1)) else 1.0,
        0.0 if cn.lines_conjugate(phi, cfg.hb, join_points(cfg.C1, cfg.A1)) else 1.0,
        0.0 if cn.lines_conjugate(phi, cfg.hc, join_points(cfg.A1, cfg.B1)) else 1.0,
    )
    out.residuals = res
    return out


def pseudo_centers(cfg: PolarTriangleConfig) -> PseudoCenters:
    return cfg.pseudo()


# ---------------------------------------------------------------------------
# Euler-Wildberger line and orthic axis
# ---------------------------------------------------------------------------

class EulerLine:
    __slots__ = ("line", "orthic_axis", "orthic_pole", "residuals")


def _euler_wildberger(cfg: PolarTriangleConfig) -> EulerLine:
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
    out.orthic_pole = pole_o
    out.residuals = res
    return out


def euler_wildberger(cfg: PolarTriangleConfig) -> EulerLine:
    return cfg.euler()


# ---------------------------------------------------------------------------
# nine-point conic
# ---------------------------------------------------------------------------

class NinePointConic:
    __slots__ = ("conic", "points", "pascal_points", "residuals")


def _nine_point_conic(cfg: PolarTriangleConfig) -> NinePointConic:
    """The eleven-point conic of the quadrangle {A, B, C, H} and the polar h
    of the orthocenter, carrying the nine classical members.

    Feet of altitudes are the diagonal points of the quadrangle; the
    pseudomidpoints enter through the harmonic-conjugate lemma; L_A, L_B, L_C
    come from the R-point quadrangle construction.  The Euler-Wildberger
    line is checked to be the Pascal line of the hexagon
    HA NB HC NA HB NC.
    """
    t = cfg.tol
    ps = cfg.pseudo()
    eu = cfg.euler()
    out = NinePointConic()
    res = {}
    quad = Quadrangle(cfg.A, cfg.B, cfg.C, cfg.H, tol=t)
    gamma, eleven = cn.eleven_point_conic(quad, cfg.h, tol=t)
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
    pas = []
    for i in range(3):
        s1 = join_points(hexagon[i], hexagon[(i + 1) % 6])
        s2 = join_points(hexagon[(i + 3) % 6], hexagon[(i + 4) % 6])
        pas.append(meet_lines(s1, s2))
    res["pascal_on_euler"] = max(incidence_residual(eu.line, p) for p in pas)
    out.conic = gamma
    out.points = nine
    out.pascal_points = tuple(pas)
    out.residuals = res
    return out


def nine_point_conic(cfg: PolarTriangleConfig) -> NinePointConic:
    return cfg.nine_point()


# ---------------------------------------------------------------------------
# invariants exposed for the harness
# ---------------------------------------------------------------------------

def midpoint_quadrilateral_residual(mids_a, mids_b, mids_c, t=None) -> float:
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


def concurrency_graph_residual(cfg: PolarTriangleConfig) -> float:
    """All six pairwise perspectivities of T, T', (1/2)T, (1/2)T'."""
    pairs = (
        ((cfg.A, cfg.B, cfg.C), (cfg.Ap, cfg.Bp, cfg.Cp)),
        ((cfg.A, cfg.B, cfg.C), (cfg.D, cfg.E, cfg.F)),
        ((cfg.Ap, cfg.Bp, cfg.Cp), (cfg.Dp, cfg.Ep, cfg.Fp)),
        ((cfg.D, cfg.E, cfg.F), (cfg.Dp, cfg.Ep, cfg.Fp)),
        ((cfg.A, cfg.B, cfg.C), (cfg.Dp, cfg.Ep, cfg.Fp)),
        ((cfg.Ap, cfg.Bp, cfg.Cp), (cfg.D, cfg.E, cfg.F)),
    )
    worst = 0.0
    for (u1, u2, u3), (v1, v2, v3) in pairs:
        l1 = join_points(u1, v1)
        l2 = join_points(u2, v2)
        l3 = join_points(u3, v3)
        worst = max(worst, concurrency_residual(l1, l2, l3))
    return worst


def experimental_conjectures(cfg: PolarTriangleConfig):
    """The three experimental nine-point claims; reported, never gated."""
    t = cfg.tol
    phi = cfg.model.absolute
    ps = cfg.pseudo()
    eu = cfg.euler()
    np_ = cfg.nine_point()
    gamma = np_.conic
    report = {}
    m1, m2 = mt.midpoints(cfg.model, cfg.H, ps.P, tol=t)
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
    except Exception as exc:  # degenerate gamma etc.
        report["self_polar_error"] = repr(exc)
    # (2) e is a symmetry axis of gamma: the harmonic homology with axis e
    # and center pole(e) w.r.t. the absolute maps gamma to itself
    try:
        samples = cn.sample_conic_points(gamma, 8, tol=t)
        worst = 0.0
        for s in samples:
            worst = max(worst, cn.conic_residual(gamma,
                        mt.point_symmetry(cfg.model, e_pole, s, tol=t)))
        report["axis_symmetry"] = worst
    except Exception as exc:
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
            axis2 = mt.perpendicular_through(cfg.model, eu.line, center)
            pole2 = cn.pole(phi, axis2)
            worst = 0.0
            for s in cn.sample_conic_points(gamma, 8, tol=t):
                worst = max(worst, cn.conic_residual(gamma,
                            mt.point_symmetry(cfg.model, pole2, s, tol=t)))
            report["second_axis_symmetry"] = worst
        except Exception as exc:
            report["second_axis_error"] = repr(exc)
    return report

"""Randomized theorem-certification harness.

Every theorem in the library is registered here as a residual function over
reproducible random scenes.  Scene streams come from the Philox-4x64-10
counter-based generator: trial i of a run keyed by `seed` draws from
Philox(key=seed, counter=[0,0,0,i]), so certificates are reproducible
cross-platform (and cross-language, given the same Philox variant).

Each check accepts a `perturb` displacement: a designated hypothesis point
is nudged by that amount in the chart before the final residual is taken,
which guards the whole suite against vacuous checks.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import centers as ce
from . import conics as cn
from . import metric as mt
from . import rays as ry
from . import trig as tg
from .errors import GeometryError, SamplingExhausted, UnknownTheorem
from .projective import (
    HPoint,
    Quadrangle,
    collinearity_residual,
    concurrency_residual,
    hpoint,
    incidence_residual,
    join_points,
    meet_lines,
    affine_point,
    point_gap,
)
from .tolerance import get_tol

HYPERBOLIC = mt.HYPERBOLIC
ELLIPTIC = mt.ELLIPTIC

RETRY_CAP = 1000
MIN_SEPARATION = 1e-4

_MODELS = {}


def model_for(geometry: str) -> mt.ModelGeometry:
    if geometry not in _MODELS:
        _MODELS[geometry] = (mt.hyperbolic_model() if geometry == HYPERBOLIC
                             else mt.elliptic_model())
    return _MODELS[geometry]


class SceneSpec:
    """Reproducible scene request: (seed, geometry, kind)."""

    __slots__ = ("seed", "geometry", "kind")

    def __init__(self, seed, geometry=HYPERBOLIC, kind="generic"):
        self.seed = int(seed)
        self.geometry = geometry
        self.kind = kind


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    bits = np.random.Philox(key=np.uint64(seed),
                            counter=[0, 0, 0, np.uint64(trial)])
    return np.random.Generator(bits)


class Certificate:
    __slots__ = ("theorem_id", "geometry", "seed", "trials", "max_residual",
                 "failures", "tolerance", "wall_time", "report_only")

    def __init__(self, theorem_id, geometry, seed, trials, max_residual,
                 failures, tolerance, wall_time, report_only=False):
        self.theorem_id = theorem_id
        self.geometry = geometry
        self.seed = seed
        self.trials = trials
        self.max_residual = max_residual
        self.failures = failures
        self.tolerance = tolerance
        self.wall_time = wall_time
        self.report_only = report_only

    @property
    def passed(self) -> bool:
        if self.report_only:
            return True
        return not self.failures and self.max_residual <= self.tolerance

    def to_dict(self):
        return {
            "theorem": self.theorem_id,
            "geometry": self.geometry,
            "seed": self.seed,
            "trials": self.trials,
            "max_residual": self.max_residual,
            "failures": list(self.failures),
            "tolerance": self.tolerance,
            "wall_time": self.wall_time,
            "report_only": self.report_only,
            "passed": self.passed,
        }


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _interior_point(rng, radius=0.9) -> HPoint:
    while True:
        x = rng.uniform(-radius, radius)
        y = rng.uniform(-radius, radius)
        if x * x + y * y < radius * radius:
            return affine_point(x, y)


def _exterior_point(rng, annulus=(1.1, 3.0)) -> HPoint:
    ang = rng.uniform(0.0, 2.0 * math.pi)
    r = rng.uniform(*annulus)
    return affine_point(r * math.cos(ang), r * math.sin(ang))


# the acceptance tests read the chart gap under this name
_chart_gap = point_gap


def _well_separated(points, floor=MIN_SEPARATION) -> bool:
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            if point_gap(points[i], points[j]) < floor:
                return False
    return True


def _triangle_margin(a, b, c, floor=MIN_SEPARATION) -> bool:
    return abs(collinearity_residual(a, b, c)) > floor


def nudge(p: HPoint, eps: float) -> HPoint:
    """Displace a point by eps in the chart (identity when eps == 0)."""
    if eps == 0.0:
        return p
    return hpoint(p[0] + eps * p[2], p[1] + 0.5 * eps * p[2], p[2])


def _sample_points(rng, n, radius=0.9):
    """n points in the disk of the given radius: interior for hyperbolic,
    and model points for elliptic too (the whole plane is the model)."""
    return [_interior_point(rng, radius) for _ in range(n)]


def random_triangle_config(rng, geometry, kind="generic", tol=None):
    """A general-position PolarTriangleConfig of the requested kind.

    Kinds: generic, interior, ext1, ext2, ext3, quadrilateral, hexagon,
    isosceles, right:<elliptic|hyp-right|lambert|pentagon>.
    """
    model = model_for(geometry)
    for _ in range(RETRY_CAP):
        try:
            cfg = _try_triangle(rng, model, geometry, kind, tol)
        except GeometryError:
            continue
        if cfg is not None:
            return cfg
    raise SamplingExhausted(f"no {kind} scene after {RETRY_CAP} attempts")


_SCENE_SEPARATION = 0.05
_SCENE_MARGIN = 0.01


def _conditioned(pts) -> bool:
    # the nominal guard floor is MIN_SEPARATION; the sweep tolerances assume
    # this stronger one (see the decisions ledger)
    return (_well_separated(pts, _SCENE_SEPARATION)
            and abs(collinearity_residual(*pts)) > _SCENE_MARGIN)


def _try_triangle(rng, model, geometry, kind, tol):
    if kind in ("generic", "interior"):
        pts = _sample_points(rng, 3)
        if not _conditioned(pts):
            return None
        cfg = ce.build_config(model, *pts, tol=tol)
        return None if cfg.is_right_angled() else cfg
    if kind in ("ext1", "ext2", "ext3", "quadrilateral", "hexagon"):
        if geometry != HYPERBOLIC:
            raise UnknownTheorem(f"kind {kind} needs the hyperbolic model")
        if kind == "hexagon":
            return _try_hexagon(rng, model, tol)
        n_ext = {"ext1": 1, "ext2": 2, "ext3": 3, "quadrilateral": 1}[kind]
        pts = ([_interior_point(rng) for _ in range(3 - n_ext)]
               + [_exterior_point(rng) for _ in range(n_ext)])
        if not _conditioned(pts):
            return None
        cfg = ce.build_config(model, *pts, tol=tol)
        if cfg.is_right_angled():
            return None
        if kind == "quadrilateral" and \
                tg.classify_generalized(cfg) != tg.QUADRILATERAL_2R:
            return None
        return cfg
    if kind == "isosceles":
        ang = rng.uniform(0.0, 2.0 * math.pi)
        e = (math.cos(ang), math.sin(ang))
        f = (-math.sin(ang), math.cos(ang))
        u0 = rng.uniform(-0.8, 0.8)
        u1 = rng.uniform(-0.8, 0.8)
        v1 = rng.uniform(0.1, 0.7)
        if math.hypot(u0, 0) > 0.9 or math.hypot(u1, v1) > 0.88:
            return None
        A = affine_point(u0 * e[0], u0 * e[1])
        B = affine_point(u1 * e[0] + v1 * f[0], u1 * e[1] + v1 * f[1])
        C = affine_point(u1 * e[0] - v1 * f[0], u1 * e[1] - v1 * f[1])
        if not (_well_separated([A, B, C]) and _triangle_margin(A, B, C)):
            return None
        cfg = ce.build_config(model, A, B, C, tol=tol)
        return None if cfg.is_right_angled() else cfg
    if kind.startswith("right:"):
        return _try_right_angled(rng, model, geometry, kind.split(":", 1)[1], tol)
    raise UnknownTheorem(f"unknown scene kind {kind}")


def _try_hexagon(rng, model, tol):
    ths = _spaced_angles(rng, 6)
    def chord(t1, t2):
        return join_points(affine_point(math.cos(t1), math.sin(t1)),
                           affine_point(math.cos(t2), math.sin(t2)))
    a = chord(ths[0], ths[1])
    b = chord(ths[2], ths[3])
    c = chord(ths[4], ths[5])
    A = meet_lines(b, c)
    B = meet_lines(c, a)
    C = meet_lines(a, b)
    if not _well_separated([A, B, C]):
        return None
    cfg = ce.build_config(model, A, B, C, tol=tol)
    if cfg.is_right_angled() or tg.classify_generalized(cfg) != tg.HEXAGON:
        return None
    return cfg


def _try_right_angled(rng, model, geometry, subkind, tol):
    """Right angle canonically at A: C is placed on the line joining A with
    the pole of AB, at a parameter scanned for the requested figure kind."""
    want = {
        "elliptic": tg.ELLIPTIC_RIGHT,
        "hyp-right": tg.HYPERBOLIC_RIGHT,
        "lambert": tg.LAMBERT,
        "pentagon": tg.PENTAGON,
    }[subkind]
    A = _interior_point(rng)
    B = _exterior_point(rng) if subkind == "pentagon" else _interior_point(rng)
    if point_gap(A, B) < MIN_SEPARATION:
        return None
    side_c = join_points(A, B)
    pc = cn.pole(model.absolute, side_c)
    for _ in range(40):
        t = rng.uniform(-4.0, 4.0)
        try:
            C = hpoint(A[0] + t * pc[0], A[1] + t * pc[1], A[2] + t * pc[2])
        except ValueError:
            continue
        if not _well_separated([A, B, C]) or not _triangle_margin(A, B, C):
            continue
        # cheap position pre-checks before paying for a full config build;
        # each is a necessary condition of right_angled_kind
        if geometry == HYPERBOLIC:
            ci = model.is_interior(C)
            bi = model.is_interior(B)
            if subkind == "hyp-right" and not ci:
                continue
            if subkind == "lambert" and (bi == ci):
                continue
            if subkind == "pentagon" and (
                    ci or model.line_status(join_points(B, C)) != cn.SECANT):
                continue
        try:
            cfg = ce.build_config(model, A, B, C, tol=tol)
        except GeometryError:
            continue
        if tg.right_angled_kind(cfg) == want:
            return cfg
    return None


def random_scene(spec: SceneSpec, trial: int = 0, tol=None):
    """The deterministic scene of a spec: same spec and trial, same scene."""
    rng = trial_rng(spec.seed, trial)
    return random_triangle_config(rng, spec.geometry, spec.kind, tol=tol)


def oracle_cross_ratio(a, b, c, d, tol=None):
    """Affine-chart evaluation of the cross ratio, used only as an oracle
    against the determinant implementation.

    The chart is the coordinate with the largest least modulus across the
    four points; a point at chart infinity falls back to the harmonic-ratio
    form (ABCD) = [AC]/[BC].
    """
    from .errors import ChartDegenerate
    t = get_tol() if tol is None else tol
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


# ---------------------------------------------------------------------------
# theorem checks
# ---------------------------------------------------------------------------

def _chk_desargues(rng, geometry, tol, perturb=0.0):
    # forward: triangles perspective from a point -> side meets collinear
    O = _interior_point(rng, 2.0)
    tri1 = [_interior_point(rng, 2.5) for _ in range(3)]
    tri2 = []
    for v in tri1:
        t = rng.uniform(0.3, 2.0)
        tri2.append(hpoint(v[0] + t * O[0], v[1] + t * O[1], v[2] + t * O[2]))
    if not (_triangle_margin(*tri1) and _triangle_margin(*tri2)):
        return None
    tri2[2] = nudge(tri2[2], perturb)
    meets = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        meets.append(meet_lines(join_points(tri1[i], tri1[j]),
                                join_points(tri2[i], tri2[j])))
    forward = collinearity_residual(*meets)
    # backward: side meets on a given axis -> perspective from a point
    axis = join_points(_exterior_point(rng), _exterior_point(rng, (3.2, 4.0)))
    A, B, C = tri1
    p1 = meet_lines(join_points(A, B), axis)
    p2 = meet_lines(join_points(B, C), axis)
    p3 = meet_lines(join_points(C, A), axis)
    A2 = _interior_point(rng, 2.5)
    s = rng.uniform(0.2, 1.5)
    B2 = hpoint(A2[0] + s * p1[0], A2[1] + s * p1[1], A2[2] + s * p1[2])
    C2 = meet_lines(join_points(B2, p2), join_points(A2, p3))
    backward = concurrency_residual(join_points(A, A2), join_points(B, B2),
                                    join_points(C, C2))
    return max(forward, backward)


def _spaced_angles(rng, n, margin=0.15):
    """n increasing angles around the circle with a guaranteed minimum gap
    of 4 pi margin / n (one jittered angle per sector; no rejection)."""
    base = rng.uniform(0.0, 2.0 * math.pi)
    span = 1.0 - 2.0 * margin
    return [base + 2.0 * math.pi * (i + margin + span * rng.uniform(0, 1)) / n
            for i in range(n)]


def _random_bounded_conic(rng):
    """A well-conditioned random real conic: the unit circle under a mild
    random affine map (rotation, anisotropic scaling, translation)."""
    ang = rng.uniform(0.0, 2.0 * math.pi)
    sx = rng.uniform(0.6, 1.8)
    sy = rng.uniform(0.6, 1.8)
    cx = rng.uniform(-0.5, 0.5)
    cy = rng.uniform(-0.5, 0.5)
    ca, sa = math.cos(ang), math.sin(ang)

    def image(t):
        x, y = math.cos(t), math.sin(t)
        x, y = sx * x, sy * y
        return affine_point(ca * x - sa * y + cx, sa * x + ca * y + cy)

    return image


def _chk_pascal(rng, geometry, tol, perturb=0.0):
    image = _random_bounded_conic(rng)
    ths = _spaced_angles(rng, 6)
    pts = [image(t) for t in ths]
    hexagon = [pts[i] for i in (0, 3, 1, 4, 2, 5)]
    hexagon[5] = nudge(hexagon[5], perturb)
    meets = []
    for i in range(3):
        s1 = join_points(hexagon[i], hexagon[(i + 1) % 6])
        s2 = join_points(hexagon[(i + 3) % 6], hexagon[(i + 4) % 6])
        meets.append(meet_lines(s1, s2))
    return collinearity_residual(*meets)


def _conic_from_bounded(rng):
    image = _random_bounded_conic(rng)
    ths = _spaced_angles(rng, 5)
    return cn.conic_fit([image(t) for t in ths], rank_check=False)


def _chk_chasles(rng, geometry, tol, perturb=0.0):
    conic = _conic_from_bounded(rng)
    if conic is None or conic.is_degenerate():
        return None
    tri = [_interior_point(rng, 2.0) for _ in range(3)]
    if not (_well_separated(tri, 0.05) and
            abs(collinearity_residual(*tri)) > 0.01):
        return None
    try:
        poles = [cn.pole(conic, join_points(tri[(i + 1) % 3], tri[(i + 2) % 3]))
                 for i in range(3)]
    except GeometryError:
        return None
    poles[0] = nudge(poles[0], perturb)
    lines = [join_points(tri[i], poles[i]) for i in range(3)]
    return concurrency_residual(*lines)


def _chk_pappus_involution(rng, geometry, tol, perturb=0.0):
    pts = [_interior_point(rng, 1.5) for _ in range(4)]
    from .projective import quadrangular_involution
    try:
        q = Quadrangle(*pts)
        line = join_points(_exterior_point(rng), _exterior_point(rng, (3.2, 4.5)))
        sigma = quadrangular_involution(q, line)
    except GeometryError:
        return None
    pairs = []
    for s1, s2 in q.opposite_side_pairs():
        pairs.append((meet_lines(s1, line), meet_lines(s2, line)))
    x3, y3 = pairs[2]
    x3 = nudge(x3, perturb)
    res = point_gap(sigma.apply(x3), y3)
    # involutivity spot check on the first trace
    res = max(res, point_gap(sigma.apply(sigma.apply(pairs[0][0])),
                             pairs[0][0]))
    return res


def _cfg_kind_cycle(geometry, trial_hint=0):
    kinds = ["generic"]
    if geometry == HYPERBOLIC:
        kinds = ["generic", "ext1", "ext2", "ext3"]
    return kinds[trial_hint % len(kinds)]


def _chk_altitudes(rng, geometry, tol, perturb=0.0):
    cfg = random_triangle_config(rng, geometry, "generic", tol=tol)
    ha = join_points(nudge(cfg.A, perturb), cfg.Ap)
    return concurrency_residual(ha, cfg.hb, cfg.hc)


def _chk_midpoint_quadrilateral(rng, geometry, tol, perturb=0.0):
    cfg = random_triangle_config(rng, geometry, "generic", tol=tol)
    mids_a = (nudge(cfg.mids_a[0], perturb), cfg.mids_a[1])
    return ce.midpoint_quadrilateral_residual(mids_a, cfg.mids_b, cfg.mids_c)


def _tangent_triangle(rng, model, n_tangent, tol):
    """Triangle with n sides tangent to the absolute (hyperbolic only).

    All three lines are anchored on the boundary circle (tangency points for
    the tangent sides, well separated chords for the rest), which keeps the
    exterior vertices bounded and the midpoint computations conditioned.
    """
    for _ in range(80):
        n_angles = n_tangent + 2 * (3 - n_tangent)
        ths = _spaced_angles(rng, n_angles, margin=0.25)
        order = rng.permutation(n_angles)
        angles = [ths[i] for i in order]
        lines = []
        for _k in range(n_tangent):
            t0 = angles.pop()
            lines.append(cn.tangent_line(
                model.absolute, affine_point(math.cos(t0), math.sin(t0))))
        while len(lines) < 3:
            t1 = angles.pop()
            t2 = angles.pop()
            lines.append(join_points(affine_point(math.cos(t1), math.sin(t1)),
                                     affine_point(math.cos(t2), math.sin(t2))))
        try:
            A = meet_lines(lines[1], lines[2])
            B = meet_lines(lines[2], lines[0])
            C = meet_lines(lines[0], lines[1])
        except GeometryError:
            continue
        if not (_well_separated([A, B, C], 0.05)
                and abs(collinearity_residual(A, B, C)) > 0.02):
            continue
        for v in (A, B, C):
            if model.on_absolute(v):
                break
        else:
            return A, B, C
    return None


def _chk_midpoint_quadrilateral_tangent(rng, geometry, tol, perturb=0.0):
    if geometry != HYPERBOLIC:
        return _chk_midpoint_quadrilateral(rng, geometry, tol, perturb)
    model = model_for(geometry)
    n_tangent = 1 + int(rng.integers(0, 3))
    got = _tangent_triangle(rng, model, n_tangent, tol)
    if got is None:
        return None
    A, B, C = got
    try:
        mids_a = mt.midpoints(model, B, C, tol=tol)
        mids_b = mt.midpoints(model, C, A, tol=tol)
        mids_c = mt.midpoints(model, A, B, tol=tol)
    except GeometryError:
        return None
    mids_a = (nudge(mids_a[0], perturb), mids_a[1])
    return ce.midpoint_quadrilateral_residual(mids_a, mids_b, mids_c)


def _center_residual(kind):
    def check(rng, geometry, tol, perturb=0.0):
        cfg = random_triangle_config(rng, geometry, "generic", tol=tol)
        rep = cfg.classical()
        if kind == "medians":
            groups = rep.barycenters
            lines = lambda d, e, f: (join_points(cfg.A, d), join_points(cfg.B, e),
                                     join_points(cfg.C, f))
            pairs = (cfg.mids_a, cfg.mids_b, cfg.mids_c)
        elif kind == "side_bisectors":
            groups = rep.circumcenters
            lines = lambda d, e, f: (join_points(cfg.Ap, d), join_points(cfg.Bp, e),
                                     join_points(cfg.Cp, f))
            pairs = (cfg.mids_a, cfg.mids_b, cfg.mids_c)
        else:
            groups = rep.incenters
            lines = lambda d, e, f: (join_points(cfg.A, d), join_points(cfg.B, e),
                                     join_points(cfg.C, f))
            pairs = (cfg.mids_ap, cfg.mids_bp, cfg.mids_cp)
        worst = max(g[2] for g in groups)
        if perturb:
            bits = groups[0][0]
            d = nudge(pairs[0][bits[0]], perturb)
            l1, l2, l3 = lines(d, pairs[1][bits[1]], pairs[2][bits[2]])
            worst = max(worst, concurrency_residual(l1, l2, l3))
        return worst
    return check


def _chk_pseudo_spieker(rng, geometry, tol, perturb=0.0):
    cfg = random_triangle_config(rng, geometry, "generic", tol=tol)
    dd = join_points(nudge(cfg.D, perturb), cfg.Dp)
    ee = join_points(cfg.E, cfg.Ep)
    ff = join_points(cfg.F, cfg.Fp)
    return concurrency_residual(dd, ee, ff)


def _chk_pseudomedians(rng, geometry, tol, perturb=0.0):
    cfg = random_triangle_config(rng, geometry, "generic", tol=tol)
    ps = cfg.pseudo()
    worst = max(ps.residuals["pseudomedians"], ps.residuals["pseudomedians_dual"],
                ps.residuals["vertices_midpoints_of_double"],
                ps.residuals["Ap_App_A1"], ps.residuals["ha_conj_NBNC"])
    if perturb:
        nc = join_points(nudge(cfg.C, perturb), ps.Cpp)
        worst = max(worst, incidence_residual(nc, ps.N))
    return worst


def _chk_pseudobisectors(rng, geometry, tol, perturb=0.0):
    cfg = random_triangle_config(rng, geometry, "generic", tol=tol)
    ps = cfg.pseudo()
    worst = max(ps.residuals["pseudobisectors"],
                ps.residuals["pseudobisectors_dual"],
                ps.residuals["AA1_through_P"], ps.residuals["ApA1_through_Pp"],
                ps.residuals["ha_conj_B1C1"])
    if perturb:
        pc = join_points(nudge(ps.NC, perturb), cfg.Cp)
        worst = max(worst, incidence_residual(pc, ps.P))
    return worst


def _chk_euler(rng, geometry, tol, perturb=0.0):
    cfg = random_triangle_config(rng, geometry, "generic", tol=tol)
    eu = cfg.euler()
    worst = eu.residuals["five_point_collinearity"]
    worst = max(worst, eu.residuals["e_perp_orthic"])
    if perturb:
        ps = cfg.pseudo()
        worst = max(worst, incidence_residual(eu.line, nudge(ps.Pp, perturb)))
    return worst


def _chk_orthic_pole(rng, geometry, tol, perturb=0.0):
    cfg = random_triangle_config(rng, geometry, "generic", tol=tol)
    eu = cfg.euler()
    worst = max(eu.residuals["orthic_axis_collinear"],
                eu.residuals["orthic_pole_is_Np"])
    if perturb:
        p1 = meet_lines(cfg.a, join_points(nudge(cfg.HB, perturb), cfg.HC))
        p2 = meet_lines(cfg.b, join_points(cfg.HC, cfg.HA))
        o = join_points(p1, p2)
        ps = cfg.pseudo()
        worst = max(worst, point_gap(cn.pole(cfg.model.absolute, o), ps.Np))
    return worst


def _chk_nine_point(rng, geometry, tol, perturb=0.0):
    cfg = random_triangle_config(rng, geometry, "generic", tol=tol)
    npc = cfg.nine_point()
    worst = max(npc.residuals["nine_on_conic"], npc.residuals["eleven_on_conic"])
    if perturb:
        worst = max(worst, cn.conic_residual(npc.conic,
                                             nudge(npc.points[0], perturb)))
    return worst


def _chk_pascal_hexagon(rng, geometry, tol, perturb=0.0):
    cfg = random_triangle_config(rng, geometry, "generic", tol=tol)
    npc = cfg.nine_point()
    worst = npc.residuals["pascal_on_euler"]
    if perturb:
        ps = cfg.pseudo()
        eu = cfg.euler()
        hexagon = (cfg.HA, nudge(ps.NB, perturb), cfg.HC, ps.NA, cfg.HB, ps.NC)
        for i in range(3):
            s1 = join_points(hexagon[i], hexagon[(i + 1) % 6])
            s2 = join_points(hexagon[(i + 3) % 6], hexagon[(i + 4) % 6])
            worst = max(worst, incidence_residual(eu.line, meet_lines(s1, s2)))
    return worst


def _chk_eleven_point(rng, geometry, tol, perturb=0.0):
    pts = [_interior_point(rng, 1.4) for _ in range(4)]
    if not _well_separated(pts):
        return None
    try:
        q = Quadrangle(*pts)
        line = join_points(_exterior_point(rng), _exterior_point(rng, (3.2, 4.5)))
        conic, eleven = cn.eleven_point_conic(q, line)
    except GeometryError:
        return None
    worst = max(cn.conic_residual(conic, p) for p in eleven)
    if perturb:
        worst = max(worst, cn.conic_residual(conic, nudge(eleven[2], perturb)))
    return worst


def _chk_six_points(rng, geometry, tol, perturb=0.0):
    cfg = random_triangle_config(rng, geometry, "generic", tol=tol)
    conic, res = tg.six_points_conic_check(cfg)
    if perturb:
        res = max(res, cn.conic_residual(conic, nudge(cfg.Cb, perturb)))
    return res


def _chk_complementary_conic(rng, geometry, tol, perturb=0.0):
    cfg = random_triangle_config(rng, geometry, "generic", tol=tol)
    conic, fit_res, carnot_res, coll = tg.complementary_midpoints_conic(cfg)
    worst = max(fit_res, carnot_res, coll)
    if perturb:
        (g, ga), _, _ = tg.complementary_pairs(cfg)
        worst = max(worst, cn.conic_residual(conic, nudge(g, perturb)))
    return worst


def _chk_magic(rng, geometry, tol, perturb=0.0):
    cfg = random_triangle_config(rng, geometry, "generic", tol=tol)
    worst = tg.magic_midpoints_agreement(cfg)
    if perturb:
        m = tg.magic_triangle(cfg)
        pair = (nudge(m.pairs[0][0], perturb), m.pairs[0][1])
        s_pair = mt.midpoints(cfg.model, m.B, m.C, tol=cfg.tol)
        worst = max(worst, tg._set_gap(pair, s_pair))
    return worst


def _right_kind_for(geometry, hint):
    if geometry == ELLIPTIC:
        return "right:elliptic"
    return ("right:hyp-right", "right:lambert", "right:pentagon")[hint % 3]


def _chk_squared_identity(name):
    def check(rng, geometry, tol, perturb=0.0):
        hint = int(rng.integers(0, 3))
        cfg = random_triangle_config(rng, geometry, _right_kind_for(geometry, hint), tol=tol)
        res = tg.squared_identity(name, cfg)
        if perturb:
            c, s, t = mt.squared_trig(cfg.model, nudge(cfg.B, perturb), cfg.C)
            res = max(res, abs(c - mt.squared_trig(cfg.model, cfg.B, cfg.C)[0]))
        return res
    return check


def _chk_table51(rng, geometry, tol, perturb=0.0):
    hint = int(rng.integers(0, 3))
    cfg = random_triangle_config(rng, geometry, _right_kind_for(geometry, hint), tol=tol)
    rows = tg.table_5_1(cfg)
    return max(r[3] for r in rows)


def _chk_law_sines_sq(rng, geometry, tol, perturb=0.0):
    kind = _cfg_kind_cycle(geometry, int(rng.integers(0, 4)))
    cfg = random_triangle_config(rng, geometry, kind, tol=tol)
    _, spread = tg.squared_law_of_sines(cfg)
    return spread


def _chk_law_cosines_sq(rng, geometry, tol, perturb=0.0):
    kind = _cfg_kind_cycle(geometry, int(rng.integers(0, 4)))
    cfg = random_triangle_config(rng, geometry, kind, tol=tol)
    res, matches = tg.squared_law_of_cosines(cfg)
    if matches != 1:
        return 1.0
    r1, r2, m2 = tg.cosine_split_lemma(cfg)
    if m2 != 1:
        return 1.0
    return max(res, r1, r2)


def _chk_carnot_projective(rng, geometry, tol, perturb=0.0):
    conic = _conic_from_bounded(rng)
    if conic is None or conic.is_degenerate():
        return None
    tri = [_interior_point(rng, 2.2) for _ in range(3)]
    if not (_well_separated(tri, 0.05) and
            abs(collinearity_residual(*tri)) > 0.01):
        return None
    p = _exterior_point(rng)
    q = _exterior_point(rng, (3.2, 4.4))
    transversal = join_points(p, q)
    try:
        res, six = tg.carnot_projective_residual(*tri, conic, transversal)
        if perturb:
            # move X0 off the transversal: X0, Y0, Z0 are no longer collinear
            X, Y, Z = tri
            moved = join_points(nudge(p, perturb), q)
            res = abs(tg.carnot_product(
                X, Y, Z,
                meet_lines(join_points(Y, Z), moved),
                meet_lines(join_points(Z, X), transversal),
                meet_lines(join_points(X, Y), transversal),
                *six) - 1.0)
    except GeometryError:
        return None
    return res


def _chk_carnot_hyperbolic(rng, geometry, tol, perturb=0.0):
    cfg = random_triangle_config(rng, HYPERBOLIC, "generic", tol=tol)
    if not all(cfg.model.is_interior(v) for v in (cfg.A, cfg.B, cfg.C)):
        return None
    hstar = _interior_point(rng, 0.8)
    astar, bstar, cstar = tg.concurrent_carnot_points(cfg, hstar)
    if not all(cfg.model.is_interior(p) for p in (astar, bstar, cstar)):
        return None
    astar = nudge(astar, perturb)
    lhs, rhs = tg.carnot_hyperbolic_sides(cfg, astar, bstar, cstar)
    forward = abs(lhs - rhs) / max(1.0, abs(lhs))
    cc = tg.carnot_cosines(cfg, astar, bstar, cstar)
    forward = max(forward, cc.identity_residual if perturb == 0 else 0.0)
    # backward: a generic non-concurrent triple must fail by a clear margin
    def interior_on(p, q):
        for _ in range(60):
            s = rng.uniform(-1.0, 1.0)
            x = hpoint(p[0] + s * q[0], p[1] + s * q[1], p[2] + s * q[2])
            if cfg.model.is_interior(x):
                return x
        return None
    a2 = interior_on(cfg.B, cfg.C)
    b2 = interior_on(cfg.C, cfg.A)
    c2 = interior_on(cfg.A, cfg.B)
    if a2 is None or b2 is None or c2 is None:
        return None
    cc2 = tg.carnot_cosines(cfg, a2, b2, c2)
    if cc2.concurrency_residual > 1e-3:
        lhs2, rhs2 = tg.carnot_hyperbolic_sides(cfg, a2, b2, c2)
        if abs(lhs2 - rhs2) <= 1e-6:
            return 1.0
    return forward


def _chk_carnot_elliptic(rng, geometry, tol, perturb=0.0):
    cfg = random_triangle_config(rng, ELLIPTIC, "generic", tol=tol)
    def on_side(p, q):
        s = rng.uniform(-1.0, 1.0)
        return hpoint(p[0] + s * q[0], p[1] + s * q[1], p[2] + s * q[2])
    bstar = on_side(cfg.C, cfg.A)
    cstar = on_side(cfg.A, cfg.B)
    try:
        fake, dstar = tg.fake_carnot_points(cfg, bstar, cstar)
    except GeometryError:
        return None
    from .projective import points_equal
    if points_equal(fake, dstar, 1e-6):
        return None
    fake = nudge(fake, perturb)
    cc = tg.carnot_cosines(cfg, fake, bstar, cstar)
    lhs, rhs = tg.carnot_elliptic_sides(cfg, fake, bstar, cstar)
    res = max(cc.identity_residual, abs(lhs - rhs) / max(1.0, abs(lhs)))
    if perturb == 0.0 and cc.concurrency_residual <= 1e-6:
        return 1.0  # fake points must NOT be concurrent
    # concurrent direction for the same scene
    hstar = _interior_point(rng, 0.8)
    a3, b3, c3 = tg.concurrent_carnot_points(cfg, hstar)
    cc3 = tg.carnot_cosines(cfg, a3, b3, c3)
    lhs3, rhs3 = tg.carnot_elliptic_sides(cfg, a3, b3, c3)
    res = max(res, cc3.identity_residual, abs(lhs3 - rhs3) / max(1.0, abs(lhs3)))
    return res


def _chk_carnot_hexagon(rng, geometry, tol, perturb=0.0):
    cfg = random_triangle_config(rng, HYPERBOLIC, "hexagon", tol=tol)
    hstar = _interior_point(rng, 0.75)
    astar, bstar, cstar = tg.concurrent_carnot_points(cfg, hstar)
    if not all(cfg.model.is_interior(p) for p in (astar, bstar, cstar)):
        return None
    astar = nudge(astar, perturb)
    lhs, rhs = tg.carnot_hexagon_sides(cfg, astar, bstar, cstar)
    res = abs(lhs - rhs) / max(1.0, abs(lhs))
    cc = tg.carnot_cosines(cfg, astar, bstar, cstar)
    return max(res, cc.identity_residual if perturb == 0.0 else 0.0)


_ORIENT_KINDS = ("generic", "quadrilateral", "hexagon")


def _orient_kind_for(rng, geometry):
    if geometry == ELLIPTIC:
        return "generic"
    return _ORIENT_KINDS[int(rng.integers(0, len(_ORIENT_KINDS)))]


def _chk_projective_sines(rng, geometry, tol, perturb=0.0):
    kind = _orient_kind_for(rng, geometry)
    cfg = random_triangle_config(rng, geometry, kind, tol=tol)
    o = tg.coherent_orientation(cfg)
    _, spread = tg.projective_law_of_sines(o)
    return spread


def _chk_projective_cosines(rng, geometry, tol, perturb=0.0):
    kind = _orient_kind_for(rng, geometry)
    cfg = random_triangle_config(rng, geometry, kind, tol=tol)
    o = tg.coherent_orientation(cfg)
    worst = 0.0
    for side in "abc":
        for dual in (False, True):
            worst = max(worst, tg.projective_law_of_cosines(o, side, dual))
    return worst


def _chk_ray_angles(rng, geometry, tol, perturb=0.0):
    model = model_for(HYPERBOLIC)
    o = _interior_point(rng, 0.7)
    p = _interior_point(rng, 0.85)
    q = _interior_point(rng, 0.85)
    if point_gap(o, p) < 1e-2 or point_gap(o, q) < 1e-2:
        return None
    try:
        r1 = ry.ray_towards(model, o, p)
        r2 = ry.ray_towards(model, o, nudge(q, perturb))
        ang = ry.angle_between_rays(model, r1, r2)
        c1 = ry.ray_cosine_opposite(model, r1, r2)
        c2 = ry.ray_cosine_conjugate(model, r1, r2)
        r2b = ry.Ray(r2.origin, r2.carrier,
                     ry._other_trace(model, r2, model.absolute, tol or get_tol()))
        supp = ry.angle_between_rays(model, r1, r2b)
    except GeometryError:
        return None
    res = max(abs(c1 - math.cos(ang)), abs(c2 - c1),
              abs(ang + supp - math.pi))
    if perturb:
        res = max(res, abs(math.cos(ang) - math.cos(
            ry.vertex_angle(model, o, p, q))))
    return res


def _chk_conjectures(rng, geometry, tol, perturb=0.0):
    cfg = random_triangle_config(rng, geometry, "generic", tol=tol)
    rep = ce.experimental_conjectures(cfg)
    vals = [v for v in rep.values() if isinstance(v, float)]
    return max(vals) if vals else 0.0


THEOREMS = {
    "desargues": (_chk_desargues, (HYPERBOLIC, ELLIPTIC), False),
    "pascal": (_chk_pascal, (HYPERBOLIC, ELLIPTIC), False),
    "chasles": (_chk_chasles, (HYPERBOLIC, ELLIPTIC), False),
    "pappus_involution": (_chk_pappus_involution, (HYPERBOLIC, ELLIPTIC), False),
    "altitudes": (_chk_altitudes, (HYPERBOLIC, ELLIPTIC), False),
    "midpoint_quadrilateral": (_chk_midpoint_quadrilateral_tangent,
                               (HYPERBOLIC, ELLIPTIC), False),
    "medians": (_center_residual("medians"), (HYPERBOLIC, ELLIPTIC), False),
    "side_bisectors": (_center_residual("side_bisectors"),
                       (HYPERBOLIC, ELLIPTIC), False),
    "angle_bisectors": (_center_residual("angle_bisectors"),
                        (HYPERBOLIC, ELLIPTIC), False),
    "pseudo_spieker": (_chk_pseudo_spieker, (HYPERBOLIC, ELLIPTIC), False),
    "pseudomedians": (_chk_pseudomedians, (HYPERBOLIC, ELLIPTIC), False),
    "pseudobisectors": (_chk_pseudobisectors, (HYPERBOLIC, ELLIPTIC), False),
    "euler_wildberger": (_chk_euler, (HYPERBOLIC, ELLIPTIC), False),
    "orthic_axis_pole": (_chk_orthic_pole, (HYPERBOLIC, ELLIPTIC), False),
    "nine_point_conic": (_chk_nine_point, (HYPERBOLIC, ELLIPTIC), False),
    "pascal_line_hexagon": (_chk_pascal_hexagon, (HYPERBOLIC, ELLIPTIC), False),
    "eleven_point_conic": (_chk_eleven_point, (HYPERBOLIC, ELLIPTIC), False),
    "six_points_conic": (_chk_six_points, (HYPERBOLIC, ELLIPTIC), False),
    "complementary_midpoints_conic": (_chk_complementary_conic,
                                      (HYPERBOLIC, ELLIPTIC), False),
    "magic_midpoints": (_chk_magic, (HYPERBOLIC, ELLIPTIC), False),
    "t1": (_chk_squared_identity("T1"), (HYPERBOLIC, ELLIPTIC), False),
    "t2": (_chk_squared_identity("T2"), (HYPERBOLIC, ELLIPTIC), False),
    "t3": (_chk_squared_identity("T3"), (HYPERBOLIC, ELLIPTIC), False),
    "t4": (_chk_squared_identity("T4"), (HYPERBOLIC, ELLIPTIC), False),
    "t5": (_chk_squared_identity("T5"), (HYPERBOLIC, ELLIPTIC), False),
    "t6": (_chk_squared_identity("T6"), (HYPERBOLIC, ELLIPTIC), False),
    "table_5_1": (_chk_table51, (HYPERBOLIC, ELLIPTIC), False),
    "law_sines_sq": (_chk_law_sines_sq, (HYPERBOLIC, ELLIPTIC), False),
    "law_cosines_sq": (_chk_law_cosines_sq, (HYPERBOLIC, ELLIPTIC), False),
    "carnot_projective": (_chk_carnot_projective, (HYPERBOLIC, ELLIPTIC), False),
    "carnot_elliptic": (_chk_carnot_elliptic, (ELLIPTIC,), False),
    "carnot_hyperbolic_iff": (_chk_carnot_hyperbolic, (HYPERBOLIC,), False),
    "carnot_hexagon": (_chk_carnot_hexagon, (HYPERBOLIC,), False),
    "projective_sines": (_chk_projective_sines, (HYPERBOLIC, ELLIPTIC), False),
    "projective_cosines": (_chk_projective_cosines, (HYPERBOLIC, ELLIPTIC), False),
    "ray_angles": (_chk_ray_angles, (HYPERBOLIC,), False),
    "conjectures": (_chk_conjectures, (HYPERBOLIC, ELLIPTIC), True),
}

INCIDENCE_THEOREMS = (
    "desargues", "pascal", "chasles", "pappus_involution", "altitudes",
    "midpoint_quadrilateral", "medians", "side_bisectors", "angle_bisectors",
    "pseudo_spieker", "pseudomedians", "pseudobisectors", "euler_wildberger",
    "orthic_axis_pole", "nine_point_conic", "pascal_line_hexagon",
    "eleven_point_conic", "six_points_conic", "complementary_midpoints_conic",
    "magic_midpoints",
)


def theorem_ids():
    return tuple(THEOREMS.keys())


def _trials(theorem_id, seed, trials, geometry, tol, perturb):
    """(counter, residual) of each of `trials` accepted scenes.  A check that
    returns None or raises GeometryError rejects its scene; more than
    RETRY_CAP + 5 * trials rejections raise SamplingExhausted."""
    fn = THEOREMS[theorem_id][0]
    done = 0
    counter = 0
    while done < trials:
        if counter - done > RETRY_CAP + 5 * trials:
            raise SamplingExhausted(f"{theorem_id}: too many rejected scenes")
        rng = trial_rng(seed, counter)
        counter += 1
        try:
            res = fn(rng, geometry, tol, perturb)
        except GeometryError:
            continue
        if res is not None:
            done += 1
            yield counter - 1, res


def _entry(theorem_id, geometry):
    """(geometry, report_only) of a theorem, in its first model if not in
    the one asked for."""
    if theorem_id not in THEOREMS:
        raise UnknownTheorem(theorem_id)
    _, geoms, report_only = THEOREMS[theorem_id]
    return (geometry if geometry in geoms else geoms[0]), report_only


def verify(theorem_id: str, seed: int = 0, trials: int = 1000,
           geometry: str = HYPERBOLIC, tol: float | None = None) -> Certificate:
    """Run `trials` independent scenes of a theorem and certify the worst
    residual.  Scenes that fail their sampling guards are redrawn from the
    next counter value, so the certificate is reproducible from
    (theorem_id, seed, geometry, trials, tol)."""
    geometry, report_only = _entry(theorem_id, geometry)
    t = get_tol() if tol is None else tol
    worst = 0.0
    failures = []
    start = time.perf_counter()
    for counter, res in _trials(theorem_id, seed, trials, geometry, t, 0.0):
        worst = max(worst, res)
        if not report_only and res > t:
            failures.append(counter)
    wall = time.perf_counter() - start
    return Certificate(theorem_id, geometry, seed, trials, worst, failures,
                       t, wall, report_only)


def perturbation_guard(theorem_id: str, seed: int = 0, trials: int = 200,
                       geometry: str = HYPERBOLIC, eps: float = 1e-3,
                       threshold: float = 1e-7) -> float:
    """Fraction of trials where the perturbed check exceeds the threshold."""
    geometry, _ = _entry(theorem_id, geometry)
    hits = sum(1 for _, res in
               _trials(theorem_id, seed, trials, geometry, get_tol(), eps)
               if res > threshold)
    return hits / trials

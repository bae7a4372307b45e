"""Randomized theorem-certification harness.

Every theorem in the library is registered here as a check over
reproducible random scenes.  Scene streams come from the Philox-4x64-10
counter-based generator: trial i of a run keyed by `seed` draws from
Philox(key=seed, counter=[0,0,0,i]), so certificates are reproducible
cross-platform (and cross-language, given the same Philox variant).  The
generator (`philox.Philox`) is pure Python and bit for bit numpy's, so no
module imports numpy at import time; `conic_fit` and `svgfig` load it on
first use.  A run keeps one generator and re-keys it to that counter at
each trial.

A theorem about a triangle is a scene plus a residual: a sampler of
`SAMPLERS` draws the trial's config, and the residual `f(scene, rng,
perturb)` only reads it (`_on_scene`).  The trial driver draws a sampler's
scene once per trial and shares it among the theorems of that sampler.
Samplers draw the scene kinds of `KINDS`, the one table of the kinds, the
models each exists in and the attempt that draws it.

A check rejects its scene by returning None or by raising a GeometryError;
only the trial driver (`_trials`) turns either into a rejection, and only
the draws that retry within one trial catch a GeometryError themselves.

The checks of `MODEL_FREE` draw a figure of their own and never read the
model, so their two certificates are the same computation.  The trial
driver keeps the outcome of each counter of the last such run, keyed by
(seed, check, tol, perturb), and the other model's run replays it
(`_trials`).  Those outcomes never take a slot of the scene store.

Each check accepts a `perturb` displacement: a designated hypothesis point
is nudged by that amount in the chart before the final residual is taken,
which guards the whole suite against vacuous checks.
"""

from __future__ import annotations

import math
import numbers
import time

from . import centers as ce
from . import conics as cn
from . import metric as mt
from . import rays as ry
from . import trig as tg
from .errors import GeometryError, SamplingExhausted, UnknownTheorem
from .philox import Philox
from .projective import (
    HPoint,
    Quadrangle,
    collinearity_residual,
    concurrency_residual,
    dot,
    hpoint,
    incidence_residual,
    join_points,
    meet_lines,
    affine_point,
    pascal_points,
    point_gap,
    points_equal,
    quadrangular_involution,
)
from .tolerance import get_tol, set_tol

HYPERBOLIC = mt.HYPERBOLIC
ELLIPTIC = mt.ELLIPTIC

RETRY_CAP = 1000
MIN_SEPARATION = 1e-4
_BOTH = (HYPERBOLIC, ELLIPTIC)

_MODELS = {}


def model_for(geometry: str) -> mt.ModelGeometry:
    """The model `geometry`, built once; another name raises UnknownTheorem."""
    if geometry not in _MODELS:
        if geometry not in _BOTH:
            raise UnknownTheorem(f"no {geometry!r} model")
        _MODELS[geometry] = (mt.hyperbolic_model() if geometry == HYPERBOLIC
                             else mt.elliptic_model())
    return _MODELS[geometry]


def _word(name, value) -> int:
    """`value` as an int if it is an integer in [0, 2**64), a 64-bit word
    of the Philox key or counter, else ValueError."""
    if not isinstance(value, numbers.Integral) or not 0 <= value < 1 << 64:
        raise ValueError(f"{name} must be an integer in [0, 2**64), "
                         f"got {value!r}")
    return int(value)


def checked_seed(seed: int) -> int:
    """`seed` if it is an integer in [0, 2**64), a Philox key, else
    ValueError."""
    return _word("seed", seed)


def trial_rng(seed: int, trial: int) -> Philox:
    """The generator of trial `trial` of a run keyed by `seed`:
    Philox4x64-10(key=seed, counter=[0,0,0,trial]), in pure Python and bit
    for bit numpy's, so drawing loads no numpy (only `conic_fit` and
    `svgfig` do, on first use).  ValueError before any draw for a seed or
    a trial outside [0, 2**64)."""
    return Philox(checked_seed(seed), _word("trial", trial))


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
        x, y = rng.uniform(-radius, radius, 2)
        if x * x + y * y < radius * radius:
            return affine_point(x, y)


def _exterior_point(rng, annulus=(1.1, 3.0)) -> HPoint:
    ang = rng.uniform(0.0, 2.0 * math.pi)
    r = rng.uniform(*annulus)
    return affine_point(r * math.cos(ang), r * math.sin(ang))


def _well_separated(points, floor=MIN_SEPARATION) -> bool:
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            if point_gap(points[i], points[j]) < floor:
                return False
    return True


def _triangle_margin(a, b, c) -> bool:
    return abs(collinearity_residual(a, b, c)) > MIN_SEPARATION


def nudge(p: HPoint, eps: float) -> HPoint:
    """Displace a point by eps in the chart (identity when eps == 0)."""
    if eps == 0.0:
        return p
    return hpoint(p[0] + eps * p[2], p[1] + 0.5 * eps * p[2], p[2])


def random_triangle_config(rng, geometry, kind="generic"):
    """A general-position PolarTriangleConfig of `kind`, a row of `KINDS`, in
    the model `geometry`: UnknownTheorem before any draw if the kind has no
    such model, else the kind's attempt retried up to RETRY_CAP times.  Every
    call draws and builds; the trial driver shares scenes by sampler."""
    attempt = _attempt(kind, geometry)
    model = model_for(geometry)
    for _ in range(RETRY_CAP):
        try:
            cfg = attempt(rng, model)
        except GeometryError:
            continue
        if cfg is not None:
            return cfg
    raise SamplingExhausted(f"no {kind} scene after {RETRY_CAP} attempts")


def _attempt(kind, geometry):
    """The attempt of `kind` in `geometry`, or UnknownTheorem."""
    models, attempt = KINDS.get(kind, ((), None))
    if geometry not in models:
        raise UnknownTheorem(f"no scene kind {kind} in the {geometry} model")
    return attempt


_SCENE_SEPARATION = 0.05
_SCENE_MARGIN = 0.01


def _conditioned(pts) -> bool:
    # every scene kind ends with this test (`_try_right` on the gaps and
    # margin it formed): the nominal guard floor is MIN_SEPARATION; the
    # sweep tolerances assume this stronger one
    return (_well_separated(pts, _SCENE_SEPARATION)
            and abs(collinearity_residual(*pts)) > _SCENE_MARGIN)


def _triangle_of(model, pts, figure=None):
    """The config of the triangle `pts` if it is conditioned and has no
    right angle, and is of the generalized `figure` if given; else None."""
    if not _conditioned(pts):
        return None
    cfg = ce.build_config(model, *pts)
    if cfg.is_right_angled() or (
            figure is not None and tg.classify_generalized(cfg) != figure):
        return None
    return cfg


def _try_points(n_ext, figure=None):
    """The attempt at a triangle of n_ext exterior vertices and no right
    angle, of the generalized `figure` if given.  Interior points lie in the
    disk of radius 0.9, inside both models."""
    def try_points(rng, model):
        pts = ([_interior_point(rng) for _ in range(3 - n_ext)]
               + [_exterior_point(rng) for _ in range(n_ext)])
        return _triangle_of(model, pts, figure)
    return try_points


def _try_hexagon(rng, model):
    ths = _spaced_angles(rng, 6)
    def chord(t1, t2):
        return join_points(affine_point(math.cos(t1), math.sin(t1)),
                           affine_point(math.cos(t2), math.sin(t2)))
    a = chord(ths[0], ths[1])
    b = chord(ths[2], ths[3])
    c = chord(ths[4], ths[5])
    return _triangle_of(model, [meet_lines(b, c), meet_lines(c, a),
                                meet_lines(a, b)], tg.HEXAGON)


# Room for rounding in `_c_window`: its quantities are read on normalized
# triples at |t| <= 4, where one evaluation rounds by about 1e-14.
_WINDOW_ROUNDING = 1e-12


def _c_window(figure, model, A, B, pc):
    """(lo, hi): the right-angled attempt of `figure` forms C = A + t pc only
    where lo <= t^2 <= hi; at any other t its own tests move on.

    Q and B are the form of the absolute.  A is interior and a pentagon's B
    exterior, as the attempt draws them, so pc, the pole of a line through
    A, is exterior.  pc is conjugate to A and to B, so on C' = A + t pc,
    Q(C') = Q(A) + t^2 Q(pc) = Q(pc)(t^2 - t_in^2) with t_in^2 =
    -Q(A)/Q(pc), and B(B, C') = B(A, B).  By the Lagrange identity of
    `metric.squared_trig`, Q*(B x C') = Q(B) Q(C') - B(A, B)^2 = Q(B)
    Q(pc)(t^2 - t_sec^2) with t_sec^2 = (B(A, B)^2 - Q(B) Q(A)) / (Q(B)
    Q(pc)).

    Each bound has a relative band d about t^2, wide enough to cover the
    band of the step's test and rounding, so that the test is decided on
    either side of it.  The side test reads Q(C) = Q(C')/c^2 against 1e3
    tol, with |c| <= 1 + |t| since A and pc are normalized.  At t^2 =
    t_in^2 (1 +- d), |Q(C')| = |Q(A)| d.  So with d = (1e3 tol + r)(1 +
    t_in)^2 / |Q(A)|, C is interior below the band; above it Q(C) has the
    sign of Q(pc), and C is not interior.  BC's status reads Q*(B x C')/m^2
    against 250 tol, with |m| <= 2(1 + |t|).  At t^2 = t_sec^2 (1 +- d),
    |Q*(B x C')| = (B(A, B)^2 - Q(B) Q(A)) d.  So with d = (250 tol + r)
    4(1 + t_sec)^2 / (B(A, B)^2 - Q(B) Q(A)), BC is secant below the band
    and not secant above it.  r = _WINDOW_ROUNDING covers the rounding of
    C', of the two conjugacies and of each evaluation.

    A t is skipped only beyond a band, on the side where the step moves on:
    above t_in for a right triangle, where C must be interior; below t_in
    for a pentagon, where C must not be; above t_sec for a pentagon, where
    BC must be secant.  The window is every t for an elliptic right
    triangle, whose C has no side to test, and for a Lambert quadrilateral:
    its first C is nearly always on the side it needs, so its window would
    cost more than the C it saves."""
    if figure != tg.HYPERBOLIC_RIGHT and figure != tg.PENTAGON:
        return 0.0, math.inf
    phi = model.absolute
    qa, qp = phi.value(A).real, phi.value(pc).real
    tol = get_tol()
    t2 = -qa / qp
    d_in = ((1e3 * tol + _WINDOW_ROUNDING) * (1.0 + math.sqrt(t2)) ** 2
            / abs(qa))
    if figure == tg.HYPERBOLIC_RIGHT:
        return 0.0, t2 * (1.0 + d_in)
    qb, ab = phi.value(B).real, dot(A, phi.apply(B)).real
    num = ab * ab - qb * qa
    s2 = num / (qb * qp)
    d_sec = ((250 * tol + _WINDOW_ROUNDING) * 4.0 * (1.0 + math.sqrt(s2)) ** 2
             / num)
    return t2 * (1.0 - d_in), s2 * (1.0 + d_sec)


def _try_right(figure):
    """The attempt at the right-angled `figure` of `trig.right_angled_kind`,
    right angle canonically at A: C = A + t pc is placed on the line joining
    A with pc, the pole of AB, at a parameter t scanned for the figure.

    C is interior exactly where t^2 < t_in^2 = -Q(A)/Q(pc), and BC is secant
    exactly where t^2 < t_sec^2 = (B(A, B)^2 - Q(B) Q(A)) / (Q(B) Q(pc)).
    `_c_window` forms both once per attempt, each widened by a relative
    band d that covers the test's own band and rounding: d = (1e3 tol +
    1e-12)(1 + t_in)^2 / |Q(A)| about t_in^2, d = (250 tol + 1e-12) 4(1 +
    t_sec)^2 / (B(A, B)^2 - Q(B) Q(A)) about t_sec^2.  Every step draws t,
    but forms C only inside the window; outside it the step would move on.
    Inside it, each step tests the side of the absolute C lies on, its gaps
    and margin, then (pentagon) the side BC, each a pure predicate and a
    necessary condition of `right_angled_kind`; `join_points(B, C)` follows
    the gap tests, since it raises where they move on.  The final
    `_conditioned` test reads the gaps and margin already formed."""
    def try_right(rng, model):
        A = _interior_point(rng)
        B = (_exterior_point(rng) if figure == tg.PENTAGON
             else _interior_point(rng))
        gap_ab = point_gap(A, B)
        if gap_ab < MIN_SEPARATION:
            return None
        side_c = join_points(A, B)
        pc = cn.pole(model.absolute, side_c)
        # only a Lambert quadrilateral reads the side of B
        bi = model.is_interior(B) if figure == tg.LAMBERT else None
        lo, hi = _c_window(figure, model, A, B, pc)
        for _ in range(40):
            t = rng.uniform(-4.0, 4.0)
            if not lo <= t * t <= hi:
                continue
            try:
                C = hpoint(A[0] + t * pc[0], A[1] + t * pc[1],
                           A[2] + t * pc[2])
            except ValueError:
                continue
            if figure == tg.HYPERBOLIC_RIGHT and not model.is_interior(C):
                continue
            if figure == tg.LAMBERT and model.is_interior(C) == bi:
                continue
            if figure == tg.PENTAGON and model.is_interior(C):
                continue
            gap = min(gap_ab, point_gap(A, C), point_gap(B, C))
            margin = abs(collinearity_residual(A, B, C))
            if gap < MIN_SEPARATION or not margin > MIN_SEPARATION:
                continue
            if figure == tg.PENTAGON and (
                    model.line_status(join_points(B, C)) != cn.SECANT):
                continue
            try:
                cfg = ce.build_config(model, A, B, C)
            except GeometryError:
                continue
            if tg.right_angled_kind(cfg) == figure:
                conditioned = (gap >= _SCENE_SEPARATION
                               and margin > _SCENE_MARGIN)
                return cfg if conditioned else None
        return None
    return try_right


# The scene kinds, each with the models it exists in and its attempt
# `attempt(rng, model)`, which returns a config or None to redraw.
KINDS = {
    "generic": (_BOTH, _try_points(0)),
    "ext1": ((HYPERBOLIC,), _try_points(1)),
    "ext2": ((HYPERBOLIC,), _try_points(2)),
    "ext3": ((HYPERBOLIC,), _try_points(3)),
    "quadrilateral": ((HYPERBOLIC,), _try_points(1, tg.QUADRILATERAL_2R)),
    "hexagon": ((HYPERBOLIC,), _try_hexagon),
    "right:elliptic": ((ELLIPTIC,), _try_right(tg.ELLIPTIC_RIGHT)),
    "right:hyp-right": ((HYPERBOLIC,), _try_right(tg.HYPERBOLIC_RIGHT)),
    "right:lambert": ((HYPERBOLIC,), _try_right(tg.LAMBERT)),
    "right:pentagon": ((HYPERBOLIC,), _try_right(tg.PENTAGON)),
}


# ---------------------------------------------------------------------------
# scene samplers: the named draws that theorem residuals read
# ---------------------------------------------------------------------------

def _generic(rng, geometry):
    return random_triangle_config(rng, geometry, "generic")


def _hexagon(rng, geometry):
    return random_triangle_config(rng, geometry, "hexagon")


def _hinted(kinds, elliptic):
    """The sampler that draws a hint, then a scene of the kind it picks among
    `kinds` in the hyperbolic model, or of the kind `elliptic`.  Both models
    draw the hint, so the Philox streams read as when each check drew it.
    In another model, or with no `elliptic` kind, UnknownTheorem is raised
    before the hint."""
    def draw(rng, geometry):
        if geometry != HYPERBOLIC:
            _attempt(elliptic, geometry)
        kind = kinds[rng.integers(0, len(kinds))]
        return random_triangle_config(
            rng, geometry, kind if geometry == HYPERBOLIC else elliptic)
    return draw


SAMPLERS = {
    "generic": _generic,
    "right": _hinted(("right:hyp-right", "right:lambert", "right:pentagon"),
                     "right:elliptic"),
    "cycle": _hinted(("generic", "ext1", "ext2", "ext3"), "generic"),
    # no elliptic kind: checks of `orient` draw `generic` there (`_on_scene`)
    "orient": _hinted(("generic", "quadrilateral", "hexagon"), None),
    "hexagon": _hexagon,
}


def _on_scene(sampler, residual):
    """The 4-argument check of `residual(scene, rng, perturb)` on a scene of
    the named sampler.  The trial driver reads `check.samplers`, the sampler
    of each model, and `check.residual` to share each trial's scene."""
    # `orient` has one kind in the elliptic model and draws no hint there
    samplers = {HYPERBOLIC: sampler,
                ELLIPTIC: "generic" if sampler == "orient" else sampler}

    def check(rng, geometry, tol, perturb=0.0):
        scene = SAMPLERS[samplers[geometry]](rng, geometry)
        return residual(scene, rng, perturb)

    check.samplers, check.residual = samplers, residual
    return check


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
    return collinearity_residual(*pascal_points(hexagon))


def _conic_from_bounded(rng):
    image = _random_bounded_conic(rng)
    ths = _spaced_angles(rng, 5)
    return cn.conic_fit([image(t) for t in ths], rank_check=False)


def _chk_chasles(rng, geometry, tol, perturb=0.0):
    conic = _conic_from_bounded(rng)
    tri = [_interior_point(rng, 2.0) for _ in range(3)]
    if not _conditioned(tri):
        return None
    poles = [cn.pole(conic, join_points(tri[(i + 1) % 3], tri[(i + 2) % 3]))
             for i in range(3)]
    poles[0] = nudge(poles[0], perturb)
    lines = [join_points(tri[i], poles[i]) for i in range(3)]
    return concurrency_residual(*lines)


def _chk_pappus_involution(rng, geometry, tol, perturb=0.0):
    pts = [_interior_point(rng, 1.5) for _ in range(4)]
    q = Quadrangle(*pts)
    line = join_points(_exterior_point(rng), _exterior_point(rng, (3.2, 4.5)))
    sigma = quadrangular_involution(q, line)
    # sigma is fixed by the first two pairs of opposite sides; the third
    # pair, side 03 against side 12, must be swapped too
    x3 = nudge(meet_lines(q.side(0, 3), line), perturb)
    y3 = meet_lines(q.side(1, 2), line)
    res = point_gap(sigma.apply(x3), y3)
    # involutivity spot check on the first trace
    x1 = meet_lines(q.side(0, 1), line)
    return max(res, point_gap(sigma.apply(sigma.apply(x1)), x1))


def _altitudes(cfg, rng, perturb):
    ha = join_points(nudge(cfg.A, perturb), cfg.Ap)
    return concurrency_residual(ha, cfg.hb, cfg.hc)


def _midpoint_quadrilateral(cfg, rng, perturb):
    mids_a = (nudge(cfg.mids_a[0], perturb), cfg.mids_a[1])
    return ce.midpoint_quadrilateral_residual(mids_a, cfg.mids_b, cfg.mids_c)


def _tangent_triangle(rng, model, n_tangent):
    """Triangle with n sides tangent to the absolute (hyperbolic only), or
    SamplingExhausted after 80 attempts.

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
            if cn.point_on_conic(model.absolute, v):
                break
        else:
            return A, B, C
    raise SamplingExhausted("no tangent triangle after 80 attempts")


def _chk_midpoint_quadrilateral(rng, geometry, tol, perturb=0.0):
    if geometry != HYPERBOLIC:
        return _midpoint_quadrilateral(_generic(rng, geometry), rng, perturb)
    model = model_for(geometry)
    n_tangent = 1 + rng.integers(0, 3)
    A, B, C = _tangent_triangle(rng, model, n_tangent)
    mids_a = mt.midpoints(model, B, C)
    mids_b = mt.midpoints(model, C, A)
    mids_c = mt.midpoints(model, A, B)
    mids_a = (nudge(mids_a[0], perturb), mids_a[1])
    return ce.midpoint_quadrilateral_residual(mids_a, mids_b, mids_c)


# the hyperbolic model draws a triangle with sides tangent to the absolute
_chk_midpoint_quadrilateral.samplers = {ELLIPTIC: "generic"}
_chk_midpoint_quadrilateral.residual = _midpoint_quadrilateral


def _center_residual(kind):
    def residual(cfg, rng, perturb):
        rep = cfg.classical()
        # the angle bisectors of T are the side bisectors of T'
        tri = cfg.dual if kind == "angle_bisectors" else cfg
        groups = {"medians": rep.barycenters, "side_bisectors": rep.circumcenters,
                  "angle_bisectors": rep.incenters}[kind]
        verts = ((tri.A, tri.B, tri.C) if kind == "medians"
                 else (tri.Ap, tri.Bp, tri.Cp))
        worst = max(g[2] for g in groups)
        if perturb:
            bits = groups[0][0]
            pairs = (tri.mids_a, tri.mids_b, tri.mids_c)
            mids = [pair[i] for pair, i in zip(pairs, bits)]
            mids[0] = nudge(mids[0], perturb)
            l1, l2, l3 = (join_points(v, m) for v, m in zip(verts, mids))
            worst = max(worst, concurrency_residual(l1, l2, l3))
        return worst
    return residual


def _pseudo_spieker(cfg, rng, perturb):
    d = cfg.dual
    dd = join_points(nudge(cfg.D, perturb), d.D)
    ee = join_points(cfg.E, d.E)
    ff = join_points(cfg.F, d.F)
    return concurrency_residual(dd, ee, ff)


def _pseudomedians(cfg, rng, perturb):
    ps = cfg.pseudo()
    worst = max(ps.residuals["pseudomedians"], ps.residuals["pseudomedians_dual"],
                ps.residuals["vertices_midpoints_of_double"],
                ps.residuals["Ap_App_A1"], ps.residuals["ha_conj_NBNC"])
    if perturb:
        nc = join_points(nudge(cfg.C, perturb), ps.Cpp)
        worst = max(worst, incidence_residual(nc, ps.N))
    return worst


def _pseudobisectors(cfg, rng, perturb):
    ps = cfg.pseudo()
    worst = max(ps.residuals["pseudobisectors"],
                ps.residuals["pseudobisectors_dual"],
                ps.residuals["AA1_through_P"], ps.residuals["ApA1_through_Pp"],
                ps.residuals["ha_conj_B1C1"])
    if perturb:
        pc = join_points(nudge(ps.NC, perturb), cfg.Cp)
        worst = max(worst, incidence_residual(pc, ps.P))
    return worst


def _euler(cfg, rng, perturb):
    eu = cfg.euler()
    worst = eu.residuals["five_point_collinearity"]
    worst = max(worst, eu.residuals["e_perp_orthic"])
    if perturb:
        ps = cfg.pseudo()
        worst = max(worst, incidence_residual(eu.line, nudge(ps.Pp, perturb)))
    return worst


def _orthic_pole(cfg, rng, perturb):
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


def _nine_point(cfg, rng, perturb):
    npc = cfg.nine_point()
    worst = max(npc.residuals["nine_on_conic"], npc.residuals["eleven_on_conic"])
    if perturb:
        worst = max(worst, cn.conic_residual(npc.conic,
                                             nudge(npc.points[0], perturb)))
    return worst


def _pascal_hexagon(cfg, rng, perturb):
    npc = cfg.nine_point()
    worst = npc.residuals["pascal_on_euler"]
    if perturb:
        ps = cfg.pseudo()
        eu = cfg.euler()
        hexagon = (cfg.HA, nudge(ps.NB, perturb), cfg.HC, ps.NA, cfg.HB, ps.NC)
        for p in pascal_points(hexagon):
            worst = max(worst, incidence_residual(eu.line, p))
    return worst


def _chk_eleven_point(rng, geometry, tol, perturb=0.0):
    pts = [_interior_point(rng, 1.4) for _ in range(4)]
    if not _well_separated(pts):
        return None
    q = Quadrangle(*pts)
    line = join_points(_exterior_point(rng), _exterior_point(rng, (3.2, 4.5)))
    conic, eleven = cn.eleven_point_conic(q, line)
    worst = max(cn.conic_residual(conic, p) for p in eleven)
    if perturb:
        worst = max(worst, cn.conic_residual(conic, nudge(eleven[2], perturb)))
    return worst


def _six_points(cfg, rng, perturb):
    conic, res = tg.six_points_conic_check(cfg)
    if perturb:
        res = max(res, cn.conic_residual(conic, nudge(cfg.Cb, perturb)))
    return res


def _complementary_conic(cfg, rng, perturb):
    conic, fit_res, carnot_res, coll = tg.complementary_midpoints_conic(cfg)
    worst = max(fit_res, carnot_res, coll)
    if perturb:
        (g, ga), _, _ = cfg.complementary
        worst = max(worst, cn.conic_residual(conic, nudge(g, perturb)))
    return worst


def _magic(cfg, rng, perturb):
    worst = tg.magic_midpoints_agreement(cfg)
    if perturb:
        m = cfg.magic
        pair = (nudge(m.pairs[0][0], perturb), m.pairs[0][1])
        s_pair = mt.midpoints(cfg.model, m.B, m.C)
        worst = max(worst, tg.pair_gap(pair, s_pair))
    return worst


def _squared_identity(name):
    def residual(cfg, rng, perturb):
        res = tg.squared_identity(name, cfg)
        if perturb:
            c, s, t = mt.squared_trig(cfg.model, nudge(cfg.B, perturb), cfg.C)
            res = max(res, abs(c - mt.squared_trig(cfg.model, cfg.B, cfg.C)[0]))
        return res
    return residual


def _table51(cfg, rng, perturb):
    rows = tg.table_5_1(cfg)
    return max(r[3] for r in rows)


def _law_sines_sq(cfg, rng, perturb):
    _, spread = tg.squared_law_of_sines(cfg)
    return spread


def _law_cosines_sq(cfg, rng, perturb):
    res, matches = tg.squared_law_of_cosines(cfg)
    if matches != 1:
        return 1.0
    r1, r2, m2 = tg.cosine_split_lemma(cfg)
    if m2 != 1:
        return 1.0
    return max(res, r1, r2)


def _chk_carnot_projective(rng, geometry, tol, perturb=0.0):
    conic = _conic_from_bounded(rng)
    tri = [_interior_point(rng, 2.2) for _ in range(3)]
    if not _conditioned(tri):
        return None
    p = _exterior_point(rng)
    q = _exterior_point(rng, (3.2, 4.4))
    transversal = join_points(p, q)
    res, six = tg.carnot_projective_residual(*tri, conic, transversal)
    if perturb:
        # move X0 off the transversal: X0, Y0, Z0 are no longer
        # collinear.  The nudged point is whichever of P, Q lies nearer
        # to X0, so the line pivots about the farther one and X0 moves.
        X, Y, Z = tri
        side_x = join_points(Y, Z)
        x0 = meet_lines(side_x, transversal)
        if point_gap(x0, p) <= point_gap(x0, q):
            moved = join_points(nudge(p, perturb), q)
        else:
            moved = join_points(p, nudge(q, perturb))
        res = abs(tg.carnot_product(
            X, Y, Z,
            meet_lines(side_x, moved),
            meet_lines(join_points(Z, X), transversal),
            meet_lines(join_points(X, Y), transversal),
            *six) - 1.0)
    return res


def _carnot_hyperbolic(cfg, rng, perturb):
    hstar = _interior_point(rng, 0.8)
    astar, bstar, cstar = tg.concurrent_carnot_points(cfg, hstar)
    if not all(cfg.model.is_interior(p) for p in (astar, bstar, cstar)):
        return None
    astar = nudge(astar, perturb)
    cc = tg.carnot_cosines(cfg, astar, bstar, cstar)
    lhs, rhs = tg.carnot_hyperbolic_sides(cfg, cc.segments)
    forward = abs(lhs - rhs) / max(1.0, abs(lhs))
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
        lhs2, rhs2 = tg.carnot_hyperbolic_sides(cfg, cc2.segments)
        if abs(lhs2 - rhs2) <= 1e-6:
            return 1.0
    return forward


def _carnot_elliptic(cfg, rng, perturb):
    def on_side(p, q):
        s = rng.uniform(-1.0, 1.0)
        return hpoint(p[0] + s * q[0], p[1] + s * q[1], p[2] + s * q[2])
    bstar = on_side(cfg.C, cfg.A)
    cstar = on_side(cfg.A, cfg.B)
    fake, dstar = tg.fake_carnot_points(cfg, bstar, cstar)
    if points_equal(fake, dstar, 1e-6):
        return None
    fake = nudge(fake, perturb)
    cc = tg.carnot_cosines(cfg, fake, bstar, cstar)
    lhs, rhs = tg.carnot_elliptic_sides(cfg, cc.segments)
    res = max(cc.identity_residual, abs(lhs - rhs) / max(1.0, abs(lhs)))
    if perturb == 0.0 and cc.concurrency_residual <= 1e-6:
        return 1.0  # fake points must NOT be concurrent
    # concurrent direction for the same scene
    hstar = _interior_point(rng, 0.8)
    a3, b3, c3 = tg.concurrent_carnot_points(cfg, hstar)
    cc3 = tg.carnot_cosines(cfg, a3, b3, c3)
    lhs3, rhs3 = tg.carnot_elliptic_sides(cfg, cc3.segments)
    res = max(res, cc3.identity_residual, abs(lhs3 - rhs3) / max(1.0, abs(lhs3)))
    return res


def _carnot_hexagon(cfg, rng, perturb):
    hstar = _interior_point(rng, 0.75)
    astar, bstar, cstar = tg.concurrent_carnot_points(cfg, hstar)
    if not all(cfg.model.is_interior(p) for p in (astar, bstar, cstar)):
        return None
    astar = nudge(astar, perturb)
    lhs, rhs = tg.carnot_hexagon_sides(cfg, astar, bstar, cstar)
    res = abs(lhs - rhs) / max(1.0, abs(lhs))
    cc = tg.carnot_cosines(cfg, astar, bstar, cstar)
    return max(res, cc.identity_residual if perturb == 0.0 else 0.0)


def _projective_sines(cfg, rng, perturb):
    o = tg.coherent_orientation(cfg)
    _, spread = tg.projective_law_of_sines(o)
    return spread


def _projective_cosines(cfg, rng, perturb):
    o = tg.coherent_orientation(cfg)
    return max(0.0, *tg.projective_laws_of_cosines(o).values())


def _chk_ray_angles(rng, geometry, tol, perturb=0.0):
    model = model_for(HYPERBOLIC)
    o = _interior_point(rng, 0.7)
    p = _interior_point(rng, 0.85)
    q = _interior_point(rng, 0.85)
    if point_gap(o, p) < 1e-2 or point_gap(o, q) < 1e-2:
        return None
    r1 = ry.ray_towards(model, o, p)
    r2 = ry.ray_towards(model, o, nudge(q, perturb))
    ang = ry.angle_between_rays(model, r1, r2)
    c1 = ry.ray_cosine_opposite(model, r1, r2)
    c2 = ry.ray_cosine_conjugate(model, r1, r2)
    r2b = ry.Ray(r2.origin, r2.carrier, r2.opposite, r2.endpoint)
    supp = ry.angle_between_rays(model, r1, r2b)
    res = max(abs(c1 - math.cos(ang)), abs(c2 - c1),
              abs(ang + supp - math.pi))
    if perturb:
        res = max(res, abs(math.cos(ang) - math.cos(
            ry.vertex_angle(model, o, p, q))))
    return res


def _conjectures(cfg, rng, perturb):
    rep = ce.experimental_conjectures(cfg)
    vals = [v for v in rep.values() if isinstance(v, float)]
    return max(vals) if vals else 0.0


THEOREMS = {
    "desargues": (_chk_desargues, _BOTH, False),
    "pascal": (_chk_pascal, _BOTH, False),
    "chasles": (_chk_chasles, _BOTH, False),
    "pappus_involution": (_chk_pappus_involution, _BOTH, False),
    "altitudes": (_on_scene("generic", _altitudes), _BOTH, False),
    "midpoint_quadrilateral": (_chk_midpoint_quadrilateral, _BOTH, False),
    "medians": (_on_scene("generic", _center_residual("medians")),
                _BOTH, False),
    "side_bisectors": (_on_scene("generic", _center_residual("side_bisectors")),
                       _BOTH, False),
    "angle_bisectors": (
        _on_scene("generic", _center_residual("angle_bisectors")), _BOTH, False),
    "pseudo_spieker": (_on_scene("generic", _pseudo_spieker), _BOTH, False),
    "pseudomedians": (_on_scene("generic", _pseudomedians), _BOTH, False),
    "pseudobisectors": (_on_scene("generic", _pseudobisectors), _BOTH, False),
    "euler_wildberger": (_on_scene("generic", _euler), _BOTH, False),
    "orthic_axis_pole": (_on_scene("generic", _orthic_pole), _BOTH, False),
    "nine_point_conic": (_on_scene("generic", _nine_point), _BOTH, False),
    "pascal_line_hexagon": (_on_scene("generic", _pascal_hexagon), _BOTH, False),
    "eleven_point_conic": (_chk_eleven_point, _BOTH, False),
    "six_points_conic": (_on_scene("generic", _six_points), _BOTH, False),
    "complementary_midpoints_conic": (
        _on_scene("generic", _complementary_conic), _BOTH, False),
    "magic_midpoints": (_on_scene("generic", _magic), _BOTH, False),
    **{f"t{i}": (_on_scene("right", _squared_identity(f"T{i}")), _BOTH, False)
       for i in range(1, 7)},
    "table_5_1": (_on_scene("right", _table51), _BOTH, False),
    "law_sines_sq": (_on_scene("cycle", _law_sines_sq), _BOTH, False),
    "law_cosines_sq": (_on_scene("cycle", _law_cosines_sq), _BOTH, False),
    "carnot_projective": (_chk_carnot_projective, _BOTH, False),
    "carnot_elliptic": (_on_scene("generic", _carnot_elliptic), (ELLIPTIC,),
                        False),
    "carnot_hyperbolic_iff": (_on_scene("generic", _carnot_hyperbolic),
                              (HYPERBOLIC,), False),
    "carnot_hexagon": (_on_scene("hexagon", _carnot_hexagon), (HYPERBOLIC,),
                       False),
    "projective_sines": (_on_scene("orient", _projective_sines), _BOTH, False),
    "projective_cosines": (_on_scene("orient", _projective_cosines), _BOTH,
                           False),
    "ray_angles": (_chk_ray_angles, (HYPERBOLIC,), False),
    "conjectures": (_on_scene("generic", _conjectures), _BOTH, True),
}

INCIDENCE_THEOREMS = (
    "desargues", "pascal", "chasles", "pappus_involution", "altitudes",
    "midpoint_quadrilateral", "medians", "side_bisectors", "angle_bisectors",
    "pseudo_spieker", "pseudomedians", "pseudobisectors", "euler_wildberger",
    "orthic_axis_pole", "nine_point_conic", "pascal_line_hexagon",
    "eleven_point_conic", "six_points_conic", "complementary_midpoints_conic",
    "magic_midpoints",
)

# The checks that draw a figure of their own and never read `geometry`: each
# trial's outcome is the same in both models, and `_trials` computes it once.
MODEL_FREE = ("desargues", "pascal", "chasles", "pappus_involution",
              "eleven_point_conic", "carnot_projective")


def theorem_ids():
    return tuple(THEOREMS.keys())


def _trials(theorem_id, seed, trials, geometry, tol, perturb):
    """(counter, residual) of each of `trials` accepted scenes.  A check that
    returns None or raises GeometryError rejects its scene, and this is the
    one place where either becomes a rejection; more than RETRY_CAP + 5 *
    trials rejections raise SamplingExhausted.  In the models of its
    `samplers` (`_on_scene`), a check's residual reads the trial's scene
    from `_scene`.  The run keeps one generator and re-keys
    it to counter [0,0,0,counter] at each trial (`Philox.rekey`).

    A check of `MODEL_FREE` reads no model, so its outcome at a counter, the
    residual or a rejection, is kept (`_outcomes`) under the key (seed,
    check, tol, perturb) of its run.  A later run with that key, the other
    model's, replays the outcomes and calls the check only at the counters
    past them.  Only the last key's outcomes are kept, and never in the
    scene store."""
    global _scene_seed, _outcomes
    fn = THEOREMS[theorem_id][0]
    sampler = getattr(fn, "samplers", {}).get(geometry)
    if seed != _scene_seed:
        _scenes.clear()
        _scene_seed = seed
    outcomes = None
    if theorem_id in MODEL_FREE:
        key = (seed, fn, tol, perturb)
        if _outcomes[0] != key:
            _outcomes = (key, [])
        outcomes = _outcomes[1]
    rng = trial_rng(seed, 0)
    done = 0
    counter = 0
    while done < trials:
        if counter - done > RETRY_CAP + 5 * trials:
            raise SamplingExhausted(f"{theorem_id}: too many rejected scenes")
        counter += 1
        if outcomes is not None and counter <= len(outcomes):
            res = outcomes[counter - 1]
        else:
            try:
                if sampler is None:
                    rng.rekey(counter - 1)
                    res = fn(rng, geometry, tol, perturb)
                else:
                    scene = _scene((seed, sampler, counter - 1, geometry,
                                    tol), rng)
                    res = fn.residual(scene, rng, perturb)
            except GeometryError:
                res = None
            if outcomes is not None:
                outcomes.append(res)
        if res is not None:
            done += 1
            yield counter - 1, res


# The key (seed, check, tol, perturb) of the last run of a `MODEL_FREE`
# check, and the outcome of each counter it reached: the residual, or None
# for a rejection.  O(trials) floats, apart from the scene store.
_outcomes = (None, [])


# The scenes of the trial driver, with the generator state after each draw,
# by seed, sampler, trial counter, model and the run's tolerance.  It holds
# the scenes of the seed of the last run started (`_trials` empties it for
# another), at most SCENE_CACHE_CAP of them.
SCENE_CACHE_CAP = 2500
_scenes = {}
_scene_seed = None


def _scene(key, rng):
    """The scene of the store key (seed, sampler, counter, geometry, tol).
    On its first request it is drawn from the trial's fresh state, set by
    `rng.rekey(counter)`.  A later request gets the same config, and `rng`
    is set once, to the state the draw left, so a residual drawing after
    the scene reads the same numbers.  A raising draw is not stored."""
    hit = _scenes.get(key)
    if hit is not None:
        cfg, rng.state = hit
        return cfg
    _, sampler, counter, geometry, _ = key
    rng.rekey(counter)
    cfg = SAMPLERS[sampler](rng, geometry)
    if len(_scenes) < SCENE_CACHE_CAP:
        _scenes[key] = (cfg, rng.state)
    return cfg


def checked_trials(trials: int) -> int:
    """`trials` if it is an integer of at least 1, else ValueError: a run of
    no scenes would pass without certifying anything, and a fractional one
    would run more scenes than it reports."""
    if not isinstance(trials, numbers.Integral):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return trials


def _entry(theorem_id, geometry, trials, seed):
    """report_only of a run of `trials` scenes of a theorem in `geometry`;
    UnknownTheorem if the id has no certificate in that model, ValueError
    for a `trials` or `seed` that `checked_trials` or `checked_seed`
    rejects."""
    if theorem_id not in THEOREMS:
        raise UnknownTheorem(theorem_id)
    _, geoms, report_only = THEOREMS[theorem_id]
    if geometry not in geoms:
        raise UnknownTheorem(f"{theorem_id} has no certificate in the "
                             f"{geometry} model, only in {', '.join(geoms)}")
    checked_trials(trials)
    checked_seed(seed)
    return report_only


def verify(theorem_id: str, seed: int = 0, trials: int = 1000,
           geometry: str = HYPERBOLIC, tol: float | None = None) -> Certificate:
    """Run `trials` independent scenes of a theorem and certify the worst
    residual.  Scenes that fail their sampling guards are redrawn from the
    next counter value, so the certificate is reproducible from
    (theorem_id, seed, geometry, trials, tol).  The run sets the ambient
    tolerance to `tol` (left as it is when None), which every test of the
    run reads, and restores the previous value when it ends."""
    report_only = _entry(theorem_id, geometry, trials, seed)
    old = set_tol(get_tol() if tol is None else tol)
    t = get_tol()
    worst = 0.0
    failures = []
    start = time.perf_counter()
    try:
        for counter, res in _trials(theorem_id, seed, trials, geometry, t, 0.0):
            worst = max(worst, res)
            if not report_only and res > t:
                failures.append(counter)
    finally:
        set_tol(old)
    wall = time.perf_counter() - start
    return Certificate(theorem_id, geometry, seed, trials, worst, failures,
                       t, wall, report_only)


def perturbation_guard(theorem_id: str, seed: int = 0, trials: int = 200,
                       geometry: str = HYPERBOLIC, eps: float = 1e-3,
                       threshold: float = 1e-7) -> float:
    """Fraction of trials where the perturbed check exceeds the threshold."""
    _entry(theorem_id, geometry, trials, seed)
    hits = sum(1 for _, res in
               _trials(theorem_id, seed, trials, geometry, get_tol(), eps)
               if res > threshold)
    return hits / trials

"""Named construction figures rendered to SVG."""

from __future__ import annotations

from . import centers as ce
from . import metric as mt
from .errors import GeometryError
from .projective import join_points
from .sceneio import Scene, SceneError
from .svgfig import Figure


def _require_real_absolute(scene: Scene):
    if scene.model.kind != mt.HYPERBOLIC:
        raise SceneError(
            "this figure draws the absolute conic and needs a real one; "
            "the scene's absolute is imaginary")


def _triangle_config(scene: Scene):
    try:
        a = scene.point("A")
        b = scene.point("B")
        c = scene.point("C")
    except SceneError as exc:
        raise SceneError("figure needs named points A, B, C") from exc
    return ce.build_config(scene.model, a, b, c)


def fig_triangle_midpoints(scene: Scene) -> Figure:
    _require_real_absolute(scene)
    cfg = _triangle_config(scene)
    fig = Figure("triangle, polar triangle and midpoints")
    fig.conic(scene.model.absolute)
    for line in (cfg.a, cfg.b, cfg.c):
        fig.line(line, stroke="#333", width=1.6)
    for line in (cfg.ap, cfg.bp, cfg.cp):
        fig.line(line, stroke="#8a6d1d", width=1.2, dashed=True)
    for p, nm in ((cfg.A, "A"), (cfg.B, "B"), (cfg.C, "C")):
        fig.point(p, nm)
    for p, nm in ((cfg.Ap, "A'"), (cfg.Bp, "B'"), (cfg.Cp, "C'")):
        fig.point(p, nm, fill="#8a6d1d")
    for pair, names in ((cfg.mids_a, ("D", "Da")), (cfg.mids_b, ("E", "Eb")),
                        (cfg.mids_c, ("F", "Fc"))):
        for p, nm in zip(pair, names):
            fig.point(p, nm, fill="#2d6a38", r=3.2)
    return fig


def fig_euler_line(scene: Scene) -> Figure:
    _require_real_absolute(scene)
    cfg = _triangle_config(scene)
    ps = cfg.pseudo()
    eu = cfg.euler()
    npc = cfg.nine_point()
    fig = Figure("Euler line and nine-point conic")
    fig.conic(scene.model.absolute)
    for line in (cfg.a, cfg.b, cfg.c):
        fig.line(line, stroke="#333", width=1.5)
    for line in (cfg.ha, cfg.hb, cfg.hc):
        fig.line(line, stroke="#999", width=0.9, dashed=True)
    fig.line(eu.line, stroke="#b3202c", width=2.2)
    fig.line(eu.orthic_axis, stroke="#b3881e", width=1.2, dashed=True)
    try:
        fig.conic(npc.conic, stroke="#2d6a38", width=1.8, dashed=True)
    except GeometryError:
        pass
    for p, nm in ((cfg.A, "A"), (cfg.B, "B"), (cfg.C, "C")):
        fig.point(p, nm, fill="#333")
    for p, nm in ((cfg.H, "H"), (ps.N, "N"), (ps.Np, "N'"),
                  (ps.P, "P"), (ps.Pp, "P'")):
        fig.point(p, nm, fill="#b3202c")
    for p, nm in zip(npc.points, ("HA", "HB", "HC", "NA", "NB", "NC",
                                  "LA", "LB", "LC")):
        fig.point(p, nm, fill="#2d6a38", r=3.0)
    return fig


def fig_nine_point(scene: Scene) -> Figure:
    fig = fig_euler_line(scene)
    fig.title = "nine-point conic"
    return fig


def fig_midpoint_quadrilateral(scene: Scene) -> Figure:
    _require_real_absolute(scene)
    cfg = _triangle_config(scene)
    fig = Figure("midpoint quadrilateral with diagonal triangle ABC")
    fig.conic(scene.model.absolute)
    for line in (cfg.a, cfg.b, cfg.c):
        fig.line(line, stroke="#333", width=1.6)
    mids = (cfg.mids_a, cfg.mids_b, cfg.mids_c)
    # the four collinear triples are the sides of the quadrilateral
    import itertools
    from .projective import collinearity_residual
    for i, j, k in itertools.product(range(2), repeat=3):
        trip = (mids[0][i], mids[1][j], mids[2][k])
        if collinearity_residual(*trip) < 1e-7:
            fig.line(join_points(trip[0], trip[1]), stroke="#2d6a38", width=1.3,
                     dashed=True)
    for p, nm in ((cfg.A, "A"), (cfg.B, "B"), (cfg.C, "C")):
        fig.point(p, nm, fill="#333")
    for pair, names in zip(mids, (("D", "Da"), ("E", "Eb"), ("F", "Fc"))):
        for p, nm in zip(pair, names):
            fig.point(p, nm, fill="#2d6a38", r=3.4)
    return fig


def fig_menelaus(scene: Scene) -> Figure:
    _require_real_absolute(scene)
    cfg = _triangle_config(scene)
    # the right-angled Menelaus configuration: triangle abc cut by b', c'
    mfig = Figure("Menelaus configuration: triangle with two transversals")
    mfig.conic(scene.model.absolute)
    for line, nm in ((cfg.a, "a"), (cfg.b, "b"), (cfg.c, "c")):
        mfig.line(line, stroke="#333", width=1.6)
    for line in (cfg.bp, cfg.cp):
        mfig.line(line, stroke="#b3202c", width=1.3, dashed=True)
    for p, nm in ((cfg.A, "A"), (cfg.B, "B"), (cfg.C, "C"),
                  (cfg.Ba, "Ba"), (cfg.Bc, "Bc"), (cfg.Ca, "Ca"),
                  (cfg.Cb, "Cb")):
        mfig.point(p, nm)
    return mfig


def fig_magic_midpoints(scene: Scene) -> Figure:
    _require_real_absolute(scene)
    cfg = _triangle_config(scene)
    magic = cfg.magic
    fig = Figure("magic triangle and magic midpoints")
    fig.conic(scene.model.absolute)
    for line in (cfg.a, cfg.b, cfg.c):
        fig.line(line, stroke="#333", width=1.4)
    for line in (magic.a, magic.b, magic.c):
        fig.line(line, stroke="#b3202c", width=1.5, dashed=True)
    for p, nm in ((cfg.A, "A"), (cfg.B, "B"), (cfg.C, "C")):
        fig.point(p, nm, fill="#333")
    for p, nm in ((magic.A, "A~"), (magic.B, "B~"), (magic.C, "C~")):
        fig.point(p, nm, fill="#b3202c")
    from .projective import is_real_triple
    for pair, names in zip(magic.pairs, (("D~", "D~a"), ("E~", "E~b"),
                                         ("F~", "F~c"))):
        for p, nm in zip(pair, names):
            if is_real_triple(p, 1e-7):
                fig.point(p, nm, fill="#2d6a38", r=3.2)
    return fig


FIGURES = {
    "triangle-midpoints": fig_triangle_midpoints,
    "euler-line": fig_euler_line,
    "nine-point": fig_nine_point,
    "midpoint-quadrilateral": fig_midpoint_quadrilateral,
    "menelaus": fig_menelaus,
    "magic-midpoints": fig_magic_midpoints,
}


def draw_figure(name: str, scene: Scene) -> Figure:
    if name not in FIGURES:
        raise SceneError(f"unknown figure name {name!r}; "
                         f"known: {', '.join(sorted(FIGURES))}")
    return FIGURES[name](scene)

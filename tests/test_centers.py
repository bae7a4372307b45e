import itertools
import math
import random

import pytest

from ckgeom import centers as ce
from ckgeom import conics as cn
from ckgeom import errors
from ckgeom import metric as mt
from ckgeom import projective as pj
from ckgeom.projective import (
    affine_point,
    hpoint,
    join_points,
    meet_lines,
    points_equal,
)
from ckgeom.tolerance import get_tol
from conftest import ambient_tol, interior_point
from oracles import oracle_build, oracle_isosceles_gaps


def random_cfg(model, rng, radius=0.85):
    while True:
        pts = [interior_point(rng, radius) for _ in range(3)]
        try:
            cfg = ce.build_config(model, *pts)
        except errors.GeneralPositionViolation:
            continue
        if not cfg.is_right_angled():
            return cfg


def test_general_position_violations(hyp):
    with pytest.raises(errors.GeneralPositionViolation):
        ce.build_config(hyp, affine_point(0, 0), affine_point(0.3, 0),
                        affine_point(0.7, 0))
    with pytest.raises(errors.GeneralPositionViolation):
        ce.build_config(hyp, affine_point(1, 0), affine_point(0.3, 0.1),
                        affine_point(-0.2, 0.4))


def test_altitudes_concur(hyp, ell, rng):
    for model in (hyp, ell):
        cfg = random_cfg(model, rng)
        assert pj.concurrency_residual(cfg.ha, cfg.hb, cfg.hc) < 1e-12
        # the orthocenter is shared with the polar triangle: its altitudes
        # are the same lines
        assert pj.lines_equal(join_points(cfg.Ap, cn.pole(model.absolute, cfg.ap)),
                              cfg.ha)


def test_isosceles_flags(hyp):
    sym = ce.build_config(hyp, affine_point(0.6, 0), affine_point(-0.2, 0.4),
                          affine_point(-0.2, -0.4))
    assert sym.iso_flags == (True, False, False)
    # symmetric triangle about the center: equilateral
    r = 0.5
    eq = [affine_point(r * math.cos(a), r * math.sin(a))
          for a in (0.3, 0.3 + 2 * math.pi / 3, 0.3 + 4 * math.pi / 3)]
    cfg = ce.build_config(hyp, *eq)
    assert cfg.iso_flags == (True, True, True)
    # two isosceles flags imply the third (checked on the same instance)
    assert sum(cfg.iso_flags) != 2


def test_isosceles_agrees_with_magic_concurrency(hyp, rng):
    sym = ce.build_config(hyp, affine_point(0.6, 0), affine_point(-0.2, 0.4),
                          affine_point(-0.2, -0.4))
    m = sym.magic
    assert pj.concurrency_residual(sym.a, sym.ap, m.a) < 1e-9
    gen = random_cfg(hyp, rng)
    if not any(gen.iso_flags):
        mg = gen.magic
        assert pj.concurrency_residual(gen.a, gen.ap, mg.a) > 1e-4


def test_chosen_midpoints_valid(hyp, ell, rng):
    for model in (hyp, ell):
        for _ in range(10):
            cfg = random_cfg(model, rng)
            assert pj.collinearity_residual(cfg.D, cfg.E, cfg.F) > 1e-6
            assert not points_equal(cfg.D, cfg.A0)
            # the partner triple (Da, E, F) is collinear (midpoint lemma)
            assert pj.collinearity_residual(cfg.Da, cfg.E, cfg.F) < 1e-10
            # D, Da are the diagonal points away from A of {E, Eb, F, Fc}
            q1 = pj.meet_lines(join_points(cfg.E, cfg.F), join_points(cfg.Eb, cfg.Fc))
            q2 = pj.meet_lines(join_points(cfg.E, cfg.Fc), join_points(cfg.Eb, cfg.F))
            ok1 = points_equal(q1, cfg.Da, 1e-7) and points_equal(q2, cfg.D, 1e-7)
            ok2 = points_equal(q2, cfg.Da, 1e-7) and points_equal(q1, cfg.D, 1e-7)
            assert ok1 or ok2


@pytest.mark.parametrize("geometry,kind", [
    ("hyperbolic", "generic"), ("elliptic", "generic"),
    ("hyperbolic", "ext1"), ("hyperbolic", "ext2"), ("hyperbolic", "ext3"),
])
def test_midpoint_assignments(geometry, kind):
    from ckgeom import lab
    for n in range(8):
        cfg = lab.random_triangle_config(lab.trial_rng(23, n), geometry, kind)
        t = get_tol()
        avoid = (cfg.A0, cfg.B0, cfg.C0)
        for tri in (cfg, cfg.dual):
            pairs = (tri.mids_a, tri.mids_b, tri.mids_c)
            chosen = (tri.D, tri.E, tri.F, tri.Da, tri.Eb, tri.Fc)
            got = list(ce.midpoint_assignments(pairs, avoid))
            bits = [b for b, _ in got]
            assert bits == sorted(set(bits))
            for (i, j, k), trip in got:
                assert trip == (pairs[0][i], pairs[1][j], pairs[2][k])
                assert pj.collinearity_residual(*trip) > 1e3 * t
                assert not any(points_equal(x, a, t) for x, a in zip(trip, avoid))
            (i, j, k), first = got[0]
            assert first == chosen[:3]
            assert chosen[3:] == (pairs[0][1 - i], pairs[1][1 - j],
                                  pairs[2][1 - k])
            # avoiding one midpoint of side a keeps exactly the choices of
            # its partner, in the same order (a vertex is never a midpoint)
            free = list(ce.midpoint_assignments(pairs))
            only_a1 = list(ce.midpoint_assignments(
                pairs, (pairs[0][0], cfg.A, cfg.A)))
            assert only_a1 == [g for g in free if g[0][0] == 1]
        free = [b for b, _ in ce.midpoint_assignments(
            (cfg.mids_a, cfg.mids_b, cfg.mids_c))]
        assert [b for b, _, _ in cfg.classical().barycenters] == free


def test_classical_centers(hyp, ell, rng):
    for model in (hyp, ell):
        cfg = random_cfg(model, rng)
        rep = cfg.classical()
        assert len(rep.barycenters) == 4
        assert len(rep.circumcenters) == 4
        assert len(rep.incenters) == 4
        assert max(b[2] for b in rep.barycenters) < 1e-9
        assert max(o[2] for o in rep.circumcenters) < 1e-9
        assert max(i[2] for i in rep.incenters) < 1e-9


def test_classical_centers_join_each_vertex_and_midpoint_once(monkeypatch):
    # one join per vertex-midpoint pair of each family, and the report of
    # joining afresh for every assignment, bit for bit
    from ckgeom import lab
    joins = []
    join = ce.join_points

    def counting(p, q):
        joins.append((p, q))
        return join(p, q)

    for geometry in ("hyperbolic", "elliptic"):
        for i in range(10):
            cfg = lab.random_triangle_config(lab.trial_rng(5, i), geometry)
            d = cfg.dual
            tris = ((cfg, ((cfg.A, cfg.B, cfg.C), (cfg.Ap, cfg.Bp, cfg.Cp))),
                    (d, ((d.Ap, d.Bp, d.Cp),)))
            want, keys = [], set()
            for tri, families in tris:
                for bits, mids in ce.midpoint_assignments(
                        (tri.mids_a, tri.mids_b, tri.mids_c)):
                    for verts in families:
                        la, lb, lc = (join(v, m) for v, m in zip(verts, mids))
                        p = meet_lines(la, lb)
                        want.append((bits, p, pj.incidence_residual(lc, p)))
                        keys |= {(tri is d, verts[k], bits[k]) for k in range(3)}
            joins.clear()
            monkeypatch.setattr(ce, "join_points", counting)
            rep = cfg.classical()
            monkeypatch.undo()
            assert len(joins) == len(keys) == 18
            # `want` interleaves barycenters and circumcenters, then incenters
            n = len(rep.barycenters)
            assert repr((rep.barycenters, rep.circumcenters, rep.incenters)) \
                == repr((want[0:2 * n:2], want[1:2 * n:2], want[2 * n:]))


def test_side_bisectors_are_dual_angle_bisectors(hyp, rng):
    # the side bisector A'D of T is an angle bisector of T': it joins a
    # vertex of T' with a midpoint of T, and the polar of Da passes through D
    cfg = random_cfg(hyp, rng)
    bis = join_points(cfg.Ap, cfg.D)
    assert pj.lines_equal(bis, cn.polar(hyp.absolute, cfg.Da), 1e-8) or \
        pj.incidence_residual(cn.polar(hyp.absolute, cfg.Da), cfg.D) < 1e-8


def test_symmetric_triangle_centers_on_axis(hyp):
    cfg = ce.build_config(hyp, affine_point(0.6, 0), affine_point(-0.2, 0.4),
                          affine_point(-0.2, -0.4))
    axis = pj.hline(0, 1, 0)
    rep = cfg.classical()
    on_axis = [b for _, b, _ in rep.barycenters
               if pj.incidence_residual(axis, b) < 1e-9]
    assert on_axis
    # the pseudo-Spieker point, where DD', EE' and FF' concur
    d = cfg.dual
    dd, ee, ff = (join_points(m, m2) for m, m2 in
                  ((cfg.D, d.D), (cfg.E, d.E), (cfg.F, d.F)))
    s = meet_lines(dd, ee)
    assert pj.incidence_residual(ff, s) < 1e-10
    assert pj.incidence_residual(axis, s) < 1e-9
    eu = cfg.euler()
    assert pj.lines_equal(eu.line, axis, 1e-8)


def test_pseudo_chain(hyp, ell, rng):
    for model in (hyp, ell):
        cfg = random_cfg(model, rng)
        ps = cfg.pseudo()
        for key, val in ps.residuals.items():
            assert val < 1e-9, key


def test_euler_line(hyp, ell, rng):
    for model in (hyp, ell):
        cfg = random_cfg(model, rng)
        eu = cfg.euler()
        assert eu.residuals["five_point_collinearity"] < 1e-9
        assert eu.residuals["orthic_axis_collinear"] < 1e-9
        assert eu.residuals["orthic_pole_is_Np"] < 1e-9
        assert eu.residuals["e_perp_orthic"] < 1e-9


def test_nine_point_conic(hyp, ell, rng):
    for model in (hyp, ell):
        cfg = random_cfg(model, rng)
        npc = cfg.nine_point()
        assert npc.residuals["nine_on_conic"] < 1e-9
        assert npc.residuals["eleven_on_conic"] < 1e-9
        assert npc.residuals["pascal_on_euler"] < 1e-9
        # independent oracle: refit from five of the nine members
        fit = cn.conic_through_five(list(npc.points[:5]))
        assert max(cn.conic_residual(fit, p) for p in npc.points) < 1e-8


def test_nine_point_symmetric_reflection(hyp):
    cfg = ce.build_config(hyp, affine_point(0.6, 0), affine_point(-0.2, 0.4),
                          affine_point(-0.2, -0.4))
    npc = cfg.nine_point()
    # the conic is symmetric about the x-axis: reflecting the members keeps
    # them on the conic
    for p in npc.points:
        refl = hpoint(p[0], -p[1], p[2])
        assert cn.conic_residual(npc.conic, refl) < 1e-9


def test_midpoint_quadrilateral_residual(hyp, ell, rng):
    for model in (hyp, ell):
        cfg = random_cfg(model, rng)
        res = ce.midpoint_quadrilateral_residual(cfg.mids_a, cfg.mids_b, cfg.mids_c)
        assert res < 1e-10


def test_concurrency_graph(hyp, ell, rng):
    # all six pairwise perspectivities of T, T', (1/2)T and (1/2)T'
    for model in (hyp, ell):
        cfg = random_cfg(model, rng)
        d = cfg.dual
        tris = ((cfg.A, cfg.B, cfg.C), (d.A, d.B, d.C),
                (cfg.D, cfg.E, cfg.F), (d.D, d.E, d.F))
        for us, vs in itertools.combinations(tris, 2):
            lines = (join_points(u, v) for u, v in zip(us, vs))
            assert pj.concurrency_residual(*lines) < 1e-9


def test_experimental_conjectures_report(hyp, rng):
    cfg = random_cfg(hyp, rng)
    rep = ce.experimental_conjectures(cfg)
    assert "self_polar_absolute" in rep
    assert "axis_symmetry" in rep
    assert isinstance(rep["gamma_is_ellipse"], bool)


def test_experimental_conjectures_report_only_geometry_errors(hyp, rng,
                                                              monkeypatch):
    # a degenerate sample is reported; a programming error propagates
    cfg = random_cfg(hyp, rng)

    def chart_degenerate(*args, **kwargs):
        raise errors.ChartDegenerate("injected")

    def type_error(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(cn, "sample_conic_points", chart_degenerate)
    rep = ce.experimental_conjectures(cfg)
    assert "ChartDegenerate" in rep["axis_symmetry_error"]
    assert "axis_symmetry" not in rep
    monkeypatch.setattr(cn, "sample_conic_points", type_error)
    with pytest.raises(TypeError):
        ce.experimental_conjectures(cfg)


def test_medial_shadow(hyp, ell, rng):
    # the side bisectors of T through D, E, F are the altitudes of the
    # medial triangle DEF
    for model in (hyp, ell):
        cfg = random_cfg(model, rng)
        medial_sides = {
            "D": join_points(cfg.E, cfg.F),
            "E": join_points(cfg.F, cfg.D),
            "F": join_points(cfg.D, cfg.E),
        }
        for vertex, bisector in (("D", join_points(cfg.Ap, cfg.D)),
                                 ("E", join_points(cfg.Bp, cfg.E)),
                                 ("F", join_points(cfg.Cp, cfg.F))):
            opp = medial_sides[vertex]
            altitude = join_points(
                {"D": cfg.D, "E": cfg.E, "F": cfg.F}[vertex],
                cn.pole(model.absolute, opp))
            assert pj.lines_equal(bisector, altitude, 1e-7)


# the slots a config builds eagerly
_EAGER = ("model", "A", "B", "C", "a", "b", "c", "ap", "bp", "cp",
          "Ap", "Bp", "Cp", "conjugate_side_pairs")
# the six incidence groups a config derives on first read, group by group
_LAZY_GROUPS = (
    ("Ab", "Ac", "Bc", "Ba", "Ca", "Cb"),
    ("aB", "aC", "bC", "bA", "cA", "cB",
     "ha", "hb", "hc", "H", "h", "HA", "HB", "HC", "A1", "B1", "C1"),
    ("A0", "B0", "C0"),
    ("mids_a", "mids_b", "mids_c"),
    ("mids_ap", "mids_bp", "mids_cp"),
    ("D", "E", "F", "Da", "Eb", "Fc"),
    ("Dp", "Ep", "Fp", "Dap", "Ebp", "Fcp"),
)
_LAZY = tuple(name for group in _LAZY_GROUPS for name in group)
# the slots derived on first read that may raise, and how callers read them
_REPORTS = {
    "iso_flags": lambda cfg: cfg.iso_flags,
    "complementary": lambda cfg: cfg.complementary,
    "complementary_dual": lambda cfg: cfg.dual.complementary,
    "magic": lambda cfg: cfg.magic,
    "_classical": lambda cfg: cfg.classical(),
    "_pseudo": lambda cfg: cfg.pseudo(),
    "_euler": lambda cfg: cfg.euler(),
    "_nine_point": lambda cfg: cfg.nine_point(),
}
_SCENE_PAIRS = (
    ("generic", "hyperbolic"), ("generic", "elliptic"),
    ("ext1", "hyperbolic"), ("ext2", "hyperbolic"), ("ext3", "hyperbolic"),
    ("quadrilateral", "hyperbolic"), ("hexagon", "hyperbolic"),
    ("right:elliptic", "elliptic"), ("right:hyp-right", "hyperbolic"),
    ("right:lambert", "hyperbolic"), ("right:pentagon", "hyperbolic"),
)


def _filled(cfg):
    """The slots of cfg that hold a value, read without deriving any."""
    out = set()
    for name in ce.PolarTriangleConfig.__slots__:
        try:
            object.__getattribute__(cfg, name)
        except AttributeError:
            continue
        out.add(name)
    return out


@pytest.mark.parametrize("geometry", ["hyperbolic", "elliptic"])
def test_lazy_slots_derive_on_first_read(monkeypatch, geometry):
    from ckgeom import lab
    calls = []
    midpoints = mt.midpoints

    def counting(*args, **kwargs):
        calls.append(1)
        return midpoints(*args, **kwargs)

    monkeypatch.setattr(mt, "midpoints", counting)
    scene = lab.random_triangle_config(lab.trial_rng(31, 0), geometry)
    cfg = ce.build_config(scene.model, scene.A, scene.B, scene.C)
    assert calls == []
    eager = set(_EAGER)
    assert set(ce.PolarTriangleConfig.__slots__) == eager.union(_LAZY, _REPORTS)
    assert _filled(cfg) == eager
    assert cfg.D is cfg.D
    assert len(calls) == 3
    assert {"A0", "B0", "C0", "mids_a", "D"} <= _filled(cfg)
    assert not {"mids_ap", "Dp", "H"} & _filled(cfg)
    with pytest.raises(AttributeError):
        cfg.no_such_slot
    # one read fills the slot's group and the groups it reads, no other:
    # the midpoint choice of T reads A0 and the midpoints of T, that of T'
    # A0 and the midpoints of T'
    reads = {5: (2, 3), 6: (2, 4)}
    for g, group in enumerate(_LAZY_GROUPS):
        want = set(group).union(*(_LAZY_GROUPS[r] for r in reads.get(g, ())))
        for name in group:
            fresh = ce.build_config(scene.model, scene.A, scene.B, scene.C)
            getattr(fresh, name)
            assert _filled(fresh) - eager == want
    forward = ce.build_config(scene.model, scene.A, scene.B, scene.C)
    backward = ce.build_config(scene.model, scene.A, scene.B, scene.C)
    want = [repr(getattr(forward, name)) for name in _LAZY]
    got = [repr(getattr(backward, name)) for name in reversed(_LAZY)]
    assert got[::-1] == want


def test_report_slots_derive_once_and_stay_unset_on_raise(monkeypatch):
    from ckgeom import lab
    scene = lab.random_triangle_config(lab.trial_rng(31, 0), "hyperbolic")
    for slot, read in _REPORTS.items():
        calls = []
        group = ce._DERIVED[slot]

        def counting(cfg, group=group, calls=calls):
            calls.append(1)
            group(cfg)

        with monkeypatch.context() as m:
            m.setitem(ce._DERIVED, slot, counting)
            cfg = ce.build_config(scene.model, scene.A, scene.B, scene.C)
            assert slot not in _filled(cfg)
            first = read(cfg)
            assert read(cfg) is first and calls == [1], slot
            assert object.__getattribute__(cfg, slot) is first
    # a raising group leaves its slot unset: the next read raises again,
    # and once the cause is gone the slot derives what a fresh config does
    def degenerate(*args, **kwargs):
        raise errors.DegenerateConic("injected")

    for slot, (module, name), value in (
            ("complementary", (mt, "midpoints"), _REPORTS["complementary"]),
            ("_nine_point", (cn, "eleven_point_conic"),
             lambda cfg: cfg.nine_point().points)):
        cfg = ce.build_config(scene.model, scene.A, scene.B, scene.C)
        with monkeypatch.context() as m:
            m.setattr(module, name, degenerate)
            for _ in range(2):
                with pytest.raises(errors.DegenerateConic):
                    value(cfg)
                assert slot not in _filled(cfg)
        fresh = ce.build_config(scene.model, scene.A, scene.B, scene.C)
        assert repr(value(cfg)) == repr(value(fresh))


def test_lazy_slots_never_reject_a_drawn_scene():
    # a lazy group that could raise would reject, on first read inside a
    # check, a scene the eager build accepted: none may raise on drawn scenes
    from ckgeom import lab
    for kind, geometry in _SCENE_PAIRS:
        for i in range(300):
            with ambient_tol(1e-8 if i % 2 else 1e-9):
                cfg = lab.random_triangle_config(lab.trial_rng(2026, i),
                                                 geometry, kind)
                for name in _LAZY:
                    getattr(cfg, name)


def test_dual_view_swaps_the_slots_of_t_and_its_polar_triangle(hyp, rng,
                                                               monkeypatch):
    swap = ce._SWAP
    assert all(swap[swap[name]] == name for name in swap)
    assert set(swap) <= set(ce.PolarTriangleConfig.__slots__)
    cfg = random_cfg(hyp, rng)
    fresh = ce.build_config(hyp, cfg.A, cfg.B, cfg.C)
    # T' is read, never rebuilt
    def rebuilt(*args, **kwargs):
        raise AssertionError("a config was built")

    monkeypatch.setattr(ce.PolarTriangleConfig, "__init__", rebuilt)
    d = cfg.dual
    assert d.dual is cfg
    # every read the swap maps, by hand: the view's name and the slot it reads
    same = [
        (d.model, cfg.model), (d.A0, cfg.A0), (d.B0, cfg.B0), (d.C0, cfg.C0),
        (d.A, cfg.Ap), (d.B, cfg.Bp), (d.C, cfg.Cp),
        (d.Ap, cfg.A), (d.Bp, cfg.B), (d.Cp, cfg.C),
        (d.a, cfg.ap), (d.b, cfg.bp), (d.c, cfg.cp),
        (d.ap, cfg.a), (d.bp, cfg.b), (d.cp, cfg.c),
        (d.Ab, cfg.Ba), (d.Ba, cfg.Ab), (d.Ac, cfg.Ca), (d.Ca, cfg.Ac),
        (d.Bc, cfg.Cb), (d.Cb, cfg.Bc),
        (d.mids_a, cfg.mids_ap), (d.mids_b, cfg.mids_bp),
        (d.mids_c, cfg.mids_cp), (d.mids_ap, cfg.mids_a),
        (d.mids_bp, cfg.mids_b), (d.mids_cp, cfg.mids_c),
        (d.D, cfg.Dp), (d.E, cfg.Ep), (d.F, cfg.Fp),
        (d.Dp, cfg.D), (d.Ep, cfg.E), (d.Fp, cfg.F),
        (d.Da, cfg.Dap), (d.Eb, cfg.Ebp), (d.Fc, cfg.Fcp),
        (d.Dap, cfg.Da), (d.Ebp, cfg.Eb), (d.Fcp, cfg.Fc),
        (d.complementary, cfg.complementary_dual),
        (d.complementary_dual, cfg.complementary),
    ]
    assert len(same) == len(swap)
    assert all(got is want for got, want in same)
    cfg.classical(), cfg.pseudo(), cfg.euler()
    # a name the swap does not map is no attribute of the view: the foot HA
    # of T, say, is not the foot on a' of T'
    for name in ("HA", "H", "magic", "iso_flags", "classical", "no_such"):
        assert not hasattr(d, name)
    # a write through the view lands in the primed slot
    fresh.dual.D = cfg.Dp
    assert object.__getattribute__(fresh, "Dp") is cfg.Dp
    assert "D" not in _filled(fresh)


def _gap(x, y):
    """Gap between two slot values: points and lines by `point_gap`, a
    midpoint pair under the better matching, other tuples entrywise."""
    if isinstance(x, (pj.HPoint, pj.HLine)):
        return pj.point_gap(x, y)
    if len(x) == 2:
        return min(max(_gap(x[0], y[0]), _gap(x[1], y[1])),
                   max(_gap(x[0], y[1]), _gap(x[1], y[0])))
    return max(_gap(u, v) for u, v in zip(x, y))


@pytest.mark.parametrize("geometry,kind", [
    ("hyperbolic", "generic"), ("elliptic", "generic"),
    ("hyperbolic", "ext1"), ("hyperbolic", "hexagon"),
])
def test_dual_view_is_the_config_of_the_polar_triangle(geometry, kind):
    # the config built on T' = A'B'C' holds, slot by slot, what the view
    # reads from the config of T (T'' = T)
    from ckgeom import lab
    for n in range(80):
        cfg = lab.random_triangle_config(lab.trial_rng(7, n), geometry, kind)
        polar = ce.build_config(cfg.model, cfg.Ap, cfg.Bp, cfg.Cp)
        d = cfg.dual
        assert polar.model is d.model
        for name in set(ce._SWAP) - {"model"}:
            assert _gap(getattr(polar, name), getattr(d, name)) <= 1e-12, (
                n, name)


# -- the one-pass build against the build through the kernel functions ------

def _outcome(build, model, pts):
    """repr of every eager slot a build fills, or the class and message of
    the error it raises."""
    try:
        slots = build(model, *pts)
    except errors.GeometryError as exc:
        return type(exc), str(exc)
    return tuple(repr(slots[name]) for name in _EAGER)


def _one_pass(model, *pts):
    cfg = ce.build_config(model, *pts)
    return {name: getattr(cfg, name) for name in _EAGER}


def _placed(pts, k, p):
    """pts with p at index k."""
    return tuple(p if i == k else q for i, q in enumerate(pts))


def _rotations(pts):
    """The three labellings of a triangle that keep its orientation, with
    its first point at A, then B, then C."""
    a, b, c = pts
    return ((a, b, c), (c, a, b), (b, c, a))


def _raise_sites(hyp, ell):
    """(model, vertices, the start of the message the build raises, or the
    conjugate side pairs it reads) for each site of the build."""
    t = get_tol()
    base = (affine_point(0.3, 0.1), affine_point(-0.2, 0.4),
            affine_point(0.1, -0.5))
    names = ("A", "B", "C")
    cases = [(hyp, (affine_point(0, 0), affine_point(0.3, 0),
                    affine_point(0.7, 0)), "vertices are collinear")]
    # each vertex on the absolute: a point of the unit circle, and a point
    # of the imaginary conic x^2 + y^2 + z^2 = 0
    for model, on in ((hyp, affine_point(0.6, 0.8)), (ell, hpoint(1, 1j, 0))):
        cases += [(model, _placed(base, k, on),
                   f"vertex {names[k]} lies on the absolute")
                  for k in range(3)]
    # each side tangent to the absolute: its pole, the polar vertex of the
    # same name, lies on it.  Two points of the tangent at (0.6, 0.8), and
    # two of the isotropic line x + iy = 0, with a point off the line
    for model, p, q, r in (
            (hyp, affine_point(0.2, 1.1), affine_point(1.0, 0.5),
             affine_point(-0.2, -0.3)),
            (ell, hpoint(-1j, 1, 1), hpoint(-2j, 2, 1), hpoint(0.3, 0.2, 1))):
        for name, pts in zip(("A'", "B'", "C'"), ((r, p, q), (q, r, p),
                                                  (p, q, r))):
            cases.append((model, pts, f"polar vertex {name} on the absolute"))
    # each join of two points within the coincidence tolerance, the third
    # point placed so the triangle is not collinear: |det| is about 1.8 t
    w = (1 / math.sqrt(2), -1 / math.sqrt(2), 0.0)
    d = 0.5 * math.sqrt(3) * t
    p, q = hpoint(1, 1, 1), hpoint(1 + d * w[0], 1 + d * w[1], 1)
    far = hpoint(-0.5, -0.5, 1)
    for pts in ((far, p, q), (q, far, p), (p, q, far)):
        cases.append((hyp, pts, "join of coincident points"))
    # (A, C): the test of `points_equal(A, C)` passes where the join
    # b = (C, A) of the same two points is not taken as coincident, at the
    # rounding of the threshold (found by a scan of the last coordinate)
    cases.append((hyp, (hpoint(1.0, 0.6 + 7e-13,
                               float.fromhex("0x1.408f57712324cp-30")),
                        hpoint(-0.6, 1, 0), hpoint(1.0, 0.6, 0.0)),
                  "vertices A and C coincide"))
    # (A, A'), (B, B'), (C, C'): a vertex at the pole of its opposite side
    for model in (hyp, ell):
        for k, name in enumerate(names):
            u, v = (q for i, q in enumerate(base) if i != k)
            pole = cn.pole(model.absolute, join_points(v, u) if k == 1
                           else join_points(u, v))
            cases.append((model, _placed(base, k, pole),
                          f"vertices {name} and {name}' coincide"))
    # (A', B'), (A', C'), (B', C'): two sides within the tolerance of each
    # other, though the vertices are not collinear: a close pair of points
    # and a far one on the line y = 0, the far one lifted off it.  The pair
    # of polar vertices away from the far vertex coincides.
    near, close = hpoint(1, 0, 1), hpoint(1, 0, 0.9)
    lifted = hpoint(1, 20 * t, -1)
    for pts, pair in (((near, close, lifted), "A' and B'"),
                      ((near, lifted, close), "A' and C'"),
                      ((lifted, near, close), "B' and C'")):
        cases.append((ell, pts, f"vertices {pair} coincide"))
    # A vertex is conjugate to the poles of the two sides through it, so A
    # and B' (and each such pair) coincide only on a vertex within about
    # 9 t of the absolute, which the test at 1e3 t rejects first: those six
    # pair tests are never reached.
    # two sites at once: the first in the build's order raises
    cases += [
        (hyp, (affine_point(0.6, 0.8), affine_point(0.3, 0.4),
               affine_point(0, 0)), "vertices are collinear"),
        (hyp, (affine_point(0.6, 0.8), affine_point(-0.8, 0.6),
               affine_point(0.1, -0.2)), "vertex A lies on the absolute"),
        (hyp, (affine_point(-0.4, 1), affine_point(1, -0.5),
               affine_point(1, 1)), "polar vertex A' on the absolute"),
    ]
    cases += [(model, (hpoint(1, 0, 0), hpoint(0, 1, 0), hpoint(0, 0, 1)),
               "vertices A and A' coincide") for model in (hyp, ell)]
    # each conjugate side pair: a right angle at A, B and C
    right = (affine_point(0, 0), affine_point(0.5, 0), affine_point(0, 0.5))
    for model in (hyp, ell):
        for pts, pairs in zip(_rotations(right), (("bc",), ("ca",), ("ab",))):
            cases.append((model, pts, pairs))
    return cases


def _conjugacy_threshold(model, A, B, w):
    """The two adjacent positions of C = A + P/2 + s w, P the pole of
    c = AB, between which sides b and c stop being conjugate under
    `oracle_build`, by bisection of s in [0, 1/2]."""
    P = cn.pole(model.absolute, join_points(A, B))

    def triangle(s):
        return A, B, hpoint(*(a + 0.5 * p + s * x
                              for a, p, x in zip(A, P, w)))

    lo, hi = 0.0, 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return triangle(lo), triangle(hi)
        if "bc" in oracle_build(model, *triangle(mid))["conjugate_side_pairs"]:
            lo = mid
        else:
            hi = mid


# an absolute whose dual rows are not signed units, so that a raw pole
# adj(M).l is not already normalized: its conjugacy test rounds apart from
# the same test on the normalized pole
_SKEWED = mt.ModelGeometry(cn.Conic.from_matrix(
    ((1.0, 0.3, 0.1), (0.3, 0.8, -0.2), (0.1, -0.2, -0.7))))


def test_one_pass_build_raises_as_the_kernel_functions_do(hyp, ell):
    # every raise site of the build is reached, and the one-pass build
    # raises there with the class and message of the build through the
    # kernel functions, or fills the same eager slots bit for bit
    with ambient_tol(1e-9):
        for model, pts, expected in _raise_sites(hyp, ell):
            want = _outcome(oracle_build, model, pts)
            if isinstance(expected, str):
                assert want[1].startswith(expected), (expected, want)
            else:
                assert want[-1] == repr(expected), want
            assert _outcome(_one_pass, model, pts) == want, expected
        # the last conjugate and the first non-conjugate triangle on a path
        # through a right angle at A; on the skewed absolute, the tests of
        # the raw and of the normalized pole part on about a fifth of them
        rng = random.Random(36)
        for model in (hyp, ell) + (_SKEWED,) * 20:
            A, B = (affine_point(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                    for _ in range(2))
            w = (rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0)
            inside, outside = _conjugacy_threshold(model, A, B, w)
            for pts, pairs in ((inside, ("bc",)), (outside, ())):
                want = _outcome(oracle_build, model, pts)
                assert want[-1] == repr(pairs)
                assert _outcome(_one_pass, model, pts) == want


def test_one_pass_build_equals_the_kernel_functions_on_drawn_scenes(
        monkeypatch):
    # every triangle a draw of each kind builds, accepted or not; for each
    # drawn scene, its polar triangle, the triangle with C moved to the pole
    # of AB (C and C' swap) and the one with C moved onto AB (collinear);
    # each in all six labellings, at two tolerances
    from ckgeom import lab
    built = []
    build = ce.build_config

    def recording(model, *pts):
        built.append((model, pts))
        return build(model, *pts)

    monkeypatch.setattr(ce, "build_config", recording)
    for kind, geometry in _SCENE_PAIRS:
        for i in range(12):
            cfg = lab.random_triangle_config(lab.trial_rng(2027, i), geometry,
                                             kind)
            built += [(cfg.model, (cfg.Ap, cfg.Bp, cfg.Cp)),
                      (cfg.model, (cfg.A, cfg.B, cfg.Cp)),
                      (cfg.model, (cfg.A, cfg.B, hpoint(
                          *(x + y for x, y in zip(cfg.A, cfg.B)))))]
    monkeypatch.undo()
    raised = 0
    for tol in (1e-9, 1e-6):
        with ambient_tol(tol):
            for model, pts in built:
                for labels in itertools.permutations(pts):
                    want = _outcome(oracle_build, model, labels)
                    raised += isinstance(want[0], type)
                    assert _outcome(_one_pass, model, labels) == want
    assert raised


# -- the pair tests the build leaves out ---------------------------------------

# each vertex with the pole of a side through it, and that side's other end:
# (vertex, polar vertex, other end) as indices into A, B, C, A', B', C'
_UNTESTED_PAIRS = ((0, 4, 2), (0, 5, 1), (1, 3, 2), (1, 5, 0), (2, 3, 1),
                   (2, 4, 0))


def _unit_gap(x, y):
    """|x x y| / (|x| |y|): the quantity `points_equal` compares with tol."""
    return pj.point_gap(x, y) / math.sqrt(
        sum(abs(c) ** 2 for c in x) * sum(abs(c) ** 2 for c in y))


def _conjugacy(model, x, y):
    """|x^T.M.y| and |Q(x)| on the normalized absolute."""
    phi = model.absolute
    return abs(pj.dot(x, phi.apply(y))), abs(phi.value(x))


def test_a_vertex_meets_the_pole_of_a_side_through_it_only_on_the_absolute(
        hyp, ell):
    # The build runs 7 of the 15 pair tests.  A vertex X is conjugate to the
    # pole P of each side through it, so X within tol of P puts |Q(X)| within
    # ||M|| |X|^2 tol <= 9 tol, and the vertex test at 1e3 tol raises first.
    from ckgeom import lab
    # on drawn scenes of every kind, X^T.M.P is rounding and the bound holds
    with ambient_tol(1e-9):
        for kind, (models, _) in lab.KINDS.items():
            for geometry in models:
                for counter in range(40):
                    cfg = lab.random_triangle_config(
                        lab.trial_rng(0, counter), geometry, kind)
                    verts = (cfg.A, cfg.B, cfg.C, cfg.Ap, cfg.Bp, cfg.Cp)
                    for i, j, _ in _UNTESTED_PAIRS:
                        x, p = verts[i], verts[j]
                        xmp, q = _conjugacy(cfg.model, x, p)
                        assert xmp <= 1e-14, (kind, counter, i, j)
                        norm = sum(abs(c) ** 2 for c in x)
                        assert q <= 3 * norm * _unit_gap(x, p) + 1e-14
    # near-coincidences: X within a few tol of a point X0 of the absolute
    # and the side's other end on the tangent at X0, so that the pole of
    # that side lies within 10 tol of X, on a real and an imaginary absolute
    # and on a skewed one; each raises at a vertex test
    rng = random.Random(37)
    reached = 0
    for tol in (1e-9, 1e-6):
        with ambient_tol(tol):
            for model in (hyp, ell, _SKEWED):
                for _ in range(20):
                    line = pj.hline(rng.uniform(-1, 1), rng.uniform(-1, 1),
                                    rng.uniform(-0.3, 0.3))
                    x0 = cn.line_conic_meet(model.absolute, line).points[0]
                    tangent = cn.polar(model.absolute, x0)
                    other = meet_lines(tangent, pj.hline(
                        rng.uniform(-1, 1), rng.uniform(-1, 1), 1))
                    third = affine_point(rng.uniform(-0.5, 0.5),
                                         rng.uniform(-0.5, 0.5))
                    for i, j, k in _UNTESTED_PAIRS:
                        shift = [complex(rng.gauss(0, 1), rng.gauss(0, 1))
                                 for _ in range(3)]
                        size = 3 * tol * rng.random() / math.sqrt(
                            sum(abs(c) ** 2 for c in shift))
                        x = hpoint(*(a + size * s for a, s in zip(x0, shift)))
                        pts = [third] * 3
                        pts[i], pts[k] = x, other
                        side = join_points(x, other)
                        p = cn.pole(model.absolute, side)
                        if _unit_gap(x, p) > 10 * tol:
                            continue
                        reached += 1
                        assert _conjugacy(model, x, p)[0] <= 1e-14
                        want = _outcome(oracle_build, model, pts)
                        assert want[0] is errors.GeneralPositionViolation
                        assert want[1].startswith(("vertex", "polar vertex"))
                        assert _outcome(_one_pass, model, pts) == want
    assert reached >= 200


# -- the isosceles flags against the cross ratios of the traces ---------------

def test_isosceles_flags_equal_the_cross_ratio_flags_on_drawn_scenes():
    from ckgeom import lab
    for tol in (1e-9, 1e-8):
        with ambient_tol(tol):
            for seed in range(3):
                for geometry in ("hyperbolic", "elliptic"):
                    for counter in range(2000):
                        cfg = lab.random_triangle_config(
                            lab.trial_rng(seed, counter), geometry)
                        want = tuple(g <= tol
                                     for g in oracle_isosceles_gaps(cfg))
                        assert cfg.iso_flags == want, (seed, counter)


def _pushed_off_isosceles(model, rng):
    """A triangle isosceles at A, turned about the center of the chart, with
    C then pushed 1e-12 to 1e-3 off in a random direction."""
    r = 0.85 if model.kind == mt.HYPERBOLIC else 3.0
    while True:
        x, u, v = rng.uniform(-r, r), rng.uniform(-r, r), rng.uniform(0.05, r)
        turn = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(turn), math.sin(turn)
        pts = [(c * px - s * py, s * px + c * py)
               for px, py in ((x, 0), (u, v), (u, -v))]
        if model.kind == mt.ELLIPTIC or all(
                px * px + py * py < 0.9 for px, py in pts):
            break
    push, way = 10 ** rng.uniform(-12, -3), rng.uniform(0, 2 * math.pi)
    cx, cy = pts[2]
    pts[2] = (cx + push * math.cos(way), cy + push * math.sin(way))
    return [affine_point(*p) for p in pts]


def test_isosceles_flags_part_from_the_cross_ratio_test_only_near_tol(hyp, ell):
    # the closed form restates the cross-ratio test to first order: the two
    # flags agree unless the cross-ratio gap is within a factor of 2 of tol
    rng = random.Random(38)
    flagged = {True: 0, False: 0}
    near = 0
    for model in (hyp, ell):
        for _ in range(300):
            pts = _pushed_off_isosceles(model, rng)
            for tol in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4):
                with ambient_tol(tol):
                    try:
                        cfg = ce.build_config(model, *pts)
                        gaps = oracle_isosceles_gaps(cfg)
                    except errors.GeometryError:
                        continue
                    for flag, gap in zip(cfg.iso_flags, gaps):
                        if tol / 2 <= gap <= 2 * tol:
                            near += 1
                            continue
                        assert flag == (gap <= tol), (tol, gap)
                        flagged[flag] += 1
    assert min(flagged.values()) >= 300 and near < 0.05 * sum(flagged.values())

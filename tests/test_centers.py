import math

import pytest

from ckgeom import centers as ce
from ckgeom import conics as cn
from ckgeom import errors
from ckgeom import metric as mt
from ckgeom import projective as pj
from ckgeom.projective import affine_point, hpoint, join_points, points_equal
from conftest import exterior_point, interior_point


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
    from ckgeom import trig as tg
    sym = ce.build_config(hyp, affine_point(0.6, 0), affine_point(-0.2, 0.4),
                          affine_point(-0.2, -0.4))
    m = tg.magic_triangle(sym)
    assert pj.concurrency_residual(sym.a, sym.ap, m.a) < 1e-9
    gen = random_cfg(hyp, rng)
    if not any(gen.iso_flags):
        mg = tg.magic_triangle(gen)
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
        t = cfg.tol
        avoid = (cfg.A0, cfg.B0, cfg.C0)
        for pairs, chosen in (
            ((cfg.mids_a, cfg.mids_b, cfg.mids_c),
             (cfg.D, cfg.E, cfg.F, cfg.Da, cfg.Eb, cfg.Fc)),
            ((cfg.mids_ap, cfg.mids_bp, cfg.mids_cp),
             (cfg.Dp, cfg.Ep, cfg.Fp, cfg.Dap, cfg.Ebp, cfg.Fcp)),
        ):
            got = list(ce.midpoint_assignments(pairs, t, avoid))
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
            free = list(ce.midpoint_assignments(pairs, t))
            only_a1 = list(ce.midpoint_assignments(
                pairs, t, (pairs[0][0], cfg.A, cfg.A)))
            assert only_a1 == [g for g in free if g[0][0] == 1]
        free = [b for b, _ in ce.midpoint_assignments(
            (cfg.mids_a, cfg.mids_b, cfg.mids_c), t)]
        assert [b for b, _, _ in cfg.classical().barycenters] == free


def test_classical_centers(hyp, ell, rng):
    for model in (hyp, ell):
        cfg = random_cfg(model, rng)
        rep = ce.classical_centers(cfg)
        assert len(rep.barycenters) == 4
        assert len(rep.circumcenters) == 4
        assert len(rep.incenters) == 4
        assert max(b[2] for b in rep.barycenters) < 1e-9
        assert max(o[2] for o in rep.circumcenters) < 1e-9
        assert max(i[2] for i in rep.incenters) < 1e-9


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
    s, res = ce.pseudo_spieker(cfg)
    assert res < 1e-10
    assert pj.incidence_residual(axis, s) < 1e-9
    eu = cfg.euler()
    assert pj.lines_equal(eu.line, axis, 1e-8)


def test_pseudo_chain(hyp, ell, rng):
    for model in (hyp, ell):
        cfg = random_cfg(model, rng)
        ps = ce.pseudo_centers(cfg)
        for key, val in ps.residuals.items():
            assert val < 1e-9, key


def test_euler_line(hyp, ell, rng):
    for model in (hyp, ell):
        cfg = random_cfg(model, rng)
        eu = ce.euler_wildberger(cfg)
        assert eu.residuals["five_point_collinearity"] < 1e-9
        assert eu.residuals["orthic_axis_collinear"] < 1e-9
        assert eu.residuals["orthic_pole_is_Np"] < 1e-9
        assert eu.residuals["e_perp_orthic"] < 1e-9


def test_nine_point_conic(hyp, ell, rng):
    for model in (hyp, ell):
        cfg = random_cfg(model, rng)
        npc = ce.nine_point_conic(cfg)
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
    for model in (hyp, ell):
        cfg = random_cfg(model, rng)
        assert ce.concurrency_graph_residual(cfg) < 1e-9


def test_experimental_conjectures_report(hyp, rng):
    cfg = random_cfg(hyp, rng)
    rep = ce.experimental_conjectures(cfg)
    assert "self_polar_absolute" in rep
    assert "axis_symmetry" in rep
    assert isinstance(rep["gamma_is_ellipse"], bool)


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

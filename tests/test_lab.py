import math

import pytest

from ckgeom import errors, lab
from ckgeom import projective as pj
from ckgeom.projective import affine_point, hpoint


def test_scene_determinism():
    spec = lab.SceneSpec(seed=1, geometry="hyperbolic", kind="generic")
    cfg1 = lab.random_scene(spec, trial=0)
    cfg2 = lab.random_scene(spec, trial=0)
    # bit-for-bit identical coordinates
    assert cfg1.A == cfg2.A and cfg1.B == cfg2.B and cfg1.C == cfg2.C
    cfg3 = lab.random_scene(spec, trial=1)
    assert cfg3.A != cfg1.A


def test_scene_kinds():
    from ckgeom import trig as tg
    rng = lab.trial_rng(9, 0)
    right = lab.random_triangle_config(rng, "hyperbolic", "right:lambert")
    assert right.conjugate_side_pairs == ("bc",)
    assert tg.right_angled_kind(right) == tg.LAMBERT
    rng = lab.trial_rng(9, 1)
    hexa = lab.random_triangle_config(rng, "hyperbolic", "hexagon")
    assert all(not hexa.model.is_interior(v) for v in (hexa.A, hexa.B, hexa.C))
    assert tg.classify_generalized(hexa) == tg.HEXAGON
    rng = lab.trial_rng(9, 2)
    iso = lab.random_triangle_config(rng, "hyperbolic", "isosceles")
    assert any(iso.iso_flags)


def test_verify_certificate():
    cert = lab.verify("desargues", seed=7, trials=50)
    assert cert.passed
    assert cert.trials == 50
    assert cert.max_residual <= cert.tolerance
    d = cert.to_dict()
    assert d["theorem"] == "desargues" and d["passed"]
    with pytest.raises(errors.UnknownTheorem):
        lab.verify("nope", trials=1)


def test_verify_reproducible():
    c1 = lab.verify("medians", seed=3, trials=25)
    c2 = lab.verify("medians", seed=3, trials=25)
    assert c1.max_residual == c2.max_residual


def test_report_only_conjectures():
    cert = lab.verify("conjectures", seed=1, trials=5)
    assert cert.report_only
    assert cert.passed  # never gates, whatever the residuals


def test_perturbation_guard_detects():
    frac = lab.perturbation_guard("altitudes", seed=1, trials=50)
    assert frac >= 0.99
    frac2 = lab.perturbation_guard("nine_point_conic", seed=1, trials=30)
    assert frac2 >= 0.99


def test_carnot_projective_guard_detects():
    # the perturbation moves the transversal's defining point, so X0 leaves
    # the line through Y0, Z0 and the Carnot product moves off 1
    frac = lab.perturbation_guard("carnot_projective", seed=5, trials=200)
    assert frac >= 0.99


def _fake_check(seen):
    """A check that rejects a fifth of its draws with None and a fifth with
    a GeometryError, and otherwise returns its uniform draw as residual."""
    def check(rng, geometry, tol, perturb=0.0):
        u = rng.uniform()
        if u < 0.2:
            return None
        if u < 0.4:
            raise errors.GeneralPositionViolation("rejected draw")
        seen.append(u)
        return u
    return check


def test_trial_driver_rejection_semantics(monkeypatch):
    seed, trials, tol = 4, 40, 0.7
    accepted, over = [], []
    counter = 0
    while len(accepted) < trials:
        u = lab.trial_rng(seed, counter).uniform()
        if u >= 0.4:
            accepted.append(u)
            if u > tol:
                over.append(counter)
        counter += 1
    assert len(accepted) < counter  # the stream does reject some draws
    by_verify, by_guard = [], []
    monkeypatch.setitem(lab.THEOREMS, "fake",
                        (_fake_check(by_verify), ("hyperbolic",), False))
    cert = lab.verify("fake", seed=seed, trials=trials, tol=tol)
    assert cert.failures == over
    assert by_verify == accepted and cert.max_residual == max(accepted)
    monkeypatch.setitem(lab.THEOREMS, "fake",
                        (_fake_check(by_guard), ("hyperbolic",), False))
    frac = lab.perturbation_guard("fake", seed=seed, trials=trials,
                                  threshold=tol)
    assert by_guard == accepted
    assert frac == len(over) / trials


def test_trial_driver_exhausts(monkeypatch):
    trials = 3
    calls = []

    def never(rng, geometry, tol, perturb=0.0):
        calls.append(1)
        return None

    monkeypatch.setitem(lab.THEOREMS, "never", (never, ("hyperbolic",), False))
    for run in (lab.verify, lab.perturbation_guard):
        calls.clear()
        with pytest.raises(errors.SamplingExhausted):
            run("never", seed=0, trials=trials)
        # one cap for both entry points: RETRY_CAP + 5 * trials rejections
        assert len(calls) == lab.RETRY_CAP + 5 * trials + 1


def test_lazy_isosceles_flags():
    for kind in ("generic", "isosceles"):
        for i in range(10):
            cfg = lab.random_triangle_config(lab.trial_rng(11, i), "hyperbolic", kind)
            assert "iso_flags" not in cfg._cache
            flags = cfg.iso_flags
            assert flags == cfg._isosceles_flags()
            assert cfg._cache["iso_flags"] is flags
            if kind == "isosceles":
                assert any(flags)


def test_pentagon_builds_once_per_scene(monkeypatch):
    from ckgeom import centers as ce
    from ckgeom import trig as tg
    builds = []
    build = ce.build_config

    def counting(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(ce, "build_config", counting)
    for i in range(20):
        cfg = lab.random_triangle_config(lab.trial_rng(3, i), "hyperbolic",
                                         "right:pentagon")
        assert tg.right_angled_kind(cfg) == tg.PENTAGON
    assert len(builds) == 20


def test_oracle_cross_ratio_matches_determinant(rng):
    # hand value and random agreement between the chart oracle and the
    # determinant implementation
    pts = [affine_point(t, 0) for t in (0, 1, 2, 3)]
    assert abs(lab.oracle_cross_ratio(*pts) - 4.0 / 3.0) < 1e-14
    for _ in range(40):
        ts = [rng.uniform(-5, 5) for _ in range(4)]
        if min(abs(ts[i] - ts[j]) for i in range(4)
               for j in range(i + 1, 4)) < 1e-2:
            continue
        base = affine_point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        d = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        pts = [hpoint(base[0] + t * d[0], base[1] + t * d[1], 1.0) for t in ts]
        v1 = lab.oracle_cross_ratio(*pts)
        v2 = pj.cross_ratio_points(*pts)
        assert abs(v1 - v2) < 1e-9 * max(1.0, abs(v2))


def test_oracle_cross_ratio_harmonic_fallback():
    # a point at chart infinity falls back to the harmonic-ratio form
    pts = [affine_point(0, 0), affine_point(1, 0), affine_point(3, 0),
           hpoint(1, 0, 0)]
    v = lab.oracle_cross_ratio(*pts)
    assert abs(v - 1.5) < 1e-12  # [AC]/[BC] = 3/2

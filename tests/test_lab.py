import ast
import hashlib
import inspect
import math
import textwrap
from pathlib import Path

import numpy as np
import pytest

from ckgeom import centers as ce
from ckgeom import conics as cn
from ckgeom import errors, lab
from ckgeom import metric as mt
from ckgeom import projective as pj
from ckgeom import trig as tg
from ckgeom.projective import affine_point, hpoint
from ckgeom.philox import Philox
from conftest import ambient_tol, cert_fields
from oracles import (
    numpy_philox,
    oracle_cross_ratio,
    oracle_right_moves_on,
    oracle_try_right,
)


def _exterior(cfg):
    return sum(not cfg.model.is_interior(v) for v in (cfg.A, cfg.B, cfg.C))


def _right(figure):
    return lambda cfg: (cfg.conjugate_side_pairs == ("bc",)
                        and tg.right_angled_kind(cfg) == figure)


def _points(n_ext):
    return lambda cfg: _exterior(cfg) == n_ext and not cfg.is_right_angled()


# what makes a config a figure of each kind of lab.KINDS
FIGURES = {
    "generic": _points(0), "ext1": _points(1), "ext2": _points(2),
    "ext3": _points(3),
    "quadrilateral": lambda cfg: (
        tg.classify_generalized(cfg) == tg.QUADRILATERAL_2R),
    "hexagon": lambda cfg: (_exterior(cfg) == 3
                            and tg.classify_generalized(cfg) == tg.HEXAGON),
    "right:elliptic": _right(tg.ELLIPTIC_RIGHT),
    "right:hyp-right": _right(tg.HYPERBOLIC_RIGHT),
    "right:lambert": _right(tg.LAMBERT),
    "right:pentagon": _right(tg.PENTAGON),
}


@pytest.mark.parametrize("kind,geometry", [
    (kind, geometry) for kind, (models, _) in lab.KINDS.items()
    for geometry in models])
def test_kinds_draw_their_figures(kind, geometry):
    # a kind draws the same scene from the same trial, another at the next
    # trial, a figure of its kind each time, and exists in its models only
    for c in range(3):
        cfg = lab.random_triangle_config(lab.trial_rng(9, c), geometry, kind)
        again = lab.random_triangle_config(lab.trial_rng(9, c), geometry, kind)
        # bit-for-bit identical coordinates
        assert (cfg.A, cfg.B, cfg.C) == (again.A, again.B, again.C)
        assert cfg.model.kind == geometry
        assert FIGURES[kind](cfg), c
        other = lab.random_triangle_config(lab.trial_rng(9, c + 1), geometry,
                                           kind)
        assert other.A != cfg.A
    models = lab.KINDS[kind][0]
    for other in {"hyperbolic", "elliptic", "Hyperbolic"} - set(models):
        with pytest.raises(errors.UnknownTheorem):
            lab.random_triangle_config(lab.trial_rng(9, 0), other, kind)


@pytest.mark.parametrize("draw", [
    lambda rng: lab.random_triangle_config(rng, "Hyperbolic"),
    lambda rng: lab.random_triangle_config(rng, "hyperbolic", "right:elliptic"),
    lambda rng: lab.random_triangle_config(rng, "elliptic", "hexagon"),
    lambda rng: lab.SAMPLERS["orient"](rng, "elliptic"),
], ids=["unknown-model", "right-elliptic", "elliptic-hexagon", "orient"])
def test_a_kind_outside_its_models_raises_before_any_draw(draw):
    # each call asks for a model that the row of its kind in lab.KINDS lacks
    rng = lab.trial_rng(0, 0)
    with pytest.raises(errors.UnknownTheorem):
        draw(rng)
    assert rng.uniform() == lab.trial_rng(0, 0).uniform()


@pytest.mark.parametrize("name", ["Hyperbolic", "foo"])
def test_an_unknown_model_name_raises_and_stores_nothing(name):
    with pytest.raises(errors.UnknownTheorem):
        lab.model_for(name)
    assert name not in lab._MODELS
    for geometry in (lab.HYPERBOLIC, lab.ELLIPTIC):
        assert lab.model_for(geometry).kind == geometry
        assert lab.model_for(geometry) is lab.model_for(geometry)


def test_every_sampler_draws_in_the_models_of_its_rows():
    pairs = {(check.samplers[g], g) for check, geoms, _ in lab.THEOREMS.values()
             for g in geoms if g in getattr(check, "samplers", {})}
    assert {name for name, _ in pairs} == set(lab.SAMPLERS)
    for name, geometry in sorted(pairs):
        cfg = lab.SAMPLERS[name](lab.trial_rng(0, 0), geometry)
        assert isinstance(cfg, ce.PolarTriangleConfig), name
        assert cfg.model.kind == geometry, name


def test_every_kind_is_drawn_by_a_sampler(monkeypatch):
    # a row of lab.KINDS that no sampler of a THEOREMS row draws is code
    # only tests reach
    drawn = set()

    def recorder(rng, geometry, kind="generic"):
        drawn.add(kind)

    monkeypatch.setattr(lab, "random_triangle_config", recorder)
    for name, geometry, _ in _sampler_models():
        for counter in range(64):
            lab.SAMPLERS[name](lab.trial_rng(0, counter), geometry)
    assert drawn == set(lab.KINDS)


def _catches_geometry_error(handler):
    caught = handler.type
    names = (caught.elts if isinstance(caught, ast.Tuple) else [caught])
    return any(node is None or getattr(node, "id", getattr(node, "attr", None))
               in ("GeometryError", "Exception", "BaseException")
               for node in names)


def test_only_the_trial_driver_and_retrying_draws_catch_geometry_errors():
    # a check rejects its scene by returning None or raising; the driver
    # alone turns a raise into a rejection, so it sees every raised class
    tree = ast.parse(inspect.getsource(lab))
    catching = [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn) if isinstance(node, ast.ExceptHandler)
                and _catches_geometry_error(node)]
    assert sorted(catching) == ["_tangent_triangle", "_trials", "_try_right",
                                "random_triangle_config"]


def test_readme_lists_the_kinds_and_their_models():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("| kind | models |", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for row in section.splitlines()[2:]:
        kind, models = row.split("|")[1:3]
        listed[kind.strip().strip("`")] = {m.strip() for m in models.split(",")}
    assert listed == {kind: set(models)
                      for kind, (models, _) in lab.KINDS.items()}


def test_verify_certificate():
    cert = lab.verify("desargues", seed=7, trials=50)
    assert cert.passed
    assert cert.trials == 50
    assert cert.max_residual <= cert.tolerance
    d = cert.to_dict()
    assert d["theorem"] == "desargues" and d["passed"]
    with pytest.raises(errors.UnknownTheorem):
        lab.verify("nope", trials=1)


@pytest.mark.parametrize("trials", (0, -3))
def test_runs_of_no_scenes_are_rejected(trials):
    # a certificate of no scenes would pass without certifying anything
    with pytest.raises(ValueError, match="trials must be at least 1"):
        lab.verify("pascal", trials=trials)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        lab.perturbation_guard("altitudes", trials=trials)


@pytest.mark.parametrize("trials", (2.5, 3.0, "3"))
def test_runs_of_a_non_integer_count_are_rejected(trials):
    # 2.5 trials ran 3 scenes and reported trials=2.5
    with pytest.raises(ValueError, match="trials must be an integer"):
        lab.verify("pascal", trials=trials)
    with pytest.raises(ValueError, match="trials must be an integer"):
        lab.perturbation_guard("altitudes", trials=trials)


def test_a_model_without_a_certificate_is_rejected():
    # ray_angles is certified in the hyperbolic model only; asking for the
    # elliptic one must not certify the hyperbolic one instead
    for run in (lab.verify, lab.perturbation_guard):
        with pytest.raises(errors.UnknownTheorem, match="only in hyperbolic"):
            run("ray_angles", trials=1, geometry="elliptic")


# sha256 of (id, model, max_residual.hex(), failures) over the 70 certificates
# of every id in each of its models, seed 20, 100 trials, tol 1e-9.  The
# certificates are a pure function of the code, so a refactor must leave
# this digest as it is.  A change that means to move the numbers records the
# new digest here and says in CHANGES.md why the numbers moved.
CERTIFICATES_DIGEST = (
    "518c45bc772b724c661ad43bce094d6cc57587458e3321f9d0e53678ebd50b05")


def test_certificates_match_the_recorded_digest():
    h = hashlib.sha256()
    n = 0
    for tid in lab.theorem_ids():
        for geometry in lab.THEOREMS[tid][1]:
            cert = lab.verify(tid, seed=20, trials=100, geometry=geometry,
                              tol=1e-9)
            h.update(repr((tid, geometry, cert.max_residual.hex(),
                           list(cert.failures))).encode())
            n += 1
    assert n == 70
    assert h.hexdigest() == CERTIFICATES_DIGEST


# CERTIFICATES_DIGEST reads only each run's worst residual and failures; a
# moved bit in any other trial shows here.  sha256 of (id, model, eps,
# counter, residual) of every trial of the 70 runs at seed 20, 30 trials and
# tol 1e-9, plain and perturbed by the guard's eps.
TRIALS_DIGEST = (
    "5d94b3c5c611e5d0d88c78a055276b64b05290a3f38ca89c0c982238ea3277de")


def test_every_trial_matches_the_recorded_digest():
    h = hashlib.sha256()
    n = 0
    with ambient_tol(1e-9):
        for tid in lab.theorem_ids():
            for model in lab.THEOREMS[tid][1]:
                for eps in (0.0, 1e-3):
                    for counter, res in lab._trials(tid, 20, 30, model, 1e-9,
                                                    eps):
                        h.update(repr((tid, model, eps, counter,
                                       res.hex())).encode())
                        n += 1
    assert n == 140 * 30
    assert h.hexdigest() == TRIALS_DIGEST


# The draw itself, apart from any check: sha256 of (kind, model, counter,
# entry, generator state after the draw) for every (kind, model) row of
# KINDS at seed 0 and counters 0-199, where the entry is the float.hex of
# each coordinate of every eager slot and the conjugate side pairs, or the
# class of the error the draw raised.  A change that means to keep every
# draw leaves this digest as it is.
SCENES_DIGEST = (
    "ef75ec99776b32c9a69e4da831215e8002b2b74a306e06d986e1488cdb0c8791")

_EAGER = ("A", "B", "C", "a", "b", "c", "ap", "bp", "cp", "Ap", "Bp", "Cp")


def _draws_digest(kinds, tol):
    """(count, sha256) of the draws of SCENES_DIGEST for the rows of
    `kinds` at tolerance `tol`."""
    h = hashlib.sha256()
    n = 0
    with ambient_tol(tol):
        for kind in kinds:
            for model in lab.KINDS[kind][0]:
                for counter in range(200):
                    rng = lab.trial_rng(0, counter)
                    try:
                        cfg = lab.random_triangle_config(rng, model, kind)
                    except errors.GeometryError as exc:
                        entry = type(exc).__name__
                    else:
                        entry = (tuple(x.hex() for name in _EAGER
                                       for z in getattr(cfg, name)
                                       for x in (z.real, z.imag)),
                                 cfg.conjugate_side_pairs)
                    h.update(repr((kind, model, counter, entry,
                                   rng.state)).encode())
                    n += 1
    return n, h.hexdigest()


def test_every_draw_matches_the_recorded_digest():
    assert _draws_digest(lab.KINDS, 1e-9) == (11 * 200, SCENES_DIGEST)


# The same for the four right-angled rows at tol 1e-8, where the trig checks
# of the bench draw them: a band of the scan that reads the tolerance moves
# with it.
RIGHT_KINDS = tuple(kind for kind in lab.KINDS if kind.startswith("right:"))
RIGHT_SCENES_DIGEST = (
    "ef7e2ff39a5f8c01d0c4ae61ca30f1a7b22195b456da712c683f03c635797daa")


def test_every_right_angled_draw_at_tol_1e8_matches_the_recorded_digest():
    assert _draws_digest(RIGHT_KINDS, 1e-8) == (4 * 200, RIGHT_SCENES_DIGEST)


# (figure, whether B is exterior, whether its window skips) of the scans
# of `lab._c_window`: a Lambert quadrilateral, of interior B as drawn or of
# exterior B, scans every t
_WINDOWS = [(tg.HYPERBOLIC_RIGHT, False, True), (tg.LAMBERT, False, False),
            (tg.LAMBERT, True, False), (tg.PENTAGON, True, True)]


def _bounds(model, A, B, pc):
    """t_in, and t_sec where B is exterior, of `lab._c_window`, from the
    real rows in numpy."""
    M = np.array(model.real_rows)
    a, b, p = (np.array([z.real for z in x]) for x in (A, B, pc))
    qa, qb, qp, ab = a @ M @ a, b @ M @ b, p @ M @ p, a @ M @ b
    t_in = math.sqrt(-qa / qp)
    if qb < 0:
        return (t_in,)
    return t_in, math.sqrt((ab * ab - qb * qa) / (qb * qp))


@pytest.mark.parametrize("tol", [1e-9, 1e-8, 1e-6])
@pytest.mark.parametrize("figure, b_exterior, skips", _WINDOWS)
def test_a_right_angled_step_skips_only_where_it_would_move_on(
        figure, b_exterior, skips, tol):
    # on a grid over the scan and about each bound, 1 ulp to 1e-6 relative
    # off it, every t outside the window is one where the step that forms C
    # moves on before it builds
    model = lab.model_for("hyperbolic")
    grid = [i / 20 - 4.0 for i in range(161)]
    skipped = probed = 0
    with ambient_tol(tol):
        for counter in range(30):
            rng = lab.trial_rng(5, counter)
            A = lab._interior_point(rng)
            B = (lab._exterior_point(rng) if b_exterior
                 else lab._interior_point(rng))
            pc = cn.pole(model.absolute, pj.join_points(A, B))
            lo, hi = lab._c_window(figure, model, A, B, pc)
            probes = list(grid)
            for bound in _bounds(model, A, B, pc):
                probes += [math.nextafter(bound, 0.0),
                           math.nextafter(bound, math.inf)]
                probes += [bound * (1.0 + e) for e in
                           (-1e-6, -1e-9, -1e-12, 1e-12, 1e-9, 1e-6)]
            for t in probes + [-t for t in probes]:
                probed += 1
                if not lo <= t * t <= hi:
                    skipped += 1
                    assert oracle_right_moves_on(figure, model, A, B, pc,
                                                 t), (counter, t)
    assert skipped > probed / 10 if skips else skipped == 0


def _attempts(attempt, rng, model):
    """Each attempt of one draw as `random_triangle_config` runs them: the
    repr of every eager slot of the config, None or the class of the error
    it raised, with the generator state after it."""
    out = []
    for _ in range(lab.RETRY_CAP):
        try:
            cfg = attempt(rng, model)
        except errors.GeometryError as exc:
            out.append((type(exc).__name__, rng.state))
            continue
        out.append((cfg and tuple(repr(getattr(cfg, name)) for name in
                                  _EAGER + ("conjugate_side_pairs",)),
                    rng.state))
        if cfg is not None:
            return out
    return out


@pytest.mark.parametrize("tol", [1e-9, 1e-8, 1e-6])
@pytest.mark.parametrize("kind, figure", [
    ("right:hyp-right", tg.HYPERBOLIC_RIGHT), ("right:lambert", tg.LAMBERT),
    ("right:pentagon", tg.PENTAGON)])
def test_a_right_angled_attempt_equals_the_scan_of_every_step(kind, figure,
                                                              tol):
    # every attempt of the draws at seeds 0-3, counters 0-299
    model = lab.model_for("hyperbolic")
    attempt = lab.KINDS[kind][1]
    oracle = oracle_try_right(figure)
    with ambient_tol(tol):
        for seed in range(4):
            for counter in range(300):
                assert _attempts(attempt, lab.trial_rng(seed, counter),
                                 model) == _attempts(
                    oracle, lab.trial_rng(seed, counter), model), (seed,
                                                                   counter)


def test_law_cosines_sq_elliptic_repro_passes():
    # this run reached 2.6e-8 while S was read as 1 - C; the closed form of
    # `metric.squared_trig` closes it to about 6e-14
    cert = lab.verify("law_cosines_sq", seed=24908189, trials=20,
                      geometry="elliptic", tol=1e-8)
    assert cert.passed and cert.max_residual < 1e-12


# Runs that failed while distances, angles and line status were read from
# logarithms of cross ratios against the absolute (table_5_1, t5) or while
# right-angled scenes were drawn below the scene conditioning (t6), or while
# a side tangent to the conic passed into the Carnot product
# (carnot_projective): (id, geometry, seed, trials, tol, residual then).
REPROS = [
    ("t5", "hyperbolic", 424242, 4541, 1e-8, 1.109e-8),
    ("t6", "hyperbolic", 969145298, 50, 1e-8, 1.217e-8),
    ("table_5_1", "hyperbolic", 124347129, 20, 1e-8, 3.538e-8),
    ("table_5_1", "elliptic", 1249412285, 20, 1e-8, 1.563e-8),
    ("table_5_1", "hyperbolic", 0, 1000, 1e-9, 4.414e-9),
    ("carnot_projective", "elliptic", 1297423959, 50, 1e-9, 2.938e-7),
]


@pytest.mark.parametrize("tid, geometry, seed, trials, tol, then", REPROS)
def test_a_run_that_failed_passes(tid, geometry, seed, trials, tol, then):
    cert = lab.verify(tid, seed=seed, trials=trials, geometry=geometry,
                      tol=tol)
    assert cert.passed and cert.max_residual < tol / 100, cert.max_residual


# Runs that fail on ill-posed scenes no guard rejects yet (ROADMAP item 1):
# (id, geometry, seed, max_residual, failing counter), 50 trials at tol
# 1e-9.  Each fails as recorded; a run that fails otherwise is a failure
# of its own.  Once the scenes are rejected or conditioned, these pass and,
# being strict, report it.
OPEN_REPROS = [
    ("nine_point_conic", "elliptic", 2093595595, "1.018e-09", 38),
    ("pappus_involution", "hyperbolic", 1077683802, "2.509e-09", 7),
]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ill-posed scene that no guard rejects")
@pytest.mark.parametrize("tid, geometry, seed, residual, counter",
                         OPEN_REPROS)
def test_an_open_repro_passes(tid, geometry, seed, residual, counter):
    cert = lab.verify(tid, seed=seed, trials=50, geometry=geometry, tol=1e-9)
    if not cert.passed and (f"{cert.max_residual:.3e}",
                            cert.failures) != (residual, [counter]):
        pytest.fail(f"failed otherwise than recorded: {cert.max_residual!r} "
                    f"at {cert.failures}")
    assert cert.passed, (cert.max_residual, cert.failures)


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


@pytest.mark.parametrize("run", [lab.verify, lab.perturbation_guard])
def test_a_run_builds_at_most_one_generator(monkeypatch, run):
    # the driver keeps one Philox per run and re-keys it at each counter,
    # whatever the number of trials, rejections or scenes shared
    built = []
    make = lab.trial_rng

    def counting(seed, trial):
        built.append((seed, trial))
        return make(seed, trial)

    monkeypatch.setattr(lab, "trial_rng", counting)
    monkeypatch.setitem(lab.THEOREMS, "fake",
                        (_fake_check([]), ("hyperbolic",), False))
    for tid in ("fake", "desargues", "altitudes", "medians"):
        for trials in (1, 40):
            built.clear()
            run(tid, seed=3, trials=trials)
            assert len(built) <= 1, (tid, trials, built)


def _odd_draws(rng):
    """A residual's draws: first one 32-bit draw, which leaves a kept
    half-word behind (`_half_pending`), then one 64-bit draw."""
    return rng.integers(0, 1 << 30), rng.uniform()


def _half_pending(rng):
    """Whether the generator keeps the high half of a word for its next
    32-bit draw: the last entry of its state."""
    return rng.state[-1] is not None


@pytest.mark.parametrize("seed", [0, 1 << 63])
def test_each_trial_starts_from_the_fresh_state_of_its_counter(monkeypatch,
                                                               seed):
    # every residual sees the state and draws of trial_rng(seed, counter),
    # though the trial before it left a buffered 32-bit half-word
    seen = []

    def check(rng, geometry, tol, perturb=0.0):
        seen.append((rng.state, _odd_draws(rng)))
        assert _half_pending(rng)
        return 0.0

    monkeypatch.setitem(lab.THEOREMS, "fake", (check, ("hyperbolic",), False))
    lab.verify("fake", seed=seed, trials=3)
    for c, (state, draws) in enumerate(seen):
        ref = lab.trial_rng(seed, c)
        assert state == ref.state and draws == _odd_draws(ref), c
    # the same re-keying at counters a test cannot run up to, each after
    # draws that left a half-word pending; trial_rng(seed, c) reads the
    # numbers of numpy's Philox at counter [0,0,0,c]
    rng = lab.trial_rng(seed, 0)
    _odd_draws(rng)
    for c in (0, 1, 1 << 32, (1 << 53) + 1, (1 << 64) - 1):
        assert _half_pending(rng)
        rng.rekey(c)
        ref = lab.trial_rng(seed, c)
        assert rng.state == ref.state, c
        draws = _odd_draws(rng)
        assert draws == _odd_draws(ref) == _odd_draws(numpy_philox(seed, c))
        assert _half_pending(rng)


def test_interleaved_runs_keep_their_own_generators(monkeypatch):
    # two runs advanced alternately yield what each yields alone; the seed
    # is part of the scene store's key, so runs on two seeds share no scene
    def check(rng, geometry, tol, perturb=0.0):
        u, x = _odd_draws(rng)
        return None if u % 5 == 0 else x

    monkeypatch.setitem(lab.THEOREMS, "fake", (check, ("hyperbolic",), False))
    tol = lab.get_tol()
    for (a, seed_a), (b, seed_b) in ((("fake", 3), ("fake", 4)),
                                     (("altitudes", 5), ("medians", 5)),
                                     (("fake", 5), ("altitudes", 5)),
                                     (("altitudes", 3), ("altitudes", 4))):
        alone_a = list(lab._trials(a, seed_a, 30, "hyperbolic", tol, 0.0))
        alone_b = list(lab._trials(b, seed_b, 30, "hyperbolic", tol, 0.0))
        lab._scenes.clear()
        zipped = list(zip(lab._trials(a, seed_a, 30, "hyperbolic", tol, 0.0),
                          lab._trials(b, seed_b, 30, "hyperbolic", tol, 0.0)))
        assert zipped == list(zip(alone_a, alone_b)), (a, b)


def test_a_store_hit_sets_the_generator_state_once(monkeypatch):
    # a hit restores the post-draw state and does not re-key the generator
    # first; a run re-keys only at the counters the store does not hold
    rekeys = []
    rekey = Philox.rekey
    monkeypatch.setattr(Philox, "rekey",
                        lambda *args: rekeys.append(1) or rekey(*args))
    lab._scenes.clear()
    cold = lab.verify("medians", seed=12, trials=20)
    cold_rekeys, stored = len(rekeys), len(lab._scenes)
    assert stored and cold_rekeys >= stored
    rekeys.clear()
    warm = lab.verify("medians", seed=12, trials=20)
    assert len(rekeys) == cold_rekeys - stored
    assert cert_fields(warm) == cert_fields(cold)


def test_lazy_isosceles_flags():
    # ten generic scenes, then the triangle of test_centers'
    # test_isosceles_flags, isosceles at A
    hyp = lab.model_for("hyperbolic")
    scenes = [lab.random_triangle_config(lab.trial_rng(11, i), "hyperbolic")
              for i in range(10)]
    scenes.append(ce.build_config(hyp, affine_point(0.6, 0),
                                  affine_point(-0.2, 0.4),
                                  affine_point(-0.2, -0.4)))
    for cfg in scenes:
        with pytest.raises(AttributeError):
            object.__getattribute__(cfg, "iso_flags")
        flags = cfg.iso_flags
        assert object.__getattribute__(cfg, "iso_flags") is flags
        assert flags == ce.build_config(cfg.model, cfg.A, cfg.B,
                                        cfg.C).iso_flags
    assert scenes[-1].iso_flags == (True, False, False)


def _count_builds(monkeypatch):
    from ckgeom import centers as ce
    builds = []
    build = ce.build_config

    def counting(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(ce, "build_config", counting)
    return builds


def test_pentagon_builds_once_per_scene(monkeypatch):
    builds = _count_builds(monkeypatch)
    for i in range(20):
        cfg = lab.random_triangle_config(lab.trial_rng(3, i), "hyperbolic",
                                         "right:pentagon")
        assert tg.right_angled_kind(cfg) == tg.PENTAGON
    assert len(builds) == 20


@pytest.mark.parametrize("kind, c_per_scene, status_per_scene", [
    ("right:hyp-right", 1.1, 0), ("right:pentagon", 1.1, 2)])
def test_a_right_angled_draw_forms_c_about_once(monkeypatch, kind,
                                               c_per_scene, status_per_scene):
    # the scan forms C only in its window, where a step rarely moves on:
    # once per scene or nearly, against 6.4 (hyp-right) and 25.5 (pentagon)
    # when every drawn t formed C; a pentagon reads BC's status in its step
    # and in `right_angled_kind`, against 21.4 reads
    calls = {"C": 0, "status": 0}
    form, status = lab.hpoint, mt.ModelGeometry.line_status

    def counting_form(*args):
        calls["C"] += 1
        return form(*args)

    def counting_status(self, line):
        calls["status"] += 1
        return status(self, line)

    monkeypatch.setattr(lab, "hpoint", counting_form)
    monkeypatch.setattr(mt.ModelGeometry, "line_status", counting_status)
    with ambient_tol(1e-9):
        for counter in range(200):
            lab.random_triangle_config(lab.trial_rng(0, counter),
                                       "hyperbolic", kind)
    assert calls["C"] <= c_per_scene * 200
    assert calls["status"] <= status_per_scene * 200


def test_carnot_projective_guard_pivots_about_farther_point():
    # trial 139 of seed 0: side YZ meets the transversal near Q, so pivoting
    # the moved line about Q barely moved X0 (residual 5.9e-8)
    res = lab._chk_carnot_projective(lab.trial_rng(0, 139), "hyperbolic",
                                     lab.get_tol(), 1e-3)
    assert res > 1e-7


def test_scene_cache_cold_equals_warm():
    seed, trials = 21, 4
    entries = [(tid, g) for tid, (_, geoms, _) in lab.THEOREMS.items()
               for g in geoms]
    lab._scenes.clear()
    # after the ids before it, then after all of them
    first = [lab.verify(tid, seed=seed, trials=trials, geometry=g)
             for tid, g in entries]
    again = [lab.verify(tid, seed=seed, trials=trials, geometry=g)
             for tid, g in entries]
    for (tid, g), c1, c2 in zip(entries, first, again):
        lab._scenes.clear()
        cold = cert_fields(lab.verify(tid, seed=seed, trials=trials,
                                       geometry=g))
        assert cert_fields(c1) == cold and cert_fields(c2) == cold, (tid, g)


def test_scene_cache_restores_post_draw_state(monkeypatch):
    # these checks keep drawing from the generator after the config, so a
    # hit must leave the generator where the draw left it
    seed, trials = 8, 30
    cases = (("carnot_hyperbolic_iff", "hyperbolic"),
             ("carnot_elliptic", "elliptic"),
             ("conjectures", "hyperbolic"), ("conjectures", "elliptic"))
    builds = _count_builds(monkeypatch)
    for tid, g in cases:
        lab._scenes.clear()
        builds.clear()
        cold = lab.verify(tid, seed=seed, trials=trials, geometry=g)
        cold_builds = len(builds)
        lab._scenes.clear()
        lab.verify("altitudes", seed=seed, trials=trials, geometry=g)
        builds.clear()
        warm = lab.verify(tid, seed=seed, trials=trials, geometry=g)
        assert len(builds) < cold_builds  # the run did hit the cache
        assert cert_fields(warm) == cert_fields(cold), (tid, g)


def test_scene_cache_never_shares_between_different_pre_draws(monkeypatch):
    # one and two 32-bit draws leave the same Philox counter and buffer
    # position, and differ only in the buffered half-word; the configs
    # (64-bit draws) agree, but a later 32-bit draw must see its own stream
    def pre_draw(rng, n):
        for _ in range(n):
            rng.integers(0, 4)
        return rng

    def sampler(n):
        def draw(rng, geometry):
            return lab.random_triangle_config(pre_draw(rng, n), geometry,
                                              "generic")
        return draw

    def recording(seen):
        def residual(cfg, rng, perturb):
            seen.append((cfg.A, rng.integers(0, 1 << 30)))
            return 0.0
        return residual

    seed, trials = 6, 10
    one, two = [], []
    lab._scenes.clear()
    for name, n, seen in (("one", 1, one), ("two", 2, two)):
        monkeypatch.setitem(lab.SAMPLERS, name, sampler(n))
        monkeypatch.setitem(lab.THEOREMS, name,
                            (lab._on_scene(name, recording(seen)),
                             ("hyperbolic",), False))
        lab.verify(name, seed=seed, trials=trials)
    for i in range(trials):
        r1 = pre_draw(lab.trial_rng(seed, i), 1)
        r2 = pre_draw(lab.trial_rng(seed, i), 2)
        assert r1.state[:-1] == r2.state[:-1]
        assert _half_pending(r1) != _half_pending(r2)
        for rng, seen in ((r1, one), (r2, two)):
            cfg = lab.random_triangle_config(rng, "hyperbolic", "generic")
            assert seen[i] == (cfg.A, rng.integers(0, 1 << 30))


def test_scene_cache_only_inside_driver(monkeypatch):
    seed = 13
    lab._scenes.clear()
    lab.verify("altitudes", seed=seed, trials=3)
    builds = _count_builds(monkeypatch)
    cached, state_after = lab._scenes[(seed, "generic", 1, "hyperbolic",
                                       lab.get_tol())]
    rng = lab.trial_rng(seed, 1)
    cfg = lab.random_triangle_config(rng, "hyperbolic", "generic")
    assert builds and cfg is not cached
    assert (cfg.A, cfg.B, cfg.C) == (cached.A, cached.B, cached.C)
    assert rng.state == state_after
    # direct calls of a draw, a sampler or a check store nothing
    n = len(lab._scenes)
    lab.random_triangle_config(lab.trial_rng(seed, 50), "hyperbolic", "generic")
    lab.SAMPLERS["generic"](lab.trial_rng(seed, 51), "hyperbolic")
    check = lab.THEOREMS["medians"][0]
    assert check(lab.trial_rng(seed, 52), "hyperbolic", lab.get_tol()) >= 0
    assert len(lab._scenes) == n


def test_scene_cache_bounds(monkeypatch):
    uncapped = lab.verify("medians", seed=17, trials=20)
    lab._scenes.clear()
    monkeypatch.setattr(lab, "SCENE_CACHE_CAP", 5)
    capped = lab.verify("medians", seed=17, trials=20)
    assert len(lab._scenes) == 5
    assert capped.max_residual == uncapped.max_residual
    monkeypatch.undo()
    # a run on a new seed empties the store: every scene left is one of it
    lab.verify("altitudes", seed=18, trials=5)
    assert sorted(key[2] for key in lab._scenes) == list(range(5))
    for (seed, name, counter, geometry, _), (cfg, _) in lab._scenes.items():
        assert seed == 18
        fresh = lab.SAMPLERS[name](lab.trial_rng(18, counter), geometry)
        assert (cfg.A, cfg.B, cfg.C) == (fresh.A, fresh.B, fresh.C)


def _sampler_models():
    """(sampler, model, an id that draws with it there) of every sampler
    that a check draws with in a model it has a certificate in."""
    out = {}
    for tid, (check, geoms, _) in lab.THEOREMS.items():
        for g in geoms:
            name = getattr(check, "samplers", {}).get(g)
            if name is not None:
                out.setdefault((name, g), tid)
    return [(name, g, tid) for (name, g), tid in out.items()]


@pytest.mark.parametrize("name,geometry,tid", _sampler_models())
def test_residuals_get_the_scene_their_sampler_draws(monkeypatch, name,
                                                     geometry, tid):
    # inside verify, the scene and generator a residual gets at counter c are
    # those of sampler(trial_rng(seed, c), geometry), whether or not another
    # id of the sampler drew the scene on that seed first
    seed, trials = 4, 10
    check = lab.THEOREMS[tid][0]
    seen, first = [], []

    def recording(log):
        def residual(cfg, rng, perturb):
            log.append((cfg, rng.state))
            return 0.0
        return residual

    monkeypatch.setattr(check, "residual", recording(seen))
    other = lab._on_scene(name, recording(first))
    monkeypatch.setitem(lab.THEOREMS, "other", (other, (geometry,), False))
    lab._scenes.clear()
    lab.verify(tid, seed=seed, trials=trials, geometry=geometry)
    lab._scenes.clear()
    lab.verify("other", seed=seed, trials=trials, geometry=geometry)
    lab.verify(tid, seed=seed, trials=trials, geometry=geometry)
    assert len(seen) == 2 * trials
    cold, warm = seen[:trials], seen[trials:]
    for c in range(trials):
        rng = lab.trial_rng(seed, c)
        cfg = lab.SAMPLERS[name](rng, geometry)
        for got, state in (cold[c], warm[c]):
            assert (got.A, got.B, got.C) == (cfg.A, cfg.B, cfg.C), (c, tid)
            assert state == rng.state, (c, tid)
        assert warm[c][0] is first[c][0]  # drawn by the other id's run


def test_no_residual_draws_a_scene():
    draws = ({"random_triangle_config"}
             | {attempt.__name__ for _, attempt in lab.KINDS.values()}
             | {sampler.__name__ for sampler in lab.SAMPLERS.values()})
    residuals = [check.residual for check, _, _ in lab.THEOREMS.values()
                 if hasattr(check, "residual")]
    # 29 ids, and the elliptic scenes of midpoint_quadrilateral
    assert len(residuals) == 30
    for residual in residuals:
        tree = ast.parse(textwrap.dedent(inspect.getsource(residual)))
        called = {node.func.id if isinstance(node.func, ast.Name)
                  else getattr(node.func, "attr", None)
                  for node in ast.walk(tree) if isinstance(node, ast.Call)}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        assert not called & draws, residual.__name__
        assert not read & {"SAMPLERS", "KINDS"}, residual.__name__


# each group draws the same sampler in the same models: the generic scenes
# of the incidence ids and more, the right-angled figures of t1-t6 and
# table_5_1, the hinted kinds of the squared laws and the orientations of
# the projective laws (generic in the elliptic model)
_GENERIC = ("altitudes", "medians", "side_bisectors", "angle_bisectors",
            "pseudo_spieker", "pseudomedians", "pseudobisectors",
            "euler_wildberger", "orthic_axis_pole", "nine_point_conic",
            "pascal_line_hexagon", "six_points_conic",
            "complementary_midpoints_conic", "magic_midpoints", "conjectures")
SHARING_GROUPS = {
    "incidence": (("hyperbolic", "elliptic"), _GENERIC),
    "generic-hyperbolic": (("hyperbolic",),
                           ("altitudes", "carnot_hyperbolic_iff")),
    "generic-elliptic": (("elliptic",),
                         ("altitudes", "midpoint_quadrilateral",
                          "carnot_elliptic", "projective_sines",
                          "projective_cosines")),
    "right": (("hyperbolic", "elliptic"),
              ("t1", "t2", "t3", "t4", "t5", "t6", "table_5_1")),
    "cycle": (("hyperbolic", "elliptic"), ("law_sines_sq", "law_cosines_sq")),
    "orient": (("hyperbolic", "elliptic"),
               ("projective_sines", "projective_cosines")),
}


@pytest.mark.parametrize("group", SHARING_GROUPS)
def test_ids_share_one_build_per_scene(monkeypatch, group):
    # once the first id of a group has drawn the scenes of a seed, the others
    # build nothing; it runs three times the trials, as later ids may reject
    # scenes and read further counters
    models, ids = SHARING_GROUPS[group]
    seed, trials = 29, 20
    lab._scenes.clear()
    builds = _count_builds(monkeypatch)
    for geometry in models:
        lab.verify(ids[0], seed=seed, trials=3 * trials, geometry=geometry)
        assert len(builds) >= 3 * trials
        per_id = []
        for tid in ids[1:]:
            builds.clear()
            lab.verify(tid, seed=seed, trials=trials, geometry=geometry)
            per_id.append(len(builds))
        assert per_id == [0] * (len(ids) - 1), geometry


def _outcome(check, seed, counter, geometry, perturb):
    """A direct call's outcome: the residual's hex, None, or the class of the
    GeometryError the check raised."""
    try:
        res = check(lab.trial_rng(seed, counter), geometry, lab.get_tol(),
                    perturb)
    except errors.GeometryError as exc:
        return type(exc)
    return None if res is None else res.hex()


@pytest.mark.parametrize("tid", lab.MODEL_FREE)
def test_model_free_checks_read_no_model(tid):
    # what lets the driver run each trial once for both models: the check
    # draws its own figure, and its outcome is the same to the bit in each
    check, models, _ = lab.THEOREMS[tid]
    assert models == ("hyperbolic", "elliptic")
    assert not hasattr(check, "samplers")
    for seed in range(3):
        for counter in range(200):
            for perturb in (0.0, 1e-3):
                hyp = _outcome(check, seed, counter, "hyperbolic", perturb)
                ell = _outcome(check, seed, counter, "elliptic", perturb)
                assert hyp == ell, (seed, counter, perturb)


def _counting(check, calls):
    def counted(rng, geometry, tol, perturb=0.0):
        calls.append(geometry)
        return check(rng, geometry, tol, perturb)
    return counted


@pytest.mark.parametrize("tid", lab.MODEL_FREE)
def test_the_other_model_replays_a_model_free_run(monkeypatch, tid):
    # the second model's run calls the check at no counter the first reached,
    # and its certificate is the one a cold run gives
    check, models, report_only = lab.THEOREMS[tid]
    calls = []
    counted = _counting(check, calls)
    monkeypatch.setitem(lab.THEOREMS, tid, (counted, models, report_only))
    seed, tol = 5, lab.get_tol()
    hyp = list(lab._trials(tid, seed, 40, "hyperbolic", tol, 0.0))
    assert calls == ["hyperbolic"] * (hyp[-1][0] + 1)
    calls.clear()
    ell = lab.verify(tid, seed=seed, trials=40, geometry="elliptic")
    assert calls == []
    # a longer run calls the check only past the counters stored
    longer = list(lab._trials(tid, seed, 60, "elliptic", tol, 0.0))
    assert longer[:40] == hyp
    assert calls == ["elliptic"] * (longer[-1][0] - hyp[-1][0])
    # another perturb is another key
    calls.clear()
    lab.perturbation_guard(tid, seed=seed, trials=40, geometry="elliptic")
    assert len(calls) >= 40
    lab._outcomes = (None, [])
    cold = lab.verify(tid, seed=seed, trials=40, geometry="elliptic")
    assert cert_fields(ell) == cert_fields(cold)
    assert max(res for _, res in hyp) == cold.max_residual


def test_a_replaced_check_reads_nothing_stored_for_another(monkeypatch):
    # a fault installed between the two models' runs shows in the second
    check, models, report_only = lab.THEOREMS["pascal"]
    plain = lab.verify("pascal", seed=6, trials=30, geometry="hyperbolic")
    calls = []

    def faulty(rng, geometry, tol, perturb=0.0):
        calls.append(geometry)
        res = check(rng, geometry, tol, perturb)
        return None if res is None else res + 1e-6

    monkeypatch.setitem(lab.THEOREMS, "pascal", (faulty, models, report_only))
    faulted = lab.verify("pascal", seed=6, trials=30, geometry="elliptic")
    assert len(calls) >= 30
    assert faulted.max_residual == plain.max_residual + 1e-6
    assert len(faulted.failures) == 30
    monkeypatch.undo()
    again = lab.verify("pascal", seed=6, trials=30, geometry="elliptic")
    assert again.max_residual == plain.max_residual and not again.failures


def test_model_free_runs_take_no_store_slot(monkeypatch):
    # runs longer than the store's cap leave its scenes where they were, so
    # a generic id's second run still builds nothing
    seed = 31
    lab._scenes.clear()
    lab.verify("altitudes", seed=seed, trials=20)
    stored = list(lab._scenes)
    for tid in lab.MODEL_FREE:
        for geometry in ("hyperbolic", "elliptic"):
            lab.verify(tid, seed=seed, trials=3000, geometry=geometry)
    assert list(lab._scenes) == stored
    # only the last run's outcomes are kept, one per counter it reached
    key, outcomes = lab._outcomes
    assert key[:2] == (seed, lab.THEOREMS[lab.MODEL_FREE[-1]][0])
    assert 3000 <= len(outcomes) <= lab.RETRY_CAP + 6 * 3000
    builds = _count_builds(monkeypatch)
    lab.verify("medians", seed=seed, trials=20)
    assert builds == []


def test_oracle_cross_ratio_matches_determinant(rng):
    # hand value and random agreement between the chart oracle and the
    # determinant implementation
    pts = [affine_point(t, 0) for t in (0, 1, 2, 3)]
    assert abs(oracle_cross_ratio(*pts) - 4.0 / 3.0) < 1e-14
    for _ in range(40):
        ts = [rng.uniform(-5, 5) for _ in range(4)]
        if min(abs(ts[i] - ts[j]) for i in range(4)
               for j in range(i + 1, 4)) < 1e-2:
            continue
        base = affine_point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        d = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        pts = [hpoint(base[0] + t * d[0], base[1] + t * d[1], 1.0) for t in ts]
        v1 = oracle_cross_ratio(*pts)
        v2 = pj.cross_ratio_points(*pts)
        assert abs(v1 - v2) < 1e-9 * max(1.0, abs(v2))


def test_oracle_cross_ratio_harmonic_fallback():
    # a point at chart infinity falls back to the harmonic-ratio form
    pts = [affine_point(0, 0), affine_point(1, 0), affine_point(3, 0),
           hpoint(1, 0, 0)]
    v = oracle_cross_ratio(*pts)
    assert abs(v - 1.5) < 1e-12  # [AC]/[BC] = 3/2

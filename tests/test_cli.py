import json
import re

import pytest

from ckgeom import cli, sceneio
from ckgeom.projective import points_equal


def run_cli(args):
    return cli.main(args)


def test_verify_command(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = run_cli(["verify", "--theorem", "desargues", "--trials", "100",
                    "--seed", "7", "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["passed"]
    assert data["certificates"][0]["theorem"] == "desargues"
    assert data["certificates"][0]["max_residual"] <= 1e-9


def test_verify_unknown_theorem(capsys):
    assert run_cli(["verify", "--theorem", "not_a_theorem"]) == 2


@pytest.mark.parametrize("trials", ("0", "-3"))
def test_verify_rejects_runs_of_no_scenes(trials, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--theorem", "pascal", "--geometry", "hyperbolic",
                 "--trials", trials])
    assert exc.value.code == 2
    assert "--trials: trials must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ("-1", str(1 << 64)))
def test_verify_rejects_an_out_of_range_seed(seed, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--theorem", "pascal", "--trials", "1",
                 "--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed: seed must be an integer in [0, 2**64)" in err
    assert "Traceback" not in err


def test_verify_takes_the_largest_seed(capsys):
    assert run_cli(["verify", "--theorem", "pascal", "--trials", "1",
                    "--seed", str((1 << 64) - 1)]) == 0


def test_verify_id_without_the_requested_model(capsys):
    # ray_angles has a certificate in the hyperbolic model only
    assert run_cli(["verify", "--theorem", "ray_angles",
                    "--geometry", "elliptic", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "only in hyperbolic" in captured.err
    # with both models asked for, the one it has is run
    assert run_cli(["verify", "--theorem", "ray_angles",
                    "--trials", "1"]) == 0
    assert "ray_angles" in capsys.readouterr().out


def test_compute_distance(capsys):
    code = run_cli(["compute", "--scene", "builtin:unit-circle",
                    "--op", "distance", "A", "B"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"] - 0.549306) < 1e-6


def test_compute_angle(tmp_path, capsys):
    scene = {
        "conic": [[[1, 0], [0, 0], [0, 0]],
                  [[0, 0], [1, 0], [0, 0]],
                  [[0, 0], [0, 0], [-1, 0]]],
        "points": {
            "O": [[0, 0], [0, 0], [1, 0]],
            "X": [[0.5, 0], [0, 0], [1, 0]],
            "D": [[0.5, 0], [0.5, 0], [1, 0]],
        },
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code = run_cli(["compute", "--scene", str(path), "--op", "angle",
                    "O", "X", "O", "D"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"] - 0.785398) < 1e-6


def test_compute_laws(capsys):
    code = run_cli(["compute", "--scene", "builtin:elliptic", "--op", "laws",
                    "A", "B", "C"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["squared_law_of_cosines_residual"] < 1e-9
    assert out["closing_branches"] == 1
    assert out["projective_law_of_cosines_residual"] < 1e-8


# `compute --op laws` on the builtin scenes, as printed when each law of
# cosines took its own six cross ratios
_LAWS_OUTPUT = {
    "default": {
        "op": "laws", "geometry": "hyperbolic",
        "squared_law_of_sines_spread": 3.1262455543570164e-16,
        "squared_law_of_cosines_residual": 4.556199800014586e-16,
        "closing_branches": 1,
        "projective_law_of_sines_spread": 5.9619339549189975e-16,
        "projective_law_of_cosines_residual": 6.599786996891552e-16,
    },
    "elliptic": {
        "op": "laws", "geometry": "elliptic",
        "squared_law_of_sines_spread": 0.0,
        "squared_law_of_cosines_residual": 5.551115123125783e-17,
        "closing_branches": 1,
        "projective_law_of_sines_spread": 9.992007221626409e-16,
        "projective_law_of_cosines_residual": 6.661338147750939e-16,
    },
}


@pytest.mark.parametrize("scene", ("default", "hyperbolic", "elliptic"))
def test_compute_laws_prints_the_recorded_output(scene, capsys):
    assert run_cli(["compute", "--scene", f"builtin:{scene}", "--op", "laws",
                    "A", "B", "C"]) == 0
    want = _LAWS_OUTPUT["elliptic" if scene == "elliptic" else "default"]
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"


def test_compute_malformed_scene(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"conic": [[1]], "bogus": 1}))
    assert run_cli(["compute", "--scene", str(path), "--op", "distance",
                    "A", "B"]) == 2


_CIRCLE = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
           [[0, 0], [0, 0], [-1, 0]]]
_ZERO = [[[0, 0]] * 3] * 3
_RANK_TWO = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
             [[0, 0], [0, 0], [0, 0]]]


@pytest.mark.parametrize("command", [
    ["compute", "--op", "distance", "A", "B"],
    ["figure", "--figure", "euler-line"],
], ids=["compute", "figure"])
@pytest.mark.parametrize("scene", [
    {"conic": 5},
    {"conic": _CIRCLE, "points": {"A": 5}},
    {"conic": _CIRCLE, "points": [1]},
    {"conic": _ZERO},
    {"conic": _RANK_TWO},
    {"conic": _CIRCLE, "points": {"A": [[0, 0]] * 3}},
], ids=["conic-not-a-matrix", "point-not-a-list", "points-not-an-object",
        "zero-conic", "rank-two-conic", "zero-point"])
def test_malformed_scene_is_an_input_error(tmp_path, capsys, command, scene):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scene))
    args = [command[0], "--scene", str(path), *command[1:]]
    if command[0] == "figure":
        args += ["-o", str(tmp_path / "x.svg")]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("scene error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_zero_point_is_a_scene_error():
    # a library caller that catches SceneError sees it too
    with pytest.raises(sceneio.SceneError, match="'A'"):
        sceneio.parse_scene({"conic": _CIRCLE, "points": {"A": [[0, 0]] * 3}})


def test_scene_strict_mode(tmp_path):
    data = {
        "conic": [[[1, 0], [0, 0], [0, 0]],
                  [[0, 0], [1, 0], [0, 0]],
                  [[0, 0], [0, 0], [-1, 0]]],
        "points": {"A": [[0, 0], [0, 0], [1, 0]]},
        "surprise": True,
    }
    with pytest.raises(sceneio.SceneError):
        sceneio.parse_scene(data, strict=True)
    scene = sceneio.parse_scene(data, strict=False)
    assert scene.model.kind == "hyperbolic"


def test_scene_roundtrip(tmp_path):
    scene = sceneio.builtin_scene("default")
    path = tmp_path / "scene.json"
    sceneio.dump_scene(scene, path)
    again = sceneio.load_scene(path)
    assert again.model.kind == scene.model.kind
    for name in scene.points:
        assert points_equal(again.point(name), scene.point(name))
    # serialize -> parse -> serialize is stable
    d1 = sceneio.scene_to_dict(again)
    d2 = sceneio.scene_to_dict(sceneio.parse_scene(d1))
    assert d1 == d2


def _extract_points(svg_text, names):
    got = {}
    for m in re.finditer(r'data-name="([^"]+)"[^/]*?data-x="([^"]+)" '
                         r'data-y="([^"]+)"', svg_text):
        got[m.group(1)] = (float(m.group(2)), float(m.group(3)))
    return {n: got[n] for n in names if n in got}


def test_figure_euler_line_remeasured(tmp_path, capsys):
    out = tmp_path / "euler.svg"
    code = run_cli(["figure", "--figure", "euler-line", "-o", str(out)])
    assert code == 0
    svg = out.read_text()
    assert svg.startswith("<?xml")
    pts = _extract_points(svg, ["H", "N", "N'", "P", "P'"])
    assert len(pts) >= 3
    # re-measure: all recorded centers are collinear within drawing tolerance
    (x1, y1), (x2, y2) = list(pts.values())[0], list(pts.values())[1]
    for (x, y) in list(pts.values())[2:]:
        area = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        assert abs(area) < 1e-6


def test_figure_midpoint_quadrilateral(tmp_path):
    out = tmp_path / "mq.svg"
    assert run_cli(["figure", "--figure", "midpoint-quadrilateral",
                    "-o", str(out)]) == 0
    svg = out.read_text()
    for nm in ("D", "E", "F"):
        assert f'data-name="{nm}"' in svg


def test_figure_unknown_and_imaginary(tmp_path):
    assert run_cli(["figure", "--figure", "nope", "-o",
                    str(tmp_path / "x.svg")]) == 2
    assert run_cli(["figure", "--figure", "euler-line", "--scene",
                    "builtin:elliptic", "-o", str(tmp_path / "y.svg")]) == 2


def test_figure_all_names(tmp_path):
    from ckgeom.figures import FIGURES
    for name in FIGURES:
        out = tmp_path / f"{name}.svg"
        assert run_cli(["figure", "--figure", name, "-o", str(out)]) == 0
        assert out.read_text().rstrip().endswith("</svg>")


@pytest.mark.parametrize("geometry,kind", [
    ("elliptic", "right:elliptic"), ("hyperbolic", "right:hyp-right"),
    ("hyperbolic", "right:lambert"), ("hyperbolic", "right:pentagon"),
])
def test_compute_table51_measures_once(tmp_path, capsys, monkeypatch,
                                       geometry, kind):
    from ckgeom import lab
    from ckgeom import trig as tg
    cfg = lab.random_triangle_config(lab.trial_rng(5, 0), geometry, kind)
    path = tmp_path / "right.json"
    sceneio.dump_scene(sceneio.Scene(cfg.model, {"A": cfg.A, "B": cfg.B,
                                                 "C": cfg.C}), path)
    want = tg.table_5_1(cfg)
    calls = []
    measure = tg.right_angled_magnitudes

    def counting(*args, **kwargs):
        calls.append(1)
        return measure(*args, **kwargs)

    monkeypatch.setattr(tg, "right_angled_magnitudes", counting)
    assert run_cli(["compute", "--scene", str(path), "--op", "table51",
                    "A", "B", "C"]) == 0
    assert len(calls) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == tg.right_angled_kind(cfg)
    assert [(r["row"], r["lhs"], r["rhs"], r["residual"])
            for r in out["rows"]] == want


def test_the_catalog_equals_a_cold_run_of_each_certificate(tmp_path, capsys):
    # the catalog shares scenes and model-free trials between its runs; each
    # certificate is still the one a run of its id and model alone gives
    from ckgeom import lab
    report = tmp_path / "report.json"
    code = run_cli(["verify", "--theorem", "all", "--geometry", "both",
                    "--trials", "30", "--report", str(report)])
    data = json.loads(report.read_text())
    certs = []
    for tid in lab.theorem_ids():
        for geometry in lab.THEOREMS[tid][1]:
            lab._scenes.clear()
            lab._outcomes = (None, [])
            certs.append(lab.verify(tid, seed=0, trials=30,
                                    geometry=geometry,
                                    tol=data["tolerance"]).to_dict())
    for cert in certs + data["certificates"]:
        del cert["wall_time"]
    assert data["certificates"] == certs
    passed = all(cert["passed"] for cert in certs)
    assert (data["seed"], data["passed"], code) == (0, passed, 1 - passed)
    assert set(data) == {"tolerance", "seed", "certificates", "passed"}

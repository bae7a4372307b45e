"""One tolerance per run: `lab.verify` runs under its own `tol`, every other
function reads the ambient tolerance, and one rule (positive and finite)
validates it wherever it enters."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ckgeom import centers as ce
from ckgeom import cli, errors, lab
from ckgeom.tolerance import get_tol, set_tol
from conftest import ambient_tol, cert_fields

SRC = Path(__file__).resolve().parents[1] / "src" / "ckgeom"

# the functions that may take a parameter named `tol`: thresholds that src/
# passes explicitly, the run's tolerance, and the check signature
TOL_PARAMETERS = {"triple_eq", "is_real_triple", "verify", "_trials"}
CHECK_SIGNATURE = ["rng", "geometry", "tol", "perturb"]


def tol_parameters(src=SRC):
    """(file, line, function) of every function under `src` with a parameter
    named `tol`, other than those of TOL_PARAMETERS and the checks."""
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            if "tol" not in names or node.name in TOL_PARAMETERS:
                continue
            if names == CHECK_SIGNATURE:
                continue
            out.append((path.name, node.lineno, node.name))
    return out


def test_only_the_run_and_explicit_thresholds_take_tol():
    found = tol_parameters()
    assert not found, "tol parameters: " + ", ".join(
        f"{f}:{line} {name}" for f, line, name in found)
    assert "tol" not in ce.PolarTriangleConfig.__slots__


def test_tol_parameters_are_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, tol=None): pass\n"
        "def triple_eq(a, b, tol=None): pass\n"
        "def check(rng, geometry, tol, perturb=0.0): pass\n"
        "class K:\n    def g(self, *, tol): pass\n")
    assert [name for _, _, name in tol_parameters(tmp_path)] == ["f", "g"]


def test_certificate_does_not_depend_on_the_ambient_tolerance():
    runs = []
    for ambient in (1e-5, 1e-9, 1e-12):
        lab._scenes.clear()
        with ambient_tol(ambient):
            runs.append(cert_fields(lab.verify("t1", seed=0, trials=100,
                                               geometry="hyperbolic",
                                               tol=1e-8)))
            assert get_tol() == ambient
    assert runs[0] == runs[1] == runs[2]


def test_verify_restores_the_ambient_tolerance(monkeypatch):
    seen = []

    def check(rng, geometry, tol, perturb=0.0):
        seen.append((tol, get_tol()))
        return 0.0

    def never(rng, geometry, tol, perturb=0.0):
        seen.append((tol, get_tol()))
        return None

    monkeypatch.setitem(lab.THEOREMS, "fake", (check, ("hyperbolic",), False))
    monkeypatch.setitem(lab.THEOREMS, "never", (never, ("hyperbolic",), False))
    with ambient_tol(1e-9):
        assert lab.verify("fake", trials=3, tol=1e-6).tolerance == 1e-6
        assert get_tol() == 1e-9
        with pytest.raises(errors.SamplingExhausted):
            lab.verify("never", trials=1, tol=1e-7)
        assert get_tol() == 1e-9
        assert lab.verify("fake", trials=1).tolerance == 1e-9
    assert seen[:3] == [(1e-6, 1e-6)] * 3
    assert set(seen[3:-1]) == {(1e-7, 1e-7)}
    assert seen[-1] == (1e-9, 1e-9)


@pytest.mark.parametrize("value", ("", "0", "-1e-9", "nan", "inf"))
def test_bad_geom_tol_names_it_on_first_use(value):
    # the import succeeds; the first read of the tolerance raises
    env = dict(os.environ, GEOM_TOL=value, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", "import ckgeom; print('imported'); "
                               "ckgeom.get_tol()"],
        env=env, capture_output=True, text=True)
    assert proc.returncode != 0
    assert proc.stdout == "imported\n"
    assert "ValueError: GEOM_TOL must be a positive finite number" in proc.stderr


@pytest.mark.parametrize("value", ("", "0", "nan", "x"))
def test_bad_geom_tol_is_a_cli_usage_error(value):
    # one line and exit 2, the code of a bad --tol, not a traceback and the
    # exit 1 of a failed certificate
    env = dict(os.environ, GEOM_TOL=value, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "ckgeom.cli", "verify", "--theorem", "pascal",
         "--trials", "1", "--tol", "1e-9"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        f"usage error: GEOM_TOL must be a positive finite number, got {value!r}"]


def test_geom_tol_sets_the_ambient_tolerance():
    env = dict(os.environ, GEOM_TOL="2.5e-8", PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", "import ckgeom; print(repr(ckgeom.get_tol()))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "2.5e-08"


@pytest.mark.parametrize("value", (0, -1e-9, math.nan, math.inf, -math.inf, "x"))
def test_set_tol_rejects_what_is_not_positive_and_finite(value):
    before = get_tol()
    with pytest.raises(ValueError, match="positive finite"):
        set_tol(value)
    with pytest.raises(ValueError, match="positive finite"):
        lab.verify("pascal", trials=1, tol=value)
    assert get_tol() == before


@pytest.mark.parametrize("value", ("0", "-1e-9", "nan", "inf", "x"))
def test_bad_cli_tol_exits_2_with_a_message(value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--theorem", "pascal", "--trials", "1",
                  f"--tol={value}"])
    assert exc.value.code == 2
    assert "--tol: tolerance must be a positive finite number" in \
        capsys.readouterr().err

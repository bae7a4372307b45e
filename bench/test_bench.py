"""Tests of the benchmark itself.  From the repository root:

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
import workloads as W  # noqa: E402
from ckgeom import lab  # noqa: E402
from ckgeom import projective as pj  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                "0.1", "--trace", str(trace), "--trials", "2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "incidence_sweep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fault_in_a_check_residual_raises_cert_fail_frac(monkeypatch):
    check, geometries, report_only = lab.THEOREMS["pascal"]

    def faulty(rng, geometry, tol, perturb=0.0):
        res = check(rng, geometry, tol, perturb)
        return None if res is None else res + 1e-6

    monkeypatch.setitem(lab.THEOREMS, "pascal",
                        (faulty, geometries, report_only))
    wl = W.make_workload("incidence_sweep", trials=2)
    attempted, failed, problems, _ = worker.verdicts([wl.run_round(1, 0)],
                                                     W.guard_rejected)
    assert failed / attempted > 0
    assert problems and all("pascal" in p for p in problems)


def test_separation_mismatch_fails_a_kernel_certificate(monkeypatch):
    monkeypatch.setattr(pj, "separates", lambda *args, **kwargs: True)
    wl = W.make_workload("cross_ratio_suite", trials=20)
    attempted, failed, _, _ = worker.verdicts([wl.run_round(1, 0)],
                                              W.guard_rejected)
    assert failed == wl.per_round


def test_digest_repeats_for_a_seed_and_changes_with_it():
    wl = W.make_workload("trig_sweep", trials=2)
    first, again = (W.certificate_digest(wl.run_round(5, 0).certs)
                    for _ in range(2))
    assert first == again
    assert W.certificate_digest(wl.run_round(6, 0).certs) != first


def test_guard_rule_tolerates_sampling_but_not_a_weak_guard():
    assert not W.guard_rejected(997, 1000)
    assert not W.guard_rejected(19, 20)
    assert W.guard_rejected(900, 1000)
    assert W.guard_rejected(0, 20)


def test_tracer_patches_every_binding_and_restores_them():
    from ckgeom import centers

    original = pj.join_points
    assert centers.join_points is original
    rng = lab.trial_rng(1, 0)
    with Tracer() as tracer:
        assert centers.join_points is pj.join_points is not original
        lab.random_triangle_config(rng, lab.HYPERBOLIC)
    assert centers.join_points is pj.join_points is original
    by_name, _ = tracer.summary()
    assert by_name["lab.random_triangle_config"]["calls"] == 1
    assert by_name["centers.build_config"]["calls"] >= 1
    assert (by_name["centers.PolarTriangleConfig.__init__"]["calls"]
            >= by_name["centers.build_config"]["calls"])
    assert by_name["projective.join_points"]["calls"] > 0
    # one root span: the self times of all spans add up to its duration
    total_self = sum(st["self_s"] for st in by_name.values())
    root = by_name["lab.random_triangle_config"]["incl_s"]
    assert total_self == pytest.approx(root, rel=1e-9)


def test_configs_built_outside_build_config_count_as_builds():
    from ckgeom import trig

    cfg = lab.random_triangle_config(lab.trial_rng(1, 0), lab.HYPERBOLIC)
    with Tracer() as tracer:
        trig._swap_bc(cfg)
    by_name, _ = tracer.summary()
    assert by_name["centers.build_config"]["calls"] == 0
    assert by_name["centers.PolarTriangleConfig.__init__"]["calls"] == 1


def test_reference_seconds_are_wall_seconds_scaled_by_the_host_speed():
    import calibrate

    def rounds(ref_s):
        return [W.Round([W.Certificate("pascal", "hyperbolic", 50, 0.0,
                                       W.TOL, [], True, ms)],
                        [W.Guard("pascal", 50, 50, 0.1)], [ref_s] * 2)
                for ms in (100.0, 200.0, 300.0)]

    # a host at half the nominal speed: reference seconds are half as many
    slow = rounds(2 * calibrate.REF_NOMINAL_S)
    wall, ref = worker.timings(slow, scaled=False), worker.timings(slow)
    assert wall["scenes_per_s"][0] == pytest.approx(250.0)
    assert ref["scenes_per_s"][0] == pytest.approx(500.0)
    assert ref["guard_scenes_per_s"][0] == pytest.approx(1000.0)
    assert ref["cert_ms_p50"][0] == pytest.approx(100.0)
    # at the nominal speed the two agree
    nominal = rounds(calibrate.REF_NOMINAL_S)
    assert worker.timings(nominal) == worker.timings(nominal, scaled=False)
    assert calibrate.kernel() == calibrate.kernel()


def test_each_run_is_scaled_by_the_kernel_times_nearest_to_it():
    import calibrate

    nominal = calibrate.REF_NOMINAL_S
    # the host halves its speed after the fourth of eight runs
    samples = [nominal] * 4 + [2 * nominal] * 4
    scales = calibrate.local_scales(samples, k=1)
    assert scales == [1.0, 1.0, 1.0, pytest.approx(2 / 3), 0.5, 0.5, 0.5,
                      0.5]

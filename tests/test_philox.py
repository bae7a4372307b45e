"""The pure-Python Philox4x64-10 against numpy's, its oracle, and the
import hygiene it buys: `import ckgeom` loads no numpy."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ckgeom import lab
from ckgeom.philox import Philox
from oracles import numpy_philox

SRC = Path(__file__).resolve().parents[1] / "src"
SEEDS = (0, 1, 7, 1 << 32, (1 << 63) + 5, (1 << 64) - 1)
COUNTERS = (0, 1, 1 << 32, (1 << 53) + 1, (1 << 64) - 1)


def _draw(rng, op, args):
    """One draw of kind `op` with `args`, as plain Python values."""
    if op == "uniform":
        return rng.uniform(*args)
    if op == "uniform2":
        out = rng.uniform(*args, 2)
        return out if isinstance(out, list) else out.tolist()
    if op == "integers":
        return int(rng.integers(*args))
    return [int(i) for i in rng.permutation(*args)]


def _plan(r, n):
    """n mixed draws: scalar and size-2 uniforms, integers over ranges up
    to 2**31 + 5 and the full 2**32, and permutations of up to 12
    entries."""
    plan = []
    for _ in range(n):
        op = r.choice(("uniform", "uniform2", "integers", "permutation"))
        if op.startswith("uniform"):
            lo = r.uniform(-3.0, 3.0)
            args = (lo, lo + r.uniform(0.1, 5.0))
        elif op == "integers":
            lo = r.randrange(-10, 10)
            args = (lo, lo + r.choice((1, 2, 3, 5, 1 << 16, 1 << 31,
                                       (1 << 31) + 5, 1 << 32)))
        else:
            args = (r.randrange(13),)
        plan.append((op, args))
    return plan


@pytest.mark.parametrize("counter", COUNTERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_draws_match_numpy(seed, counter):
    plan = _plan(random.Random(seed ^ counter), 40)
    ours, ref = lab.trial_rng(seed, counter), numpy_philox(seed, counter)
    for k, (op, args) in enumerate(plan):
        assert _draw(ours, op, args) == _draw(ref, op, args), (k, op, args)


def test_default_uniform_is_numpys_random():
    ours, ref = Philox(3, 9), numpy_philox(3, 9)
    assert [ours.uniform() for _ in range(9)] == [ref.random()
                                                  for _ in range(9)]


def test_a_state_restored_mid_buffer_replays_the_half_word():
    # after one 64-bit and one 32-bit draw the buffer is part read and the
    # high half of a word is kept; a restored state replays both
    ours, ref = Philox(11, (1 << 64) - 1), numpy_philox(11, (1 << 64) - 1)
    for rng in (ours, ref):
        rng.uniform()
        rng.integers(0, 7)
    snap = ours.state
    assert snap[-1] is not None
    plan = _plan(random.Random(4), 30)
    first = [_draw(ours, op, args) for op, args in plan]
    assert first == [_draw(ref, op, args) for op, args in plan]
    other = Philox(11)
    other.state = snap
    assert [_draw(other, op, args) for op, args in plan] == first


def test_rekey_drops_the_buffer_and_the_half_word():
    rng = Philox(5)
    rng.integers(0, 3)
    assert rng.state[-1] is not None
    rng.rekey(2)
    assert rng.state == Philox(5, 2).state
    assert rng.integers(0, 1 << 30) == int(numpy_philox(5, 2).integers(
        0, 1 << 30))


@pytest.mark.parametrize("lo,hi", [(0, 0), (3, 2), (0, (1 << 32) + 1)])
def test_integers_out_of_range_raise(lo, hi):
    with pytest.raises(ValueError):
        Philox(0).integers(lo, hi)


@pytest.mark.parametrize("seed", [-1, 1 << 64, 1.5])
def test_an_out_of_range_seed_raises_before_any_draw(seed, monkeypatch):
    drawn = []
    monkeypatch.setattr(Philox, "rekey",
                        lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match="seed"):
        lab.trial_rng(seed, 0)
    for run in (lab.verify, lab.perturbation_guard):
        with pytest.raises(ValueError, match="seed"):
            run("pascal", seed=seed, trials=1)
    assert not drawn


@pytest.mark.parametrize("trial", [-1, 1 << 64])
def test_an_out_of_range_trial_raises(trial):
    with pytest.raises(ValueError, match="trial"):
        lab.trial_rng(0, trial)


def test_the_largest_seed_certifies():
    cert = lab.verify("pascal", seed=(1 << 64) - 1, trials=3)
    assert cert.passed and cert.seed == (1 << 64) - 1


def _python(code):
    """Run `code` in a fresh interpreter with src/ on the path; its stdout."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=SRC,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    return out.stdout


def test_numpy_is_loaded_only_where_a_conic_is_fitted():
    # pascal draws and checks without numpy; chasles fits a conic by SVD
    out = _python(
        "import contextlib, io, sys\n"
        "import ckgeom\n"
        "from ckgeom import cli\n"
        "loaded = ['numpy' in sys.modules]\n"
        "for tid in ('pascal', 'chasles'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(['verify', '--theorem', tid, '--trials', '1'])\n"
        "    loaded.append((code, 'numpy' in sys.modules))\n"
        "print(loaded)\n")
    assert out.strip() == "[False, (0, False), (0, True)]"

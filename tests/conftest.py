import math
import random
from contextlib import contextmanager

import pytest

from ckgeom import metric as mt
from ckgeom.projective import affine_point
from ckgeom.tolerance import set_tol


@pytest.fixture(scope="session")
def hyp():
    return mt.hyperbolic_model()


@pytest.fixture(scope="session")
def ell():
    return mt.elliptic_model()


@pytest.fixture()
def rng():
    return random.Random(20260810)


def interior_point(rng, radius=0.85):
    while True:
        x = rng.uniform(-radius, radius)
        y = rng.uniform(-radius, radius)
        if x * x + y * y < radius * radius:
            return affine_point(x, y)


def exterior_point(rng, rmin=1.15, rmax=2.8):
    ang = rng.uniform(0, 2 * math.pi)
    r = rng.uniform(rmin, rmax)
    return affine_point(r * math.cos(ang), r * math.sin(ang))


def cert_fields(cert):
    """A certificate's report fields but its wall time."""
    d = cert.to_dict()
    del d["wall_time"]
    return d


@contextmanager
def ambient_tol(value):
    """Run the block under the ambient tolerance `value`, then restore it."""
    old = set_tol(value)
    try:
        yield
    finally:
        set_tol(old)

"""Ambient tolerance policy.

All coordinates are complex doubles; every geometric predicate is mediated by
a single relative tolerance.  Homogeneous triples are normalized so the
largest-modulus component has modulus one, which makes absolute residuals of
normalized data directly comparable against the tolerance.
"""

import os

DEFAULT_TOL = 1e-9

_tol = float(os.environ.get("GEOM_TOL", DEFAULT_TOL))


def get_tol() -> float:
    return _tol


def set_tol(value: float) -> float:
    """Set the ambient tolerance, returning the previous value."""
    global _tol
    if not value > 0:
        raise ValueError("tolerance must be positive")
    old, _tol = _tol, float(value)
    return old

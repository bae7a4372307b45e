"""Ambient tolerance policy.

All coordinates are complex doubles; every geometric predicate is mediated by
a single relative tolerance, which every function reads with `get_tol()`.
It starts at GEOM_TOL (default 1e-9), read on first use; it must be finite, > 0.
`lab.verify` sets it to the run's `tol` and restores it when the run ends.
Homogeneous triples are normalized so the largest-modulus component has
modulus one, which makes absolute residuals of normalized data directly
comparable against the tolerance.
"""

import math
import os

DEFAULT_TOL = 1e-9


def checked_tol(value, name="tolerance") -> float:
    """`value` as a float if it is a positive finite number, else ValueError."""
    try:
        if 0.0 < (t := float(value)) < math.inf:
            return t
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} must be a positive finite number, got {value!r}")


_tol = None


def get_tol() -> float:
    global _tol
    if _tol is None:
        _tol = checked_tol(os.environ.get("GEOM_TOL", DEFAULT_TOL), "GEOM_TOL")
    return _tol


def set_tol(value: float) -> float:
    """Set the ambient tolerance, returning the previous value."""
    global _tol
    old, _tol = get_tol(), checked_tol(value)
    return old

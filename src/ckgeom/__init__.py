"""Numerically certified planar projective geometry over CP^2 with a
Cayley-Klein metric layer: cross ratios, conics and polarity, non-euclidean
trigonometry, triangle centers, and a randomized theorem-verification
harness."""

from .tolerance import get_tol, set_tol
from .projective import (
    HPoint,
    HLine,
    hpoint,
    hline,
    affine_point,
    join_points,
    meet_lines,
    cross_ratio_points,
    cross_ratio_lines,
    harmonic_conjugate,
    separates,
    Quadrangle,
    quadrangular_involution,
)
from .conics import (
    Conic,
    unit_circle,
    unit_imaginary_conic,
    polar,
    pole,
    line_conic_meet,
    conjugate_point,
    conjugate_line,
    conic_through_five,
    cross_ratio_on_conic,
    eleven_point_conic,
)
from .metric import (
    ModelGeometry,
    hyperbolic_model,
    elliptic_model,
    distance,
    angle_lines,
    midpoints,
    point_symmetry,
    squared_trig,
    translate_trig,
)
from .centers import build_config, PolarTriangleConfig
from .lab import verify, Certificate, theorem_ids

__version__ = "0.1.0"

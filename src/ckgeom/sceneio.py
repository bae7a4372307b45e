"""JSON scene files: an absolute conic plus named points.

Complex numbers are always two-element [re, im] arrays; the conic is a 3x3
matrix of them.  Strict parsing rejects unknown fields so scene files stay
language-neutral and diffable.  A field of the wrong shape, or a conic that
cannot be the absolute of a model, raises SceneError.
"""

from __future__ import annotations

import json

from . import conics as cn
from . import metric as mt
from .errors import GeometryError
from .projective import HPoint, hpoint

KNOWN_FIELDS = {"conic", "points", "labels", "styles"}


class SceneError(GeometryError):
    pass


class Scene:
    __slots__ = ("model", "points", "labels", "styles")

    def __init__(self, model, points, labels=None, styles=None):
        self.model = model
        self.points = points
        self.labels = labels or {}
        self.styles = styles or {}

    def point(self, name: str) -> HPoint:
        if name not in self.points:
            raise SceneError(f"unknown point name {name!r}")
        return self.points[name]


def _is_array(value, n: int) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == n


def _c(pair) -> complex:
    try:
        if _is_array(pair, 2):
            return complex(float(pair[0]), float(pair[1]))
    except (TypeError, ValueError):
        pass
    raise SceneError(f"complex values are [re, im] pairs, got {pair!r}")


def _pair(z: complex):
    return [z.real, z.imag]


def parse_scene(data, strict: bool = True) -> Scene:
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise SceneError("a scene is a JSON object")
    if strict:
        unknown = set(data) - KNOWN_FIELDS
        if unknown:
            raise SceneError(f"unknown scene fields: {sorted(unknown)}")
    if "conic" not in data:
        raise SceneError("scene needs a 'conic' field")
    rows = data["conic"]
    if not (_is_array(rows, 3) and all(_is_array(r, 3) for r in rows)):
        raise SceneError("conic must be a 3x3 matrix of [re, im] pairs")
    matrix = [[_c(v) for v in row] for row in rows]
    try:
        model = mt.ModelGeometry(cn.Conic.from_matrix(matrix))
    except GeometryError as exc:
        raise SceneError(f"the conic cannot be an absolute: {exc}") from None
    fields = {f: data.get(f, {}) for f in ("points", "labels", "styles")}
    for field, value in fields.items():
        if not isinstance(value, dict):
            raise SceneError(f"{field!r} must be a JSON object")
    points = {}
    for name, triple in fields["points"].items():
        if not _is_array(triple, 3):
            raise SceneError(f"point {name!r} must have three coordinates")
        try:
            points[name] = hpoint(*(_c(v) for v in triple))
        except ValueError as exc:  # a zero or non-finite triple
            raise SceneError(f"point {name!r}: {exc}") from None
    return Scene(model, points, fields["labels"], fields["styles"])


def load_scene(path, strict: bool = True) -> Scene:
    with open(path) as fh:
        return parse_scene(json.load(fh), strict=strict)


def scene_to_dict(scene: Scene):
    rows = scene.model.absolute.matrix_rows()
    return {
        "conic": [[_pair(v) for v in row] for row in rows],
        "points": {name: [_pair(c) for c in p]
                   for name, p in scene.points.items()},
        **({"labels": scene.labels} if scene.labels else {}),
        **({"styles": scene.styles} if scene.styles else {}),
    }


def dump_scene(scene: Scene, path):
    with open(path, "w") as fh:
        json.dump(scene_to_dict(scene), fh, indent=2)
        fh.write("\n")


def builtin_scene(name: str = "default") -> Scene:
    """Deterministic demonstration scenes."""
    if name in ("default", "hyperbolic"):
        model = mt.hyperbolic_model()
        pts = {
            "A": hpoint(-0.42, -0.35, 1.0),
            "B": hpoint(0.55, -0.2, 1.0),
            "C": hpoint(0.1, 0.52, 1.0),
        }
        return Scene(model, pts)
    if name == "elliptic":
        model = mt.elliptic_model()
        pts = {
            "A": hpoint(-0.5, -0.3, 1.0),
            "B": hpoint(0.65, -0.15, 1.0),
            "C": hpoint(0.05, 0.6, 1.0),
        }
        return Scene(model, pts)
    if name == "unit-circle":
        model = mt.hyperbolic_model()
        pts = {"A": hpoint(0.0, 0.0, 1.0), "B": hpoint(0.5, 0.0, 1.0)}
        return Scene(model, pts)
    raise SceneError(f"unknown builtin scene {name!r}")

"""Every function, class and method defined under src/ckgeom is used by the
program: loaded somewhere under src/ or bench/ outside its own definition.

A definition that only tests reach is a second copy of a construction or a
knob the program never turns; it goes, and its tests move to the code the
certificates run.  "Loaded" means read as a name (`f(...)`), as an
attribute (`mod.f`), by `getattr` with a constant name, or named in a
constant argument of `attrgetter`, as in `test_slots`.  Importing a name is
no use of it, so the re-exports of `ckgeom/__init__` do not count.  Dunder
methods are called by the language and are left out.
"""

import ast

from test_slots import _attribute_reads, _trees

_LAW = "a figure law that acceptance criterion 7 reads"
_CLASSICAL = "a classical theorem of the paper, not yet a certified id"

# public names that stay though nothing under src/ or bench/ loads them
ALLOWED = {
    "cross_ratio_lines": "the public dual of `cross_ratio_points`, and the "
                         "only caller of `line_through`, which "
                         "bench/tracer.py traces",
    "diagonal_points": "the diagonal triangle of a public `Quadrangle`",
    "dump_scene": "the writer of the scene format that `load_scene` reads",
    "conic_through_five": "the public five-point conic; its count check "
                          "validates input from library callers",
    "menelaus_residual": _CLASSICAL,
    "ceva_residual": _CLASSICAL,
    "van_aubel": _CLASSICAL,
    "elliptic_triangle_laws": _LAW,
    "hyperbolic_triangle_laws": _LAW,
    "hexagon_laws": _LAW,
    "quadrilateral_laws": _LAW,
}


def _loads(tree):
    """(line, name) of every name the module loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.lineno, node.id
        for name in _attribute_reads(node):
            yield node.lineno, name


def unreached():
    """(file, name) of every definition under src/ckgeom, dunders aside,
    that nothing under src/ or bench/ loads outside its own lines."""
    loads = {}
    for path, tree in _trees("src", "bench"):
        for line, name in _loads(tree):
            loads.setdefault(name, []).append((path, line))
    out = []
    for path, tree in _trees("src/ckgeom"):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if all(where == path and node.lineno <= line <= node.end_lineno
                   for where, line in loads.get(name, ())):
                out.append((path.name, name))
    return out


def test_every_definition_is_used_by_the_program():
    found = [f"{f}: {name}" for f, name in unreached() if name not in ALLOWED]
    assert not found, "reached only by tests: " + ", ".join(found)


def test_every_allowed_name_is_unreached():
    # a name the program comes to load leaves the allowlist
    used = set(ALLOWED) - {name for _, name in unreached()}
    assert not used, sorted(used)

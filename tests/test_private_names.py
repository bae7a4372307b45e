"""No module under src/ckgeom reads a private name of another ckgeom module,
through its module alias or by importing the name.

A module reaches another through an alias (`from . import trig as tg`,
`from . import lab`) or imports names from it (`from .projective import
hpoint`).  An attribute of that alias with a leading underscore (`tg._x`),
or an imported name with one (`from .projective import _x`), is the other
module's private name: it gets a public name with only the parameters it
reads, or stays inside its module.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ckgeom"


def _module_aliases(tree):
    """Local names that the imports of one module bind to ckgeom modules."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module is None)
                or (node.level == 0 and node.module == "ckgeom")):
            aliases.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names
                           if a.name.startswith("ckgeom.") and a.asname)
    return aliases


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reads(src=SRC):
    """(file, line, alias.name) of every private name that a module under
    `src` reads through the alias of another ckgeom module, and (file, line,
    module.name) of every private name it imports from one."""
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        aliases = _module_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.level == 1 or node.module.startswith("ckgeom.")):
                module = node.module.rsplit(".", 1)[-1]
                out.extend((path.name, node.lineno, f"{module}.{a.name}")
                           for a in node.names if _private(a.name))
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases
                    and _private(node.attr)):
                out.append((path.name, node.lineno,
                            f"{node.value.id}.{node.attr}"))
    return out


def test_no_module_reads_another_modules_private_names():
    found = private_reads()
    assert not found, "private names read across modules: " + ", ".join(
        f"{f}:{line} {name}" for f, line, name in found)


def test_aliases_are_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import trig as tg\nfrom . import lab\n"
        "from ckgeom import rays as ry\nimport ckgeom.metric as mt\n"
        "from .projective import join_points, _f, __version__\n"
        "from ckgeom.conics import _g\n"
        "from numpy import _h\n"
        "x = tg._a(lab._b, ry._c, mt._d, mt.__name__, join_points._e)\n")
    assert sorted(name for _, _, name in private_reads(tmp_path)) == [
        "conics._g", "lab._b", "mt._d", "projective._f", "ry._c", "tg._a"]

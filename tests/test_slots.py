"""Every `__slots__` entry of a class in src/ckgeom is read somewhere.

A slot that is set and never read costs memory on every object and keeps
what it holds alive.  "Read" means loaded as an attribute (`obj.name`),
read by `getattr` with a constant name, or named in a constant argument of
`attrgetter` (each part of a dotted path is read), anywhere under src/,
tests/ or bench/.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _slots(tree):
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if (isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__slots__"
                            for t in stmt.targets)):
                for name in ast.literal_eval(stmt.value):
                    yield cls.name, name


def _attribute_reads(node):
    """The attribute names that one node reads, its children aside."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if (node.func.id == "getattr" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value
        elif node.func.id == "attrgetter":
            for arg in node.args:
                if isinstance(arg, ast.Constant):
                    yield from arg.value.split(".")


def _reads(tree):
    for node in ast.walk(tree):
        yield from _attribute_reads(node)


def test_every_slot_is_read():
    read = set()
    for _, tree in _trees("src", "tests", "bench"):
        read.update(_reads(tree))
    slots = [(path.name, cls, name)
             for path, tree in _trees("src/ckgeom") for cls, name in _slots(tree)]
    assert slots
    unread = [f"{f}: {cls}.{name}" for f, cls, name in slots if name not in read]
    assert not unread, "slots never read: " + ", ".join(unread)


def test_attrgetter_names_count_as_reads():
    tree = ast.parse('get = attrgetter("cfg.A", "F")\ngetattr(o, "G")')
    assert set(_reads(tree)) == {"cfg", "A", "F", "G"}

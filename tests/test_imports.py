"""Every module of the package uses each name it imports.

`__init__.py` is exempt: it imports to re-export.  A name counts as used
when it appears as a name anywhere in the module, quoted annotations
included.
"""

import ast
from pathlib import Path

import toricva

SRC = Path(toricva.__file__).parent


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _used(ast.parse(ann.value, mode="eval"))
    return names


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    unused = {}
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set(_imported(tree)) - _used(tree)
        if names:
            unused[path.name] = sorted(names)
    assert unused == {}


def test_the_guard_sees_an_unused_import():
    tree = ast.parse(
        "from math import gcd, lcm\nimport os.path\n\ndef f(x: 'gcd'):\n    return x\n"
    )
    assert set(_imported(tree)) - _used(tree) == {"lcm", "os"}

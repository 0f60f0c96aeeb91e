"""Every module of the package uses each name it imports, and every
definition is used.

`__init__.py` is exempt from the import check: it imports to re-export.  A
name counts as used when it appears as a name anywhere in the module,
quoted annotations included.  A top-level function, class or assignment,
or a method or property other than a dunder, counts as used when it is
exported in `toricva.__all__` or appears as a name or an attribute
somewhere in the package outside its own definition.
"""

import ast
from collections import Counter
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


def _definitions(tree):
    """(label, name, node) for each top-level function, class and
    assignment target and each non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node


def _references(node) -> Counter:
    """Names read and attributes taken anywhere in node, quoted annotations
    included."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        for ann in (getattr(sub, "annotation", None), getattr(sub, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                refs.update(_references(ast.parse(ann.value, mode="eval")))
    return refs


def _dead(sources: dict[str, str], exported) -> list[str]:
    """The definitions of the given modules (name -> source) that are
    neither exported nor referenced outside their own definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    refs = Counter()
    for tree in trees.values():
        refs.update(_references(tree))
    dead = []
    for module, tree in sorted(trees.items()):
        if module == "__init__":
            continue
        for label, name, node in _definitions(tree):
            if name not in exported and refs[name] - _references(node)[name] <= 0:
                dead.append(f"{module}.{label}")
    return dead


def test_every_definition_is_exported_or_used():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert len(sources) >= 11
    assert _dead(sources, set(toricva.__all__)) == []


def test_the_guard_sees_an_unused_definition():
    sources = {
        "__init__": "from .m import public\n",
        "m": (
            "LIMIT = 3\n"
            "UNUSED = 4\n"
            "def public(x):\n    return helper(x) + LIMIT\n"
            "def helper(x) -> 'Box':\n    return Box(x).size\n"
            "def recursive(x):\n    return recursive(x - 1) if x else 0\n"
            "class Box:\n"
            "    def __init__(self, x):\n        self.x = x\n"
            "    @property\n    def size(self):\n        return self.x\n"
            "    def unused(self):\n        return self.x\n"
        ),
    }
    assert _dead(sources, {"public"}) == ["m.UNUSED", "m.recursive", "m.Box.unused"]


def _names(tree, name: str) -> bool:
    """Whether the module defines, imports, reads or takes as an attribute
    `name`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return True
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(alias.name == name for alias in node.names):
                return True
    return False


def test_only_linalg_and_cones_eliminate_a_cone_matrix():
    # every other layer reads the inverse a cone carries
    users = sorted(
        p.stem
        for p in SRC.glob("*.py")
        if _names(ast.parse(p.read_text(encoding="utf-8")), "integer_left_inverse")
    )
    assert users == ["cones", "linalg"]


def test_the_guard_sees_each_way_of_naming_a_function():
    for text in (
        "from .linalg import integer_left_inverse as inv\n",
        "from . import linalg\nf = linalg.integer_left_inverse\n",
        "def f(m):\n    return integer_left_inverse(m)\n",
    ):
        assert _names(ast.parse(text), "integer_left_inverse"), text
    assert not _names(ast.parse("from .linalg import lattice_index\n"), "integer_left_inverse")


def _defined(path: Path) -> set[str]:
    return {
        node.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    }


def test_the_subset_scan_is_only_a_test_oracle():
    # cones finds facets by the double description; the scan over
    # C(m, rank - 1) inequality subsets is the reference it is tested against
    cones = ast.parse((SRC / "cones.py").read_text(encoding="utf-8"))
    assert not any(_names(cones, name) for name in ("combinations", "comb"))
    tests = Path(__file__).parent
    scanners = sorted(
        p.name for p in [*SRC.glob("*.py"), *tests.glob("*.py")] if "extreme_rays" in _defined(p)
    )
    assert scanners == ["oracles.py"]

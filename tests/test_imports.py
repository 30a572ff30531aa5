"""No module of the package imports a name it never uses, or any module
outside the standard library, and every function, class and method in it
has a use.

The one exception to the first rule is a name that perfbench/layers.py traces in that module:
the traced benchmark patches it there, so the module must keep the binding.
A definition has a use when `src/` reads its name outside its own body, when
README.md names it in backticks, or when perfbench/layers.py traces it.
"""

import ast
import importlib.util
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "cubegroups").glob("*.py"))


def _traced_names():
    spec = importlib.util.spec_from_file_location("layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return {(path.partition(".")[0], attr) for path, attr, _ in layers.GENERATORS + layers.SPANS}


TRACED = _traced_names()


def unused_imports(source: str) -> list[str]:
    """Names bound by an import (other than from __future__) that the module
    neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    unused = [name for name in unused_imports(path.read_text()) if (path.stem, name) not in TRACED]
    assert unused == []


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom a import b, c as d\n"
    assert unused_imports(source + "__all__ = ['b']\n") == ["d", "os"]
    assert unused_imports(source + "os.sep\nd()\n__all__ = ('b',)\n") == []


def foreign_imports(source: str) -> list[str]:
    """Top-level modules imported absolutely that are not in the standard
    library (which lists __future__): ``src/`` has no dependencies."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    tops = {name.partition(".")[0] for name in names}
    return sorted(tops - sys.stdlib_module_names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_stdlib_only(path):
    assert foreign_imports(path.read_text()) == []


def test_the_check_sees_a_dependency():
    source = "from __future__ import annotations\nimport itertools, os.path\nfrom . import group\n"
    assert foreign_imports(source) == []
    assert foreign_imports(source + "import numpy\nfrom scipy.linalg import det\n") == [
        "numpy", "scipy"]


def _reads(node) -> tuple[Counter, Counter]:
    """The names a syntax tree reads: its loaded names, and its attributes."""
    nodes = list(ast.walk(node))
    return (Counter(n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)),
            Counter(n.attr for n in nodes if isinstance(n, ast.Attribute)))


def _definitions(tree, prefix="", in_class=False):
    """``(qualified name, node, is a method)`` for each function and class in
    a tree, dunders aside; a definition inside another is qualified by it."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield prefix + node.name, node, in_class
            yield from _definitions(node, prefix + node.name + ".", isinstance(node, ast.ClassDef))
        else:
            yield from _definitions(node, prefix, in_class)


def unused_definitions(sources: dict, readme: str, traced: set) -> list[str]:
    """``module.qualified_name`` of each definition in `sources` (module ->
    source) that no module reads outside the definition's own body (a method
    only as an attribute), that no backtick span of `readme` starts with by
    name or qualified name (a call's arguments aside), and whose name is not
    in `traced`."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    names, attrs = Counter(), Counter()
    for tree_names, tree_attrs in map(_reads, trees.values()):
        names.update(tree_names)
        attrs.update(tree_attrs)
    documented = {m.group() for span in re.findall(r"`([^`\n]+)`", readme)
                  if (m := re.match(r"[A-Za-z_][\w.]*", span))}
    unused = []
    for module, tree in trees.items():
        for qualname, node, is_method in _definitions(tree):
            name = qualname.rpartition(".")[2]
            own_names, own_attrs = _reads(node)
            if (attrs[name] > own_attrs[name] or name in traced
                    or not is_method and names[name] > own_names[name]
                    or any(d in (name, qualname) or d.endswith("." + qualname)
                           for d in documented)):
                continue
            unused.append(f"{module}.{qualname}")
    return unused


def test_every_definition_has_a_use():
    sources = {path.stem: path.read_text() for path in MODULES}
    traced = {name for _, name in TRACED}
    assert unused_definitions(sources, (ROOT / "README.md").read_text(), traced) == []


def test_the_check_sees_an_unused_definition():
    source = (
        "class A:\n    def __init__(self): pass\n    def m(self): return self.m()\n"
        "    def n(self): pass\n\n"
        "def f(): return f()\ndef g(): return A().n()\ndef h(): pass\ndef k(): pass\n"
        "def p():\n    def q(): pass\n    return q\np()\n"
    )
    readme = "Call `g(x)` or `mod.A`, but not h, nor `A`k."
    unused = ["mod.A.m", "mod.f", "mod.h", "mod.k"]
    assert unused_definitions({"mod": source}, readme, set()) == unused
    assert unused_definitions({"mod": source}, readme, {"k"}) == unused[:3]

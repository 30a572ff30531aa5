"""No module of the package imports a name it never uses, or any module
outside the standard library.

The one exception to the first rule is a name that perfbench/layers.py traces in that module:
the traced benchmark patches it there, so the module must keep the binding.
"""

import ast
import importlib.util
import sys
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

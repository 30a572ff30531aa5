"""The traced benchmark patches library names listed in perfbench/layers.py;
every one of them must exist, or a traced run fails with an AttributeError."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_layers", Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


@pytest.mark.parametrize(
    "path,attr",
    [(path, attr) for path, attr, _ in layers.GENERATORS + layers.SPANS],
    ids=lambda x: x,
)
def test_traced_name_resolves(path, attr):
    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"cubegroups.{module}")
    if cls:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))

"""The benchmark under perfbench/, loaded read-only.

The traced benchmark patches library names listed in perfbench/layers.py;
every one of them must exist, or a traced run fails with an AttributeError.
And one pass of each workload must pass the workload's own output checks, so
a broken query or normal-form path fails here too.  One short traced run must
report the closure's counters, so a return value the tracer's hooks can no
longer read fails here as well.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load("layers")
with mock.patch.dict(sys.modules, {"inputs": _load("inputs")}):  # workloads.py imports it
    workloads = _load("workloads")


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


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_pass_passes_its_checks(name):
    lib = SimpleNamespace(**{m: importlib.import_module(f"cubegroups.{m}") for m in layers.MODULES})
    workload = workloads.WORKLOADS[name](lib, 1)
    _, output = workload.run()
    checks = workloads.Checks()
    workload.check(output, checks)
    assert checks.attempted > 0
    assert checks.failed == 0, checks.messages


def _traced_run(workload):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), *argv],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    return result["metrics"]


def test_traced_run_counts_the_closure():
    """One short traced run: the tracer's result hooks read the library's
    return values, so a changed return shape fails here."""
    metrics = _traced_run("reverse-r11")
    assert metrics["group._closure.calls"]["value"] > 0
    assert metrics["group.elements"]["value"] > 0


def test_traced_closure_r12_counts_both_groups():
    """A traced closure-r12 pass builds two rank-12 groups through
    `generate_group`, which runs `_vertex_closure` directly and never the
    reverse construction's `_closure`, so the tracer counts each group's 4096
    elements once, from the built group's order."""
    metrics = _traced_run("closure-r12")
    assert metrics["group._closure.calls"]["value"] == 0
    assert metrics["group.generate_group.calls"]["value"] == 2
    assert metrics["group.elements"]["value"] == 2 * 4096

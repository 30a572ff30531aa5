"""Benchmark of the cubegroups library: one workload per run.

    python3 perfbench/run.py --workload sweep-r5 --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src`` and nothing else.  One caller in one process, closed loop:
each pass starts when the previous one has ended, with ``jobs=1`` and no
threads.

With ``--trace 0`` it sets up the workload several times, then runs passes
until the next pass would take the measured time past ``--seconds`` (at least
one), checks every pass's output, and reports the end-to-end metrics; pass
times are gated in units of a reference loop timed during the pass
(`speed.py`), which cancels the machine's speed swings.  With
``--trace 1`` it runs one untraced pass and one traced pass, checks both, and
reports the per-layer metrics of the traced pass; its spans are written to
``.bench_out/`` in the checkout.  The last line of standard output is the
result as JSON; the line before it carries the workload-specific phase timings.
Exits 1, with no result line, when the package cannot be imported from the
checkout; exits 1 after the result line when a check fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

import layers
from spans import Tracer
from speed import SpeedSampler
from workloads import WORKLOADS, Checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
# A fresh interpreter importing the CLI: the start-up a command-line user pays.
IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import cubegroups.cli"
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("peak_rss_mb", "MB"),
)


def load_library() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    try:
        import cubegroups
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import cubegroups from {SRC}: {exc}")
    if Path(cubegroups.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported cubegroups from {cubegroups.__file__}, not {SRC}")
    # Modules by name: `import cubegroups.sweep` would give the re-exported function.
    return SimpleNamespace(**{m: importlib.import_module(f"cubegroups.{m}") for m in layers.MODULES})


def set_up(cls, lib, seed):
    """Build the workload SETUP_REPEATS times; (workload, median seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True)
        workload = cls(lib, seed)
        times.append(perf_counter() - t0)
    return workload, median(times)


def timed_pass(workload, checks):
    """Run and check one pass; its own wall time (sampling excluded) and that
    time in units of the reference loop's duration during the pass."""
    with SpeedSampler() as speed:
        t0 = perf_counter_ns()
        phases, output = workload.run()
        t1 = perf_counter_ns()
    workload.check(output, checks)
    wall_ns = speed.net_ns(t0, t1)
    return wall_ns / 1e9, wall_ns / speed.ref_ns(), phases


def measure(workload, seconds, checks):
    walls, refs, phases = [], [], {}
    while True:
        wall, ref, pass_phases = timed_pass(workload, checks)
        walls.append(wall)
        refs.append(ref)
        for k, v in pass_phases.items():
            phases.setdefault(k, []).extend(v)
        if sum(walls) + wall > seconds:
            break
    metrics = {
        "wall_ref": median(refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"passes": len(walls), "wall_s": median(walls), "pass_wall_s": walls,
              "pass_wall_ref": refs, **workload.summary(phases, walls)}
    return metrics, detail


def trace(workload, lib, checks, span_path):
    untraced_wall, untraced_ref, _ = timed_pass(workload, checks)
    tracer = Tracer()
    layers.install(tracer, lib)
    try:
        with SpeedSampler() as speed, tracer.span(layers.ROOT):
            _, output = workload.run()
    finally:
        tracer.restore()
    workload.check(output, checks)
    problems = tracer.check_nesting()
    checks.expect(not problems, f"span tree: {problems[:3]}")
    # Overhead in reference units, converted at the untraced pass's speed, so
    # that a speed swing between the two passes does not read as overhead.
    traced_ref = speed.net_ns(tracer.start[0], tracer.end[0]) / speed.ref_ns()
    overhead_s = (traced_ref - untraced_ref) * untraced_wall / untraced_ref
    metrics = layers.metrics(tracer, untraced_wall, overhead_s)
    path_sum = sum(metrics[m + ".self_s"] for m in layers.ROLLUPS)
    checks.expect(abs(path_sum - metrics["trace.wall_s"]) < 1e-6,
                  f"layer self times add up to {path_sum} s, not {metrics['trace.wall_s']} s")
    span_path.parent.mkdir(exist_ok=True)
    tracer.write(span_path)
    return metrics, {"spans_file": str(span_path.relative_to(ROOT)), "layer_self_sum_s": path_sum}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    lib = load_library()
    workload, setup_s = set_up(WORKLOADS[args.workload], lib, args.seed)
    checks = Checks()
    if args.trace:
        span_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        metrics, detail = trace(workload, lib, checks, span_path)
        units = {name: unit for name, unit, _ in layers.metric_specs()}
    else:
        metrics, detail = measure(workload, args.seconds, checks)
        metrics["setup_s"] = setup_s
        units = dict(END_TO_END)
    detail.update(workload=args.workload, seed=args.seed, setup_s=setup_s,
                  error_ratio=checks.failed / checks.attempted, failures=checks.messages)
    print("perfbench detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

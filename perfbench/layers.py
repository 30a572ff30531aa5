"""Where the traced run patches the library, and the per-layer metrics it reports.

The layers are the package's modules.  Each span is named after the module
and function that does the work; the module is the one whose name binding is
patched, i.e. the caller's view (``generate_group`` inside ``cubegroups.sweep``
is patched in the sweep module, but its span is ``group.generate_group``).
"""

from __future__ import annotations

from collections import Counter

MODULES = ("cli", "sweep", "graphs", "group", "decompose", "rep", "signedperm")

# (module or "module.Class" to patch, attribute, span name)
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "run_sweep", "sweep.sweep"),
    ("sweep", "verify_graph", "sweep.verify_graph"),
    ("sweep", "DecoratedGraph", "graphs.DecoratedGraph"),
    ("graphs", "DecoratedGraph", "graphs.DecoratedGraph"),
    ("group", "DecoratedGraph", "graphs.DecoratedGraph"),
    ("sweep", "admissible_quick", "graphs.admissible_quick"),
    ("group", "require_admissible", "graphs.require_admissible"),
    ("decompose", "require_admissible", "graphs.require_admissible"),
    ("rep", "require_admissible", "graphs.require_admissible"),
    ("sweep", "generate_group", "group.generate_group"),
    ("group", "generate_group", "group.generate_group"),
    ("group", "LabeledGraph", "group.LabeledGraph"),
    ("group", "is_hypercube", "group.is_hypercube"),
    ("group", "_closure", "group._closure"),
    ("group", "decorated_graph_from_group", "group.decorated_graph_from_group"),
    ("group", "standard_subgroup", "group.standard_subgroup"),
    ("sweep", "word_matrix", "group.word_matrix"),
    ("group", "word_matrix", "group.word_matrix"),
    ("group.CubeGroup", "element_for_word", "group.element_for_word"),
    ("sweep", "orbit_tree", "decompose.orbit_tree"),
    ("decompose", "orbit_tree", "decompose.orbit_tree"),
    ("sweep", "normal_form", "decompose.normal_form"),
    ("decompose", "normal_form", "decompose.normal_form"),
    ("sweep", "two_orbit_check", "decompose.two_orbit_check"),
    ("decompose.NormalForm", "bits_for", "decompose.bits_for"),
    ("sweep", "is_reducible", "rep.is_reducible"),
    ("sweep", "rho_via_formula", "rep.rho_via_formula"),
)
GENERATORS = (("sweep", "enumerate_decorated_graphs", "sweep.enumerate"),)
SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, _, name in GENERATORS] + [name for _, _, name in SPANS]))
ROOT = "bench.pass"
# Modules whose self times partition a traced pass; "bench" is the pass itself.
ROLLUPS = ("cli", "sweep", "graphs", "group", "decompose", "rep", "bench")


def _calls_metric(name):
    return "sweep.enumerate.graphs" if name == "sweep.enumerate" else name + ".calls"


def _count_admissible(counts, result):
    counts["graphs.admissible_quick.true"] += bool(result)


def _count_group(counts, result):
    counts["group.elements"] += result.order


def _count_closure(counts, result):
    counts["group.elements"] += len(result[0])


ON_RESULT = {
    "graphs.admissible_quick": _count_admissible,
    "group.generate_group": _count_group,
    "group._closure": _count_closure,
}


def _owner(lib, path):
    module, _, cls = path.partition(".")
    owner = getattr(lib, module)
    return getattr(owner, cls) if cls else owner


def install(tracer, lib) -> None:
    for path, attr, name in GENERATORS:
        tracer.wrap_generator(_owner(lib, path), attr, name)
    for path, attr, name in SPANS:
        tracer.wrap(_owner(lib, path), attr, name, ON_RESULT.get(name))
    tracer.count(lib.signedperm.SignedPermutation, ("compose", "__mul__"),
                 "signedperm.compose.calls")


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in SPAN_NAMES:
        specs += [(name + ".s", "s", "lower"), (name + ".self_s", "s", "lower"),
                  (_calls_metric(name), "count", "lower")]
    specs += [(m + ".self_s", "s", "lower") for m in ROLLUPS]
    specs += [
        ("graphs.admissible_ratio", "ratio", "higher"),
        ("group.elements", "count", "lower"),
        ("signedperm.compose.calls", "count", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return specs


def metrics(tracer, untraced_wall_s: float, overhead_s: float) -> dict[str, float]:
    """Per-layer totals from the spans of one traced pass.

    ``.s`` sums the spans of a name that have no same-named ancestor, so
    recursion is not counted twice; ``.self_s`` sums self times.  The
    module ``.self_s`` values partition the pass, so they add up to
    ``trace.wall_s``.
    """
    names = tracer.names
    self_ns = tracer.self_ns()
    total = Counter()
    own = Counter()
    module_self = Counter()
    open_names = []  # names of the ancestors of span i, as a stack
    ancestors = []   # span ids on that stack
    for i in range(len(self_ns)):
        while ancestors and ancestors[-1] != tracer.parent[i]:
            ancestors.pop()
            open_names.pop()
        name = names[tracer.name[i]]
        if name not in open_names:
            total[name] += tracer.end[i] - tracer.start[i]
        own[name] += self_ns[i]
        module_self[name.split(".")[0]] += self_ns[i]
        ancestors.append(i)
        open_names.append(name)

    counts = tracer.counts
    out = {}
    for name in SPAN_NAMES:
        out[name + ".s"] = total[name] / 1e9
        out[name + ".self_s"] = own[name] / 1e9
        out[_calls_metric(name)] = counts[name + ".calls"]
    for module in ROLLUPS:
        out[module + ".self_s"] = module_self[module] / 1e9
    quick = counts["graphs.admissible_quick.calls"]
    out["graphs.admissible_ratio"] = counts["graphs.admissible_quick.true"] / quick if quick else 0.0
    out["group.elements"] = counts["group.elements"]
    out["signedperm.compose.calls"] = counts["signedperm.compose.calls"]
    out["trace.spans"] = len(self_ns)
    out["trace.wall_s"] = total[ROOT] / 1e9
    out["trace.untraced_wall_s"] = untraced_wall_s
    out["trace.overhead_s"] = overhead_s
    return out

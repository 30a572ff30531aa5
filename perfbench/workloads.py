"""The benchmark workloads.

A workload builds its inputs from the seed in its constructor (the set-up),
runs one closed-loop pass per `run()` call, and checks a pass's outputs in
`check()`, outside the timed region.  Every library call goes through a module
attribute looked up at call time, so the tracer's patches see it.

- sweep-r5: the paper's headline verification, through the CLI.  All 100,000
  rank-5 graphs are enumerated and tested for admissibility; the 236
  admissible ones get the full battery.  The population is exhaustive, so the
  seed has nothing to choose.  Groups have at most 32 elements, so work on
  closure scaling is bypassed here.
- closure-r12: building two rank-12 groups (closure, Cayley validation, cube
  certification) along the CLI normal-form path, then querying them.  An
  implicit-group refactor that makes building cheaper and queries slower
  shows here.
- reverse-r11: the same closure, Cayley-graph and cube layers reached through
  the second closure `_closure`, with `Perm` elements and another
  multiplication oracle.  A change to one closure path that costs the other
  shows here.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from statistics import median, quantiles
from time import perf_counter, perf_counter_ns

import inputs

QUERIES_PER_GRAPH = 1000


class SetupError(Exception):
    pass


class Checks:
    """Counts output checks; `failed / attempted` is the error ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


class SweepR5:
    argv = ("enumerate", "--rank", "5", "--json")
    total = 100_000
    admissible = 236

    def __init__(self, lib, seed):
        self.lib = lib

    def run(self):
        """One pass: (phase timings, output to check)."""
        out = io.StringIO()
        with redirect_stdout(out):
            code = self.lib.cli.main(list(self.argv))
        return {}, (code, out.getvalue())

    def check(self, output, checks: Checks) -> None:
        code, text = output
        checks.expect(code == 0, f"enumerate exited with {code}")
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            checks.expect(False, "enumerate printed no JSON report")
            return
        checks.expect(report.get("total_graphs") == self.total,
                      f"total_graphs {report.get('total_graphs')}")
        checks.expect(report.get("admissible_count") == self.admissible,
                      f"admissible_count {report.get('admissible_count')}")
        checks.expect(report.get("verified_count") == self.admissible,
                      f"verified_count {report.get('verified_count')}")
        checks.expect(report.get("failures") == [], f"failures {report.get('failures')}")

    @staticmethod
    def summary(phases, walls):
        return {"sweep_graphs_per_s": median(SweepR5.total / w for w in walls)}


def _admissible_graph(lib, labels, involutions):
    g = lib.graphs.DecoratedGraph(labels, involutions)
    if not lib.graphs.is_admissible(g).admissible:
        raise SetupError(f"generated rank-{g.rank} graph is not admissible")
    return g


class ClosureR12:
    rank = 12

    def __init__(self, lib, seed):
        self.lib = lib
        rng = random.Random(seed)
        labels, involutions, _ = inputs.union_graph(rng, inputs.CLOSURE_COMPONENTS)
        self.graphs = [
            _admissible_graph(lib, *inputs.abelian_graph(rng, self.rank)),
            _admissible_graph(lib, labels, involutions),
        ]
        self.words = [
            inputs.words(rng, g.labels, QUERIES_PER_GRAPH, 2 * g.rank) for g in self.graphs
        ]

    def run(self):
        group, decompose = self.lib.group, self.lib.decompose
        phases = {"generate_s": [], "decompose_s": [], "query_ns": []}
        outputs = []
        for g, words in zip(self.graphs, self.words):
            t0 = perf_counter()
            G = group.generate_group(g)
            t1 = perf_counter()
            ordering = decompose.decomposition_ordering(decompose.orbit_tree(g))
            nf = decompose.normal_form(G, ordering)
            t2 = perf_counter()
            phases["generate_s"].append(t1 - t0)
            phases["decompose_s"].append(t2 - t1)
            answers = []
            latencies = phases["query_ns"]
            for word in words:
                q0 = perf_counter_ns()
                element = G.element_for_word(word)
                bits = nf.bits_for(element)
                latencies.append(perf_counter_ns() - q0)
                answers.append((element.matrix, bits))
            outputs.append((G.order, len(G.cayley.edges), ordering, answers))
        return phases, outputs

    def check(self, outputs, checks: Checks) -> None:
        rho_via_formula = self.lib.rep.rho_via_formula
        for g, words, (order, edges, ordering, answers) in zip(self.graphs, self.words, outputs):
            n = g.rank
            checks.expect(order == 2 ** n, f"order {order} != 2^{n}")
            checks.expect(edges == n * 2 ** (n - 1), f"{edges} Cayley edges != n 2^(n-1)")
            checks.expect(sorted(ordering) == sorted(g.labels), f"ordering {ordering}")
            for word, (matrix, bits) in zip(words, answers):
                checks.expect(matrix == rho_via_formula(g, word), f"element of {word}")
                # The normal-form product s1^m1 ... sn^mn applies sn first.
                nf_word = [s for s, m in zip(ordering, bits) if m]
                checks.expect(rho_via_formula(g, nf_word[::-1]) == matrix,
                              f"normal form {bits} of {word}")

    @staticmethod
    def summary(phases, walls):
        q = quantiles(phases["query_ns"], n=100, method="inclusive")
        return {
            "generate_s": median(phases["generate_s"]),
            "decompose_s": median(phases["decompose_s"]),
            "query_p50_us": q[49] / 1e3,
            "query_p99_us": q[98] / 1e3,
            "query_samples": len(phases["query_ns"]),
        }


class ReverseR11:
    def __init__(self, lib, seed):
        self.lib = lib
        rng = random.Random(seed)
        labels, involutions, blocks = inputs.union_graph(rng, inputs.REVERSE_COMPONENTS)
        self.graph = _admissible_graph(lib, labels, involutions)
        Perm = lib.signedperm.Perm
        self.generators = [
            Perm(tuple(images)) for images in inputs.signed_point_images(labels, involutions)
        ]
        self.complements = [tuple(s for s in labels if s not in b) for b in blocks]

    def run(self):
        group = self.lib.group
        t0 = perf_counter()
        g = group.decorated_graph_from_group(self.generators, self.graph.labels)
        t1 = perf_counter()
        G = group.generate_group(g)
        t2 = perf_counter()
        subgroups = [group.standard_subgroup(G, c) for c in self.complements]
        t3 = perf_counter()
        phases = {"reverse_s": [t1 - t0], "generate_s": [t2 - t1], "subgroup_s": [t3 - t2]}
        output = (g, G.order, [(H.order, H.graph) for H in subgroups])
        return phases, output

    def check(self, output, checks: Checks) -> None:
        g, order, subgroups = output
        checks.expect(g == self.graph, "extracted graph differs from the input graph")
        checks.expect(order == 2 ** g.rank, f"order {order} != 2^{g.rank}")
        for c, (sub_order, sub_graph) in zip(self.complements, subgroups):
            checks.expect(sub_order == 2 ** len(c), f"subgroup on {c} has order {sub_order}")
            checks.expect(sub_graph == self.graph.restricted(c), f"subgroup graph on {c}")

    @staticmethod
    def summary(phases, walls):
        return {k: median(v) for k, v in phases.items()}


WORKLOADS = {"sweep-r5": SweepR5, "closure-r12": ClosureR12, "reverse-r11": ReverseR11}

"""Exhaustive enumeration of decorated graphs at small rank, with a full
verification battery over the admissible population.

Each label needs an involution of the remaining labels, so the population at
rank n is I(n-1)^n where I(m) counts involutions on m points.  The sweep
never builds an inadmissible graph: it assigns the involutions label by
label and cuts a branch at the first failing seed the assigned labels
decide, since every completion shares that seed; its children re-check only
the seeds it left undecided.  Each admissible graph keeps its index in the
brute-force enumeration `enumerate_decorated_graphs`, the search's test
oracle.  The sweep runs group generation, orbit, normal-form and sign-formula
checks on every admissible graph and aggregates failures (expected: none).
Graphs are built without re-validation: the label set is validated once,
and each involution fixes its own label by construction.  Group
generation certifies the cube group, and so admissibility, as it closes it:
no graph meets a second admissibility pass.  The sign-formula check
(`rep.sign_formula_mismatches`) steps along the point-image tuples that
closure checked and kept: one step per element and letter proves, by
induction on word length, that the formula equals the matrix fold on every
word.  The battery decodes no element's matrix.
The sweep is one loop in the calling process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .decompose import _orbit_tree, decomposition_ordering, normal_form, orbits, planar_orderings
from .errors import CubeGroupError
from .graphs import DecoratedGraph, _failing_seeds, check_rank, validate_labels
from .group import generate_group
from .rep import sign_formula_mismatches

# Unused here, but perfbench/layers.py traces these names in this module.
from .decompose import orbit_tree, two_orbit_check  # noqa: F401
from .graphs import admissible_quick  # noqa: F401
from .group import word_matrix  # noqa: F401
from .rep import is_reducible, rho_via_formula  # noqa: F401

# Bound once: a traced perfbench/layers.py run replaces the name DecoratedGraph here.
_trusted_graph = DecoratedGraph._trusted

RANK_CAP = 5
DEFAULT_LABELS = "abcdefghijklmnopqrst"
PLANAR_REORDER_RANK_CAP = 3  # check every planar re-ordering up to this rank


def involutions_of(points) -> list[dict[str, str]]:
    """All involutions of a point set, ordered lexicographically by image tuple."""
    points = sorted(points)
    maps = (dict(zip(points, images)) for images in itertools.permutations(points))
    return [j for j in maps if all(j[q] == p for p, q in j.items())]


def involution_count(m: int) -> int:
    """I(m) via the recurrence I(m) = I(m-1) + (m-1) I(m-2)."""
    a, b = 1, 1
    for k in range(2, m + 1):
        a, b = b, b + (k - 1) * a
    return b if m >= 1 else 1


def _label_choices(rank: int):
    """The first `rank` standard labels, validated, and per label its
    label-fixing involutions in enumeration order."""
    check_rank(rank, RANK_CAP)
    labels = tuple(DEFAULT_LABELS[:rank])
    validate_labels(labels)
    choices = [[{s: s, **j} for j in involutions_of([t for t in labels if t != s])]
               for s in labels]
    return labels, choices


def enumerate_decorated_graphs(rank: int):
    """Every decorated graph on the first `rank` standard labels, exactly once,
    in deterministic lexicographic order: the brute-force population, and the
    test oracle for the sweep's pruned search.  Each graph owns its involution
    dicts: no two yielded graphs share a mapping object."""
    labels, choices = _label_choices(rank)
    for combo in itertools.product(*choices):
        yield _trusted_graph(labels, dict(zip(labels, map(dict.copy, combo))))


def _admissible_graphs(rank: int):
    """Yield ``(index, graph)`` for each admissible graph on the first `rank`
    standard labels, in enumeration order; `index` is the graph's position in
    `enumerate_decorated_graphs(rank)`.

    Depth-first over the labels in order, each trying its involutions in
    enumeration order, so the index is the mixed-radix number of the choices
    with the last label varying fastest.  After each assignment the
    admissibility core runs on the partial table over the seeds the parent
    left undecided.  A seed it decides has that verdict in every completion:
    a failing one cuts the branch, a passing one is not handed down.  Only
    admissible graphs are built, each owning its involution dicts.
    """
    labels, choices = _label_choices(rank)
    radix = len(choices[0])
    inv = dict.fromkeys(labels)

    def extend(depth, index, seeds):
        if depth == rank:
            yield index, _trusted_graph(labels, {s: dict(inv[s]) for s in labels})
            return
        s = labels[depth]
        for choice, j in enumerate(choices[depth]):
            inv[s] = j
            undecided = []
            if next(_failing_seeds(labels, inv, seeds, undecided), None) is None:
                yield from extend(depth + 1, index * radix + choice, undecided)
        inv[s] = None

    return extend(0, 0, list(itertools.permutations(labels, 2)))


@dataclass
class SweepReport:
    rank: int
    total_graphs: int = 0
    admissible_count: int = 0
    verified_count: int = 0
    failures: list[tuple[int, str, str]] = field(default_factory=list)  # (index, check, detail)

    @property
    def ok(self) -> bool:
        return not self.failures and self.verified_count == self.admissible_count

    def as_dict(self) -> dict:
        return {
            "format_version": 1,
            "rank": self.rank,
            "total_graphs": self.total_graphs,
            "admissible_count": self.admissible_count,
            "verified_count": self.verified_count,
            "failures": [
                {"graph_index": i, "check": c, "detail": d} for i, c, d in self.failures
            ],
        }


def verify_graph(g: DecoratedGraph) -> list[tuple[str, str]]:
    """Run the full battery on one admissible graph; returns (check, detail)
    failures, empty on success.

    The sweep's search decides admissibility, and `generate_group`'s closure
    confirms it with no second pass; the top orbits are computed once, for
    the orbit tree too.  A graph of rank >= 2 whose label action has a single
    orbit is reported as ``("reducible", "single orbit")``: it has no orbit
    tree, so its normal forms are not checked.  The sign-formula check
    compares the closed formula with the matrix fold on every word of every
    length, by induction over the group's right multiplication; each
    mismatch is reported as ``("sign-formula", "word (...)")``.
    """
    failures = []
    n = g.rank
    try:
        G = generate_group(g)
    except CubeGroupError as exc:
        return [("generate", str(exc))]
    part = orbits(g)
    if n >= 2 and part.block_count < 2:
        failures.append(("reducible", "single orbit"))
        orderings = []  # no orbit tree, so no ordering to check
    else:
        tree = _orbit_tree(g, part.blocks)
        orderings = (
            planar_orderings(tree)
            if n <= PLANAR_REORDER_RANK_CAP
            else [decomposition_ordering(tree)]
        )
    for ordering in orderings:
        try:
            normal_form(G, ordering)
        except CubeGroupError as exc:
            failures.append(("normal-form", f"{ordering}: {exc}"))
    for word in sign_formula_mismatches(G):
        failures.append(("sign-formula", f"word {word}"))
    return failures


def sweep(rank: int) -> SweepReport:
    """Count all decorated graphs at a rank and verify every admissible one.

    One loop in the calling process, in enumeration order, so the report is
    deterministic; the rank is bounded before any graph is built.  Only the
    admissible graphs are built (see `_admissible_graphs`); each failure
    carries the graph's index in `enumerate_decorated_graphs(rank)`.
    """
    check_rank(rank, RANK_CAP)
    report = SweepReport(rank, total_graphs=involution_count(rank - 1) ** rank)
    for index, g in _admissible_graphs(rank):
        report.admissible_count += 1
        failures = verify_graph(g)
        if failures:
            report.failures.extend((index, check, detail) for check, detail in failures)
        else:
            report.verified_count += 1
    return report

"""Exhaustive enumeration of decorated graphs at small rank, with a full
verification battery over the admissible population.

Each label needs an involution of the remaining labels, so the population at
rank n is I(n-1)^n where I(m) counts involutions on m points.  The sweep runs
group generation, orbit, reducibility, normal-form, and sign-formula checks on
every admissible graph and aggregates failures (expected: none).
Enumeration validates the label set once, then builds each graph without
re-validation: its involutions fix their own label by construction.  Group
generation certifies the cube group once, in the closure.  The sign-formula
check (`rep.sign_formula_mismatches`) reads the multiplication table that
closure built: one formula step per element and letter proves, by induction
on word length, that the formula equals the matrix fold on every word.
The sweep is one loop in the calling process.  A process pool does not pay
at any rank up to the cap: the caller enumerates and pickles the graphs
serially, and at rank 5 the pickling alone takes 0.3-0.4 s of a 1 s sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .decompose import (
    decomposition_ordering,
    normal_form,
    orbit_tree,
    planar_orderings,
    two_orbit_check,
)
from .errors import CubeGroupError, RankCapExceededError, RankTooSmallError
from .graphs import DecoratedGraph, admissible_quick, validate_label
from .group import generate_group
from .rep import is_reducible, sign_formula_mismatches

# Unused here, but perfbench/layers.py traces both names in this module.
from .group import word_matrix  # noqa: F401
from .rep import rho_via_formula  # noqa: F401

# Bound once: perfbench/layers.py replaces the name DecoratedGraph here with a
# plain function during a traced run.
_trusted_graph = DecoratedGraph._trusted

RANK_CAP = 5
DEFAULT_LABELS = "abcdefghijklmnopqrst"
PLANAR_REORDER_RANK_CAP = 3  # check every planar re-ordering up to this rank


def involutions_of(points) -> list[dict[str, str]]:
    """All involutions of a point set, ordered lexicographically by image tuple."""
    points = sorted(points)

    def rec(remaining):
        if not remaining:
            yield {}
            return
        p, rest = remaining[0], remaining[1:]
        for tail in rec(rest):
            yield {p: p, **tail}
        for i, q in enumerate(rest):
            for tail in rec(rest[:i] + rest[i + 1:]):
                yield {p: q, q: p, **tail}

    out = list(rec(points))
    out.sort(key=lambda j: tuple(j[p] for p in points))
    return out


def involution_count(m: int) -> int:
    """I(m) via the recurrence I(m) = I(m-1) + (m-1) I(m-2)."""
    a, b = 1, 1
    for k in range(2, m + 1):
        a, b = b, b + (k - 1) * a
    return b if m >= 1 else 1


def _check_rank(rank: int) -> None:
    if rank < 1:
        raise RankTooSmallError(rank, 1)
    if rank > RANK_CAP:
        raise RankCapExceededError(rank, RANK_CAP)


def enumerate_decorated_graphs(rank: int):
    """Every decorated graph on the first `rank` standard labels, exactly once,
    in deterministic lexicographic order.  Each graph owns its involution
    dicts: no two yielded graphs share a mapping object."""
    _check_rank(rank)
    labels = tuple(DEFAULT_LABELS[:rank])
    for s in labels:
        validate_label(s)
    per_label = []
    for s in labels:
        others = [t for t in labels if t != s]
        per_label.append([{s: s, **j} for j in involutions_of(others)])
    for combo in itertools.product(*per_label):
        yield _trusted_graph(labels, dict(zip(labels, map(dict.copy, combo))))


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

    The sign-formula check compares the closed formula with the matrix fold
    on every word of every length, by induction over the group's
    multiplication table; each mismatch is reported as
    ``("sign-formula", "word (...)")``.
    """
    failures = []
    n = g.rank
    try:
        G = generate_group(g)
    except CubeGroupError as exc:
        return [("generate", str(exc))]
    if n >= 2:
        try:
            if not two_orbit_check(g):
                failures.append(("two-orbits", "single orbit"))
        except CubeGroupError as exc:
            failures.append(("two-orbits", str(exc)))
        try:
            if not is_reducible(g):
                failures.append(("reducible", "no coordinate splitting"))
        except CubeGroupError as exc:
            failures.append(("reducible", str(exc)))
    tree = orbit_tree(g)
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
    """Enumerate all decorated graphs at a rank and verify every admissible one.

    One loop in the calling process, in enumeration order, so the report is
    deterministic; the rank is bounded before any graph is built.
    """
    report = SweepReport(rank)
    for index, g in enumerate(enumerate_decorated_graphs(rank)):
        report.total_graphs += 1
        if not admissible_quick(g):
            continue
        report.admissible_count += 1
        failures = verify_graph(g)
        if failures:
            report.failures.extend((index, check, detail) for check, detail in failures)
        else:
            report.verified_count += 1
    return report

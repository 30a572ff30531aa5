"""Exhaustive enumeration of decorated graphs at small rank, with a full
verification battery over the admissible population.

Each label needs an involution of the remaining labels, so the population at
rank n is I(n-1)^n where I(m) counts involutions on m points.  The sweep runs
group generation, orbit, reducibility, normal-form, and sign-formula checks on
every admissible graph and aggregates failures (expected: none).  The
sign-formula check covers every word of length <= FORMULA_WORD_LENGTH in one
depth-first walk of the word tree (`rep.formula_and_fold`), so each word costs
one matrix product and one flip-count step on top of its parent word.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .decompose import (
    decomposition_ordering,
    normal_form,
    orbit_tree,
    planar_orderings,
    two_orbit_check,
)
from .errors import CubeGroupError, RankCapExceededError, RankTooSmallError
from .graphs import DecoratedGraph, admissible_quick
from .group import generate_group
from .rep import is_reducible, sign_formula_mismatches

# Unused here, but perfbench/layers.py traces both names in this module.
from .group import word_matrix  # noqa: F401
from .rep import rho_via_formula  # noqa: F401

RANK_CAP = 5
DEFAULT_LABELS = "abcdefghijklmnopqrst"
PLANAR_REORDER_RANK_CAP = 3  # check every planar re-ordering up to this rank
FORMULA_WORD_LENGTH = 4


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
    in deterministic lexicographic order."""
    _check_rank(rank)
    labels = tuple(DEFAULT_LABELS[:rank])
    per_label = []
    for s in labels:
        others = [t for t in labels if t != s]
        per_label.append([{s: s, **j} for j in involutions_of(others)])
    for combo in itertools.product(*per_label):
        yield DecoratedGraph(labels, dict(zip(labels, combo)))


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

    The sign-formula check walks the word tree once, comparing the closed
    formula with the matrix fold on every word of length <=
    FORMULA_WORD_LENGTH; mismatches are reported shortest word first, then
    lexicographically in label order.
    """
    failures = []
    n = g.rank
    try:
        G = generate_group(g)
        if G.order != 2 ** n:
            failures.append(("group-order", f"order {G.order} != 2^{n}"))
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
    for word in sign_formula_mismatches(g, FORMULA_WORD_LENGTH):
        failures.append(("sign-formula", f"word {word}"))
    return failures


def _sweep_item(args):
    index, g = args
    admissible = admissible_quick(g)
    if not admissible:
        return index, False, []
    return index, True, verify_graph(g)


def sweep(rank: int, jobs: int = 1) -> SweepReport:
    """Enumerate all decorated graphs at a rank and verify every admissible one.

    Deterministic regardless of `jobs`: results reduce in enumeration order.
    """
    _check_rank(rank)
    report = SweepReport(rank)
    items = enumerate(enumerate_decorated_graphs(rank))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = pool.map(_sweep_item, items, chunksize=64)
            for index, admissible, failures in results:
                _reduce(report, index, admissible, failures)
    else:
        for args in items:
            _reduce(report, *_sweep_item(args))
    return report


def _reduce(report: SweepReport, index: int, admissible: bool, failures) -> None:
    report.total_graphs += 1
    if not admissible:
        return
    report.admissible_count += 1
    if failures:
        report.failures.extend((index, check, detail) for check, detail in failures)
    else:
        report.verified_count += 1

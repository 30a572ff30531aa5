import gc
import importlib
import itertools

import pytest

from cubegroups import graphs
from cubegroups.decompose import OrbitPartition
from cubegroups.errors import RankCapExceededError, RankTooSmallError
from cubegroups.graphs import DecoratedGraph, admissible_quick, is_admissible
from cubegroups.sweep import (
    enumerate_decorated_graphs,
    involution_count,
    involutions_of,
    sweep,
    verify_graph,
)

from conftest import graph_from

# the package re-exports the function `sweep` under the module's name
sweep_module = importlib.import_module("cubegroups.sweep")


def test_involution_count_closed_form():
    # I(m) = I(m-1) + (m-1) I(m-2); brute-force oracle for small m
    def brute(m):
        import itertools

        points = list(range(m))
        count = 0
        for images in itertools.permutations(points):
            if all(images[images[p]] == p for p in points):
                count += 1
        return count

    for m in range(7):
        assert involution_count(m) == brute(m)


def test_involutions_of_is_exhaustive_and_sorted():
    for m in range(8):
        points = "bcdefgh"[:m]
        invs = involutions_of(points[::-1])  # any order in, sorted points out
        assert len(invs) == involution_count(m)
        assert all(sorted(j) == list(points) and all(j[j[p]] == p for p in points)
                   for j in invs)
        keys = [tuple(j[p] for p in points) for j in invs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


@pytest.mark.parametrize(
    "rank,expected",
    [(1, 1), (2, 1), (3, 8), (4, involution_count(3) ** 4)],
)
def test_population_counts(rank, expected):
    graphs = list(enumerate_decorated_graphs(rank))
    assert len(graphs) == expected
    assert len(set(map(repr, graphs))) == expected  # duplicate-free


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_enumerated_graphs_pass_the_validating_constructor(rank):
    for g in enumerate_decorated_graphs(rank):
        assert DecoratedGraph(g.labels, g.involutions) == g


def test_enumerated_graphs_share_no_mapping():
    graphs = list(enumerate_decorated_graphs(3))
    maps = [j for g in graphs for j in g.involutions.values()]
    maps += [g.involutions for g in graphs]
    assert len({id(m) for m in maps}) == len(maps)
    before = [repr(g) for g in graphs[1:]]
    j = graphs[0].involutions["a"]
    j["b"], j["c"] = j["c"], j["b"]
    assert [repr(g) for g in graphs[1:]] == before


def test_enumeration_validates_the_label_set(monkeypatch):
    monkeypatch.setattr(sweep_module, "DEFAULT_LABELS", "ab#de")
    graphs = enumerate_decorated_graphs(3)
    with pytest.raises(ValueError, match="bad label"):
        next(graphs)


def test_rank_cap():
    with pytest.raises(RankCapExceededError, match="^rank 6 exceeds cap 5$"):
        list(enumerate_decorated_graphs(6))
    with pytest.raises(RankCapExceededError, match="^rank 6 exceeds cap 5$"):
        sweep(6)
    with pytest.raises(RankTooSmallError, match="^rank 0 too small; need at least 1$"):
        sweep(0)
    with pytest.raises(RankTooSmallError, match="^rank 0 too small; need at least 1$"):
        list(enumerate_decorated_graphs(0))


@pytest.mark.parametrize("rank", [True, False, 2.0, "3", None])
def test_rank_that_is_not_an_int_is_a_type_error(rank, monkeypatch):
    def build(labels, involutions):
        raise AssertionError("no graph may be built for a rank that is not an int")

    monkeypatch.setattr(sweep_module, "_trusted_graph", build)
    with pytest.raises(TypeError, match="rank must be an int, not "):
        sweep(rank)
    with pytest.raises(TypeError, match="rank must be an int, not "):
        next(enumerate_decorated_graphs(rank))


def test_verify_graph_clean_on_fixture(d4):
    assert verify_graph(d4) == []


def test_verify_graph_reports_a_single_orbit(d4, monkeypatch):
    # no admissible graph has one orbit, so fake the orbit count
    monkeypatch.setattr(sweep_module, "orbits", lambda g: OrbitPartition((frozenset(g.labels),)))
    assert verify_graph(d4) == [("reducible", "single orbit")]


def test_sweep_rank2():
    report = sweep(2)
    assert report.total_graphs == 1
    assert report.admissible_count == 1
    assert report.verified_count == 1
    assert report.ok


def test_sweep_rank3():
    report = sweep(3)
    assert report.total_graphs == 8
    # the d4-style graphs (one nontrivial involution) and the all-identity graph
    assert report.admissible_count == 4
    assert report.verified_count == report.admissible_count
    assert not report.failures


def test_sweep_rank1_trivial():
    report = sweep(1)
    assert report.ok
    assert report.total_graphs == 1


def test_report_as_dict_schema():
    d = sweep(2).as_dict()
    assert d["format_version"] == 1
    assert set(d) == {
        "format_version",
        "rank",
        "total_graphs",
        "admissible_count",
        "verified_count",
        "failures",
    }


@pytest.mark.parametrize("rank,expected", [(1, 1), (2, 1), (3, 4), (4, 22), (5, 236)])
def test_search_equals_brute_force(rank, expected):
    # oracle: test every graph of the brute-force population
    brute = [(i, g) for i, g in enumerate(enumerate_decorated_graphs(rank)) if admissible_quick(g)]
    searched = list(sweep_module._admissible_graphs(rank))
    assert len(brute) == expected
    assert searched == brute


def test_search_leaves_no_reference_cycle():
    """The search's choice table is freed by reference counting when the
    search ends, not held in a cycle until the cyclic collector runs."""
    gc.collect()
    gc.disable()
    try:
        assert len(list(sweep_module._admissible_graphs(4))) == 22
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_searched_graphs_share_no_mapping():
    found = [g for _, g in sweep_module._admissible_graphs(3)]
    maps = [j for g in found for j in g.involutions.values()]
    assert len({id(m) for m in maps}) == len(maps)


def test_failure_index_selects_the_failing_graph(monkeypatch):
    population = list(enumerate_decorated_graphs(4))
    admissible = [g for g in population if admissible_quick(g)]
    chosen = admissible[len(admissible) // 2]
    monkeypatch.setattr(sweep_module, "verify_graph",
                        lambda g: [("fake", "chosen")] if g == chosen else [])
    report = sweep(4)
    assert report.total_graphs == len(population)
    assert report.admissible_count == len(admissible)
    assert report.verified_count == len(admissible) - 1
    ((index, check, detail),) = report.failures
    assert (check, detail) == ("fake", "chosen")
    assert population[index] == chosen
    assert population.index(chosen) == index


def test_sweep_builds_only_admissible_graphs(monkeypatch):
    """The search must prune: at rank 5 it builds the 236 admissible graphs
    and runs the admissibility core on far fewer than the 100,000 graphs a
    brute-force pass would test."""
    calls = {"core": 0, "graphs": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(sweep_module, "_failing_seeds", counted("core", graphs._failing_seeds))
    monkeypatch.setattr(sweep_module, "_trusted_graph", counted("graphs", DecoratedGraph._trusted))
    report = sweep(5)
    assert report.ok
    assert (report.total_graphs, report.admissible_count) == (100_000, 236)
    assert calls["graphs"] == 236
    assert calls["core"] < 15_000


def test_search_hands_down_only_undecided_seeds(monkeypatch):
    """Each of the 10,710 nodes of the rank-5 search runs the core once, on
    the seeds its parent left undecided: fewer in all than the 20 seeds a
    node of a search that re-checks every seed would hand it."""
    handed = []

    def counted(inv, gets, seeds, undecided):
        handed.append(len(seeds))
        return graphs._failing_seeds(inv, gets, seeds, undecided)

    monkeypatch.setattr(sweep_module, "_failing_seeds", counted)
    assert len(list(sweep_module._admissible_graphs(5))) == 236
    assert len(handed) == 10_710
    assert sum(handed) < 10_710 * 20


def test_search_examines_the_pinned_seed_count(monkeypatch):
    """The rank-5 search's nodes draw 42,630 seeds in all from the lists
    handed to them: each node stops at its first failing seed."""
    drawn = []

    def counted(inv, gets, seeds, undecided):
        def draw():
            for seed in seeds:
                drawn.append(seed)
                yield seed
        return graphs._failing_seeds(inv, gets, draw(), undecided)

    monkeypatch.setattr(sweep_module, "_failing_seeds", counted)
    assert len(list(sweep_module._admissible_graphs(5))) == 236
    assert len(drawn) == 42_630


def _unrolled_admissible(g):
    """Brute force: unroll each seed's recurrence on `g.involutions` and
    compose the four involutions along its period by hand."""
    for u, v in itertools.permutations(g.labels, 2):
        terms = [u, v]
        for _ in range(4):
            terms.append(g.involutions[terms[-1]][terms[-2]])
        if terms[4:] != [u, v]:
            return False
        for t in g.labels:
            image = t
            for s in terms[:4]:
                image = g.involutions[s][image]
            if image != t:
                return False
    return True


@pytest.mark.parametrize("rank", [1, 2])
def test_smallest_ranks_against_brute_force(rank, monkeypatch):
    """At ranks 1 and 2 the core's verdicts, the search and the sweep agree
    with the unrolled check.  Rank 1 has no seed, and the core and the search
    build no `itemgetter` there: ``itemgetter(0)`` would return an item, not a
    1-tuple, so `graphs._getter` makes a rank-1 getter a lambda."""
    if rank == 1:
        def refuse(*items):
            raise AssertionError("a getter built at rank 1")

        monkeypatch.setattr(graphs, "itemgetter", refuse)
    population = list(enumerate_decorated_graphs(rank))
    brute = [(i, g) for i, g in enumerate(population) if _unrolled_admissible(g)]
    assert len(brute) == 1
    for g in population:
        assert is_admissible(g).admissible == admissible_quick(g) == _unrolled_admissible(g)
    assert list(sweep_module._admissible_graphs(rank)) == brute
    report = sweep(rank)
    assert report.ok
    assert (report.total_graphs, report.admissible_count) == (len(population), len(brute))

import importlib

import pytest

from cubegroups import graphs
from cubegroups.decompose import OrbitPartition
from cubegroups.errors import RankCapExceededError, RankTooSmallError
from cubegroups.graphs import DecoratedGraph, admissible_quick
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
    invs = involutions_of("bcd")
    assert len(invs) == involution_count(3)
    keys = [tuple(j[p] for p in "bcd") for j in invs]
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
    with pytest.raises(RankCapExceededError):
        list(enumerate_decorated_graphs(6))
    with pytest.raises(RankCapExceededError):
        sweep(6)
    with pytest.raises(RankTooSmallError):
        sweep(0)
    with pytest.raises(RankTooSmallError):
        list(enumerate_decorated_graphs(0))


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

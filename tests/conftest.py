import pytest

from cubegroups.graphs import DecoratedGraph
from cubegroups.signedperm import SignedPermutation


def graph_from(labels, swaps=None):
    """Build a decorated graph from {generator: [(u, v), ...]} transposition lists."""
    labels = tuple(labels)
    swaps = swaps or {}
    involutions = {}
    for s in labels:
        mapping = {t: t for t in labels}
        for u, v in swaps.get(s, []):
            mapping[u], mapping[v] = v, u
        involutions[s] = mapping
    return DecoratedGraph(labels, involutions)


def from_maps(labels, perm_map, sign_map):
    """A validated signed permutation from label-keyed dicts: perm_map[t] is
    the image label of t and sign_map[t] its sign, +1 or -1."""
    labels = tuple(labels)
    return SignedPermutation(labels, [labels.index(perm_map[s]) for s in labels],
                             [sign_map[s] for s in labels])


def vertex_subset(G, i):
    """The cube vertex of element i as a label set: the labels of its index bits."""
    return frozenset(s for k, s in enumerate(G.graph.labels) if i >> k & 1)


@pytest.fixture
def d4():
    """Rank-3 graph of the dihedral group of order 8."""
    return graph_from("abc", {"a": [("b", "c")]})


@pytest.fixture
def rank5():
    """Rank-5 admissible graph: one 4-cycle, two angles, two single edges."""
    return graph_from(
        "abcde",
        {
            "a": [("b", "d")],
            "b": [("a", "c")],
            "c": [("b", "d")],
            "d": [("a", "c")],
            "e": [("a", "c"), ("b", "d")],
        },
    )


@pytest.fixture
def rank12_union(rank5):
    """The rank-5 fixture plus disjoint D4, Klein and Klein graphs, the shape of
    the benchmark's rank-12 union: j_s is the identity outside the component
    of s, so the union is admissible."""
    swaps = {s: [(u, v) for u, v in rank5.involutions[s].items() if u < v]
             for s in rank5.labels}
    return graph_from("abcdefghijkl", {**swaps, "f": [("g", "h")]})


@pytest.fixture
def bad_rank3():
    """Non-admissible rank-3 graph (trajectories fail 4-periodicity)."""
    return graph_from("abc", {"a": [("b", "c")], "b": [("a", "c")]})


@pytest.fixture
def klein():
    """The unique rank-2 graph: both involutions are the identity."""
    return graph_from("ab")


@pytest.fixture
def rank1():
    return graph_from("a")

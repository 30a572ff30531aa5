import itertools
import random

import pytest

from cubegroups.errors import (
    NotACubeGroupError,
    NotAdmissibleError,
    NotInvolutionError,
    NotStandardError,
    UnknownLabelError,
)
from cubegroups.graphs import admissible_quick, seed_pairs, trajectory
from cubegroups.group import (
    LabeledGraph,
    decorated_graph_from_group,
    generate_group,
    generator_rho,
    is_hypercube,
    standard_subgroup,
    word_matrix,
)
from cubegroups.signedperm import Perm, SignedPermutation
from cubegroups.sweep import enumerate_decorated_graphs

from conftest import graph_from


def cycle_graph(n):
    verts = tuple(range(n))
    edges = []
    for i in range(n):
        u, v = i, (i + 1) % n
        edges.append((min(u, v), max(u, v), f"e{i}"))
    return LabeledGraph(verts, tuple(sorted(edges)))


def cube_skeleton(n):
    verts = tuple(range(2 ** n))
    edges = []
    for v in verts:
        for c in range(n):
            w = v ^ (1 << c)
            if v < w:
                edges.append((v, w, f"x{c}"))
    return LabeledGraph(verts, tuple(sorted(edges)))


def labeled(n_vertices, pairs):
    """LabeledGraph on range(n_vertices) with a distinct label per edge."""
    edges = tuple(sorted((min(u, v), max(u, v), f"e{u}-{v}") for u, v in pairs))
    return LabeledGraph(tuple(range(n_vertices)), edges)


def is_cube_by_search(n_vertices, pairs):
    """Oracle: some vertex bijection onto {0,1}^n maps the edges onto the n-cube's."""
    n = n_vertices.bit_length() - 1
    if n_vertices == 0 or n_vertices != 2 ** n or len(pairs) != n * 2 ** n // 2:
        return False
    # with equal edge counts, a bijection maps edges onto cube edges iff
    # every edge lands on a Hamming-distance-1 pair
    return any(
        all((p[u] ^ p[v]) & ((p[u] ^ p[v]) - 1) == 0 for u, v in pairs)
        for p in itertools.permutations(range(n_vertices))
    )


def swapped_cube(seed, swaps):
    """Q3 after `swaps` degree-preserving double-edge swaps, vertices renumbered."""
    rng = random.Random(seed)
    edges = {(v, v ^ (1 << c)) for v in range(8) for c in range(3) if v < v ^ (1 << c)}
    done = 0
    while done < swaps:
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        new = {tuple(sorted((a, d))), tuple(sorted((c, b)))}
        if len({a, b, c, d}) == 4 and not new & edges:
            edges = (edges - {(a, b), (c, d)}) | new
            done += 1
    relabel = list(range(8))
    rng.shuffle(relabel)
    return [(relabel[u], relabel[v]) for u, v in edges]


class TestLabeledGraph:
    def test_parallel_edge_rejected(self):
        with pytest.raises(ValueError, match="parallel edges"):
            LabeledGraph((0, 1), ((0, 1, "a"), (0, 1, "b")))

    @pytest.mark.parametrize("edge", [(1, 0, "a"), (1, 1, "a")])
    def test_edge_order_enforced(self, edge):
        with pytest.raises(ValueError, match="u < v"):
            LabeledGraph((0, 1), (edge,))

    @pytest.mark.parametrize("edges", [
        ((0, 1, "a"), (0, 2, "a")),  # at the shared lower endpoint
        ((0, 2, "a"), (1, 2, "a")),  # at the shared upper endpoint
        ((0, 1, "a"), (1, 2, "a")),  # upper end of one edge, lower end of the other
    ])
    def test_repeated_label_at_vertex_rejected(self, edges):
        with pytest.raises(ValueError, match="repeated edge label"):
            LabeledGraph((0, 1, 2), edges)

    @pytest.mark.parametrize("vertices, edge", [
        ((0,), (0, 1, "a")),  # upper endpoint missing
        ((1, 2), (0, 1, "a")),  # lower endpoint missing
        ((3, 7), (3, 5, "a")),  # endpoint between two vertex numbers
    ])
    def test_edge_endpoint_must_be_a_vertex(self, vertices, edge):
        with pytest.raises(ValueError, match="not a vertex"):
            LabeledGraph(vertices, (edge,))

    def test_label_may_repeat_at_distinct_vertices(self):
        assert len(LabeledGraph((0, 1, 2, 3), ((0, 1, "a"), (2, 3, "a"))).edges) == 2


class TestGeneratorRho:
    def test_d4_a(self, d4):
        rho = generator_rho(d4, "a")
        assert rho.perm_map() == {"a": "a", "b": "c", "c": "b"}
        assert [rho.sign_of(t) for t in "abc"] == [-1, 1, 1]

    def test_d4_b(self, d4):
        rho = generator_rho(d4, "b")
        assert rho.perm_map() == {"a": "a", "b": "b", "c": "c"}
        assert [rho.sign_of(t) for t in "abc"] == [1, -1, 1]

    def test_unknown_label(self, d4):
        with pytest.raises(UnknownLabelError):
            generator_rho(d4, "z")


class TestIsHypercube:
    def test_cube_skeletons(self):
        for n in (1, 2, 3, 4):
            result = is_hypercube(cube_skeleton(n))
            assert result.is_hypercube
            assert result.dimension == n

    def test_eight_cycle_fails(self):
        assert not is_hypercube(cycle_graph(8))

    def test_k4_fails(self):
        # oracle: the only 4-vertex hypercube is the 2-cube, which has 4 edges;
        # K4 has 6, so no isomorphism exists
        edges = tuple(
            (u, v, f"e{u}{v}") for u, v in itertools.combinations(range(4), 2)
        )
        assert not is_hypercube(LabeledGraph((0, 1, 2, 3), edges))

    def test_disconnected_fails(self):
        lg = LabeledGraph((0, 1, 2, 3), ((0, 1, "s"), (2, 3, "s")))
        assert not is_hypercube(lg)

    def test_square_coordinates_are_bijective(self):
        result = is_hypercube(cube_skeleton(2))
        assert sorted(result.coords.values()) == [0, 1, 2, 3]

    @pytest.mark.parametrize("n_vertices", [0, 1, 2, 3, 4])
    def test_agrees_with_search_on_every_small_graph(self, n_vertices):
        pairs = list(itertools.combinations(range(n_vertices), 2))
        for mask in range(2 ** len(pairs)):
            chosen = [e for i, e in enumerate(pairs) if mask >> i & 1]
            assert bool(is_hypercube(labeled(n_vertices, chosen))) == is_cube_by_search(
                n_vertices, chosen
            ), chosen

    def test_agrees_with_search_on_swapped_cubes(self):
        verdicts = set()
        for seed in range(16):
            pairs = swapped_cube(seed, swaps=seed % 4)
            verdict = bool(is_hypercube(labeled(8, pairs)))
            assert verdict == is_cube_by_search(8, pairs), (seed, pairs)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n_vertices, pairs, reason", [
        (0, [], "empty graph"),
        (8, [(i, (i + 1) % 8) for i in range(8)],
         "8 vertices but the first has degree 2 (need 2^2)"),
        (4, [(0, 1), (0, 2), (1, 2)], "graph is not connected"),
        (8, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (1, 5), (2, 5), (3, 6), (3, 7)],
         "coordinate map is not a bijection"),
        (4, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)], "vertex 1 lacks Hamming-1 neighborhood"),
    ], ids=["empty", "degree", "disconnected", "collision", "hamming"])
    def test_failure_reasons(self, n_vertices, pairs, reason):
        result = is_hypercube(labeled(n_vertices, pairs))
        assert not result
        assert result.reason == reason


class TestGenerateGroup:
    def test_d4_order_8(self, d4):
        G = generate_group(d4)
        assert G.order == 8
        assert G.rank == 3

    def test_rank5_order_32(self, rank5):
        assert generate_group(rank5).order == 32

    def test_rank1_order_2(self, rank1):
        G = generate_group(rank1)
        assert G.order == 2
        assert G.elements[1].word == ("a",)

    def test_rejects_non_admissible(self, bad_rank3):
        with pytest.raises(NotAdmissibleError):
            generate_group(bad_rank3)

    def test_identity_vertex_subset_empty(self, d4):
        G = generate_group(d4)
        assert G.subsets[0] == frozenset()

    def test_identity_neighbors_are_generators(self, d4):
        G = generate_group(d4)
        labels_at_identity = {
            l for u, v, l in G.cayley.edges if 0 in (u, v)
        }
        assert labels_at_identity == set(d4.labels)

    def test_faithfulness_distinct_matrices(self):
        for g in enumerate_decorated_graphs(4):
            if not admissible_quick(g):
                continue
            G = generate_group(g)
            assert len({e.matrix for e in G.elements}) == 2 ** g.rank

    def test_witness_word_lengths_are_distances(self, d4):
        G = generate_group(d4)
        # BFS distance oracle on the Cayley graph
        adj = G.cayley.adjacency()
        dist = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        for e in G.elements:
            assert len(e.word) == dist[e.index]
            assert word_matrix(d4, e.word) == e.matrix

    def test_relator_matrices_are_identity(self, rank5):
        for u, v in seed_pairs(rank5):
            period = trajectory(rank5, u, v).period
            assert word_matrix(rank5, period).is_identity

    def test_d4_element_identities(self, d4):
        # ba = ac and bac = a as signed permutations (right-to-left products)
        rho = {s: generator_rho(d4, s) for s in "abc"}
        ba = rho["b"].compose(rho["a"])
        ac = rho["a"].compose(rho["c"])
        assert ba == ac
        bac = rho["b"].compose(rho["a"]).compose(rho["c"])
        assert bac == rho["a"]


class TestStandardSubgroup:
    def test_d4_bc_is_square(self, d4):
        sub = standard_subgroup(generate_group(d4), ["b", "c"])
        assert sub.order == 4
        assert sub.graph.labels == ("b", "c")

    def test_d4_ab_not_standard(self, d4):
        with pytest.raises(NotStandardError) as exc:
            standard_subgroup(generate_group(d4), ["a", "b"])
        assert "order 8" in str(exc.value)

    def test_full_set_is_standard(self, rank5):
        G = generate_group(rank5)
        sub = standard_subgroup(G, rank5.labels)
        assert sub.order == G.order
        assert sub.graph == rank5

    def test_unknown_label(self, d4):
        with pytest.raises(UnknownLabelError):
            standard_subgroup(generate_group(d4), ["z"])


class TestDecoratedGraphFromGroup:
    def test_d4_permutation_generators(self, d4):
        gens = [
            Perm.from_cycles(4, [(0, 2)]),            # (1 3)
            Perm.from_cycles(4, [(0, 1), (2, 3)]),    # (1 2)(3 4)
            Perm.from_cycles(4, [(0, 3), (1, 2)]),    # (1 4)(2 3)
        ]
        assert decorated_graph_from_group(gens, ("a", "b", "c")) == d4

    def test_rank1_group(self, rank1):
        gens = [Perm.from_cycles(2, [(0, 1)])]
        assert decorated_graph_from_group(gens, ("a",)) == rank1

    def test_klein_four(self, klein):
        gens = [
            Perm.from_cycles(4, [(0, 1), (2, 3)]),
            Perm.from_cycles(4, [(0, 2), (1, 3)]),
        ]
        assert decorated_graph_from_group(gens, ("a", "b")) == klein

    def test_eight_cycle_group_wrong_order(self):
        # (1 3) and (1 2)(3 4) generate the dihedral group of order 8, whose
        # Cayley graph on two generators is an 8-cycle, not a square
        gens = [Perm.from_cycles(4, [(0, 2)]), Perm.from_cycles(4, [(0, 1), (2, 3)])]
        with pytest.raises(NotACubeGroupError) as exc:
            decorated_graph_from_group(gens, ("a", "b"))
        assert "order 8" in str(exc.value)

    def test_rejects_non_involution(self):
        gens = [Perm.from_cycles(3, [(0, 1)]), Perm((1, 2, 0))]
        with pytest.raises(NotInvolutionError):
            decorated_graph_from_group(gens, ("a", "b"))

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_round_trip(self, rank):
        for g in enumerate_decorated_graphs(rank):
            if not admissible_quick(g):
                continue
            G = generate_group(g)
            gens = [generator_rho(g, s) for s in g.labels]
            assert decorated_graph_from_group(
                gens, g.labels, SignedPermutation.compose
            ) == g
            assert G.order == 2 ** rank

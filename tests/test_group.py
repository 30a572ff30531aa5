import gc
import itertools
import random
import tracemalloc
from collections import Counter
from operator import itemgetter

import pytest

from cubegroups import cli, graphs, group
from cubegroups.decompose import decomposition_ordering, normal_form, orbit_tree
from cubegroups.errors import (
    CubeGroupError,
    DuplicateLabelError,
    InternalConsistencyError,
    NotACubeGroupError,
    NotAdmissibleError,
    NotInvolutionError,
    NotStandardError,
    RankCapExceededError,
    RankTooSmallError,
    UnknownLabelError,
)
from cubegroups.formats import serialize_decorated_graph, subset_name
from cubegroups.graphs import (
    DecoratedGraph,
    admissible_quick,
    is_admissible,
    require_admissible,
    trajectory,
)
from cubegroups.group import (
    GroupElement,
    LabeledGraph,
    decorated_graph_from_group,
    generate_group,
    generator_rho,
    is_hypercube,
    standard_subgroup,
    word_matrix,
)
from cubegroups.rep import sign_formula_mismatches
from cubegroups.signedperm import Perm, SignedPermutation
from cubegroups.sweep import _admissible_graphs, enumerate_decorated_graphs, sweep, verify_graph

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

    @pytest.mark.parametrize("label", [5, None, "", "a b", "a:b", ("a",)])
    def test_edge_label_must_be_a_label(self, label):
        with pytest.raises(ValueError, match="bad label"):
            LabeledGraph((0, 1), ((0, 1, label),))

    # two faults at once: the checks run edge labels, parallel edges, u < v,
    # endpoints, repeated labels
    @pytest.mark.parametrize("vertices, edges, message", [
        ((0, 1, 2), ((0, 1, "a"), (0, 1, "b"), (2, 1, "c")), "parallel edges"),  # + reversed
        ((0, 1, 2), ((0, 1, "a"), (0, 1, "b"), (2, 2, "c")), "parallel edges"),  # + self-loop
        ((0, 1), ((0, 1, "a"), (0, 1, "b"), (1, 5, "c")), "parallel edges"),  # + endpoint
        ((0, 1), ((0, 1, "a"), (0, 1, "a")), "parallel edges"),  # + repeated label
        ((0, 1), ((1, 0, "a"), (0, 5, "b")), "u < v"),  # reversed + endpoint
        ((0, 1), ((3, 3, "a"),), "u < v"),  # self-loop + endpoint
        ((0, 1, 2), ((1, 0, "a"), (0, 2, "a")), "u < v"),  # reversed + repeated label
        ((0, 1), ((0, 0, "a"), (0, 1, "a")), "u < v"),  # self-loop + repeated label
        ((0, 1), ((0, 1, "a"), (0, 5, "a")), "not a vertex"),  # endpoint + repeated label
        ((0, 1), ((1, 0, 5),), "bad label"),  # + reversed
        ((0, 1), ((0, 1, "a"), (0, 1, "a b")), "bad label"),  # + parallel edges
    ])
    def test_first_failing_check_names_the_fault(self, vertices, edges, message):
        with pytest.raises(ValueError, match=message):
            LabeledGraph(vertices, edges)

    def test_label_may_repeat_at_distinct_vertices(self):
        assert len(LabeledGraph((0, 1, 2, 3), ((0, 1, "a"), (2, 3, "a"))).edges) == 2

    def test_lists_are_stored_as_tuples(self):
        lg = LabeledGraph([0, 1, 2], [[0, 1, "a"], [1, 2, "b"]])
        twin = LabeledGraph((0, 1, 2), ((0, 1, "a"), (1, 2, "b")))
        assert lg.vertices == (0, 1, 2)
        assert lg.edges == ((0, 1, "a"), (1, 2, "b"))
        assert lg == twin
        assert hash(lg) == hash(twin)
        assert lg.adjacency() == twin.adjacency()


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

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_equals_the_validated_construction(self, rank):
        for _, g in _admissible_graphs(rank):
            for s in g.labels:
                signs = {t: -1 if t == s else 1 for t in g.labels}
                assert generator_rho(g, s) == SignedPermutation.from_maps(
                    g.labels, g.involutions[s], signs)


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
        assert G.elements[1].index == 1
        assert G.word(1) == ("a",)

    def test_rejects_non_admissible(self, bad_rank3):
        with pytest.raises(NotAdmissibleError):
            generate_group(bad_rank3)

    def test_rank_cap_before_the_admissibility_check(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the rank must be bounded before the closure")

        monkeypatch.setattr(group, "require_admissible", fail)
        monkeypatch.setattr(group, "_vertex_closure", fail)
        with pytest.raises(RankCapExceededError, match="^rank 21 exceeds cap 20$"):
            generate_group(graph_from([f"s{i}" for i in range(21)]))

    def test_admissible_graph_whose_closure_fails(self, d4, monkeypatch):
        def refuse(*args, **kwargs):
            raise NotACubeGroupError("two vertices hold the same element")

        monkeypatch.setattr(group, "_vertex_closure", refuse)
        with pytest.raises(InternalConsistencyError) as exc:
            generate_group(d4)
        assert str(exc.value) == ("an admissible graph did not generate a cube group:"
                                  " two vertices hold the same element")
        assert isinstance(exc.value.__cause__, NotACubeGroupError)

    def test_a_build_runs_no_admissibility_pass(self, rank12_union, bad_rank3, monkeypatch):
        """The closure certifies a built group's graph as admissible: the
        admissibility core runs only to name a refused graph's failing
        seeds.  The sweep's search binds the core under its own name, so its
        calls are not counted here."""
        passes = []
        failing_seeds = graphs._failing_seeds

        def counting(labels, inv, *args):
            passes.append(labels)
            return failing_seeds(labels, inv, *args)

        monkeypatch.setattr(graphs, "_failing_seeds", counting)
        G = generate_group(rank12_union)
        for subset in ("abcde", "fgh", "abcdeijkl"):
            assert standard_subgroup(G, subset).order == 2 ** len(subset)
        report = sweep(5)
        assert report.ok and report.verified_count == 236
        assert passes == []
        with pytest.raises(NotAdmissibleError):
            generate_group(bad_rank3)
        assert passes == [bad_rank3.labels]

    def test_identity_vertex_subset_empty(self, d4):
        G = generate_group(d4)
        assert subset_name(G, 0) == "1"

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

    def test_witness_word_lengths_are_distances(self, d4, rank5):
        for g in (d4, rank5):
            G = generate_group(g)
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
                word = G.word(e.index)
                assert len(word) == dist[e.index] == e.index.bit_count()
                assert word_matrix(g, word) == e.matrix

    def test_relator_matrices_are_identity(self, rank5):
        for u, v in itertools.permutations(rank5.labels, 2):
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


class TestElementsOnDemand:
    """`generate_group` keeps the closure's point-image tuples by vertex, and
    the first access to `elements` decodes them; the order, the standard
    subgroups, the `group` command, words, products, normal forms and the
    sweep battery read no matrix."""

    @pytest.fixture
    def decoded(self, monkeypatch):
        """The point-image tuples decoded so far, in decoding order."""
        calls, decode = [], SignedPermutation._from_point_images

        def record(labels, images, perms):
            calls.append(images)
            return decode(labels, images, perms)

        monkeypatch.setattr(SignedPermutation, "_from_point_images", record)
        return calls

    def test_order_and_standard_subgroups_decode_nothing(self, rank12_union, decoded):
        G = generate_group(rank12_union)
        assert G.order == 4096
        for subset in ("abcde", "fgh", "abcdeijkl"):
            H = standard_subgroup(G, subset)
            assert H.order == 2 ** len(subset)
            assert H.graph == rank12_union.restricted(subset)
        assert decoded == []

    def test_group_command_decodes_nothing(self, rank12_union, decoded, tmp_path, capsys):
        path = tmp_path / "rank12.dg"
        path.write_text(serialize_decorated_graph(rank12_union))
        assert cli.main(["group", str(path)]) == 0
        assert "order 4096 = 2^12" in capsys.readouterr().out
        assert decoded == []

    def test_sweep_battery_decodes_nothing(self, decoded):
        assert sweep(4).ok
        graphs = [g for _, g in _admissible_graphs(5)]
        assert len(graphs) == 236
        assert all(verify_graph(g) == [] for g in graphs)
        assert decoded == []

    def test_words_products_and_formula_check_decode_nothing(self, rank12_union, decoded):
        G = generate_group(rank12_union)
        nf = normal_form(G, decomposition_ordering(orbit_tree(rank12_union)))
        assert sorted(nf.vertices) == list(range(4096))
        words = [G.word(i) for i in range(4096)]
        assert [len(w) for w in words] == [i.bit_count() for i in range(4096)]
        pos, rng = {s: k for k, s in enumerate(rank12_union.labels)}, random.Random(3)
        for _ in range(200):
            i, k = rng.randrange(4096), rng.randrange(4096)
            j = i
            for s in reversed(words[k]):
                j = G.step(j, pos[s])
            assert G.multiply(i, k) == j
        assert sign_formula_mismatches(G) == []
        assert decoded == []

    def test_element_for_matrix_decodes_nothing(self, rank12_union, decoded):
        G = generate_group(rank12_union)
        rng = random.Random(5)
        sample = [0, 4095] + [rng.randrange(4096) for _ in range(100)]
        matrices = [word_matrix(rank12_union, G.word(i)) for i in sample]
        found = [G.element_for_matrix(m) for m in matrices]
        assert found == [GroupElement(i, m) for i, m in zip(sample, matrices)]
        # diag(-1, 1, ..., 1) is not in the group (rho_a moves b), so neither is its product
        outside = SignedPermutation(rank12_union.labels, range(12), (-1,) + (1,) * 11)
        outside = outside.compose(matrices[2])
        with pytest.raises(KeyError):
            G.element_for_matrix(outside)
        assert decoded == []
        assert found == [G.elements[i] for i in sample]

    def test_cayley_decodes_nothing(self, rank12_union, decoded):
        G = generate_group(rank12_union)
        edges = G.cayley.edges
        assert len(edges) == 12 * 2 ** 11
        assert decoded == []
        assert edges == decoded_cayley_edges(G)

    def test_first_access_decodes_each_element_once(self, rank12_union, decoded):
        G = generate_group(rank12_union)
        elements = G.elements
        assert len(decoded) == len(set(decoded)) == 4096
        assert G.elements is elements and len(decoded) == 4096  # the second decodes nothing
        assert [e.index for e in elements] == list(range(4096))
        # one perm tuple object per permutation part
        perms = {e.matrix.perm for e in elements}
        assert len({id(e.matrix.perm) for e in elements}) == len(perms) < 4096

    def test_equality_and_repr_name_the_graph(self, d4):
        G, H = generate_group(d4), generate_group(d4)
        H.elements
        assert G == H
        assert repr(G) == repr(H) == f"CubeGroup(graph={d4!r})"

    def test_decoded_matrices_equal_the_word_fold(self, rank12_union):
        groups = [generate_group(g) for _, g in _admissible_graphs(5)]
        assert len(groups) == 236
        for G in groups + [generate_group(rank12_union)]:
            for i, e in enumerate(G.elements):
                assert e.matrix == word_matrix(G.graph, G.word(i))


def decoded_cayley_edges(G):
    """Reference for `CubeGroup.cayley`: the edges read off the decoded
    matrices, each distinct permutation part sorting the labels by bit once."""
    labels, by_bit = G.graph.labels, {}
    for e in G.elements:
        perm = e.matrix.perm
        if perm not in by_bit:
            by_bit[perm] = sorted(zip([1 << p for p in perm], labels))
    return tuple((i, i | b, s) for i, e in enumerate(G.elements)
                 for b, s in by_bit[e.matrix.perm] if not i & b)


class TestPermutationPartTable:
    """`_vertex_closure` numbers each permutation part p with an id, and the
    group keeps each vertex's id and one table row per id: for label k, the
    getter of rho_k, the bit 1 << p(k) and the id of p∘j_k.  The kept
    point-image tuples are the oracle: point 2k's image, halved, is p(k)."""

    @staticmethod
    def _graphs(rank12_union):
        for rank in range(1, 6):  # rank 5 has graphs whose P is not abelian
            for _, g in _admissible_graphs(rank):
                yield g
        yield rank12_union
        yield graph_from("abcdefghijkl")  # abelian: one permutation part

    def test_rows_match_the_kept_tuples(self, rank12_union):
        sizes = Counter()
        for g in self._graphs(rank12_union):
            G, n = generate_group(g), g.rank
            part_of = {}  # id -> the permutation part read off the tuples
            for i, x in enumerate(G._products):
                part = tuple(x[2 * t] >> 1 for t in range(n))
                assert part_of.setdefault(G._ids[i], part) == part
                row = G._table[G._ids[i]]
                assert tuple(b for _, _, b, _ in row) == tuple(1 << q for q in part)
                for k, (s, right, b, next_id) in enumerate(row):
                    assert s == g.labels[k]
                    assert i ^ b == G.step(i, k)
                    assert right(x) == G._products[i ^ b]
                    assert next_id == G._ids[i ^ b]
            # one id per part, and every id carried by some vertex
            assert sorted(part_of) == list(range(len(G._table)))
            assert len(set(part_of.values())) == len(part_of)
            assert G.cayley.edges == decoded_cayley_edges(G)
            sizes[n, len(G._table)] += 1
        # (rank, |P|): |P| <= 2^(n-2) from rank 3 on
        assert sizes == {(1, 1): 1, (2, 1): 1, (3, 1): 1, (3, 2): 3, (4, 1): 1, (4, 2): 18,
                         (4, 4): 3, (5, 1): 1, (5, 2): 85, (5, 4): 120, (5, 8): 30,
                         (12, 8): 1, (12, 1): 1}


@pytest.fixture
def products(monkeypatch):
    """The products the closures make, by the length of the tuple multiplied:
    each is one call of a getter that `group.itemgetter` returns."""
    made = Counter()

    def counting_itemgetter(*items):
        get = itemgetter(*items)

        def call(m):
            made[len(items)] += 1
            return get(m)

        return call

    monkeypatch.setattr(group, "itemgetter", counting_itemgetter)
    return made


def rank5_plus_d4(rank5):
    """The rank-5 fixture plus a disjoint D4: j_s is the identity outside
    the component of s, so the union is admissible."""
    swaps = {s: [(u, v) for u, v in rank5.involutions[s].items() if u < v]
             for s in rank5.labels}
    return graph_from("abcdefgh", {**swaps, "f": [("g", "h")]})


def admissible_groups(rank):
    for g in enumerate_decorated_graphs(rank):
        if admissible_quick(g):
            yield g, generate_group(g)


def reference_closure(generators, labels, rights):
    """Oracle: the generic closure, certified by `is_hypercube` on its table.

    A hash-indexed breadth-first closure that stops past 2^n elements, a
    check that each table column is a fixed-point-free involution, and the
    cube certificate.  Returns ``(elements, step, coords)``: the elements in
    discovery order (identity first, then label order), the right
    multiplication table and each element's cube coordinate, whose bit k is
    ``labels[k]``.  Raises NotACubeGroupError unless the closure is a cube
    group, with NotInvolutionError for a generator that is not an involution.
    """
    if len(set(generators)) != len(generators):
        raise NotACubeGroupError("generators are not pairwise distinct")
    ident = rights[0](generators[0])
    for s, gen, right in zip(labels, generators, rights):
        if right(ident) != gen:
            raise NotACubeGroupError(f"the square of {labels[0]!r} is not an identity for {s!r}")
        if right(gen) != ident or gen == ident:
            raise NotInvolutionError(s)
    order = 2 ** len(labels)
    elements = [ident]
    index_of = {ident: 0}
    step = []
    for m in elements:  # the list grows while it is walked
        row = []
        for right in rights:
            p = right(m)
            k = index_of.get(p)
            if k is None:
                k = len(elements)
                if k == order:
                    raise NotACubeGroupError(f"closure has more than {order} elements")
                elements.append(p)
                index_of[p] = k
            row.append(k)
        step.append(tuple(row))
    if len(elements) != order:
        raise NotACubeGroupError(f"closure has {len(elements)} elements, expected {order}")
    if any(j == i or step[j][k] != i for i, row in enumerate(step) for k, j in enumerate(row)):
        raise NotACubeGroupError("a table column is not a fixed-point-free involution")
    edges = sorted((i, j, labels[k]) for i, row in enumerate(step) for k, j in enumerate(row)
                   if i < j)
    try:
        # row 0 is in label order, so the certificate's coordinate bit k is labels[k]
        cube = is_hypercube(LabeledGraph(tuple(range(order)), tuple(edges)))
    except ValueError as exc:  # two labels on one edge
        raise NotACubeGroupError(str(exc)) from exc
    if not cube:
        raise NotACubeGroupError(cube.reason)
    return elements, step, [cube.coords[i] for i in range(order)]


def reference_graph_from_group(generators, labels):
    """Oracle for `decorated_graph_from_group`: close the generators with
    `reference_closure`, then read j_s(t) as the label of the bit that letter
    t flips at the vertex of rho_s, and require the graph to be admissible."""
    rights = [lambda m, g=g: m * g for g in generators]
    _, step, coords = reference_closure(generators, labels, rights)
    axis = {1 << k: s for k, s in enumerate(labels)}
    involutions = {s: {t: axis[coords[y] ^ coords[x]] for t, y in zip(labels, step[x])}
                   for s, x in zip(labels, step[0])}  # x is the vertex of rho_s
    try:
        graph = DecoratedGraph(labels, involutions)
        require_admissible(graph)
    except (ValueError, NotAdmissibleError) as exc:
        raise NotACubeGroupError(str(exc)) from exc
    return graph


def _outcome(build, gens, labels):
    """The graph `build` returns, or the class of the CubeGroupError it raises."""
    try:
        return build(gens, labels)
    except CubeGroupError as exc:
        return type(exc)


class TestCayleyTable:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_step_is_right_multiplication_by_an_involution(self, rank):
        for g, G in admissible_groups(rank):
            rho = [generator_rho(g, s) for s in g.labels]
            for i, e in enumerate(G.elements):
                for k in range(rank):
                    j = G.step(i, k)
                    assert j == G.element_for_matrix(e.matrix.compose(rho[k])).index
                    assert G.step(j, k) == i

    def test_non_abelian_rank8_union(self, rank5):
        g = rank5_plus_d4(rank5)
        G = generate_group(g)
        assert G.order == 2 ** 8
        rho = [generator_rho(g, s) for s in g.labels]
        for i, e in enumerate(G.elements):
            assert e.matrix == word_matrix(g, G.word(i))
            for k in range(8):
                assert G.step(i, k) == G.element_for_matrix(e.matrix.compose(rho[k])).index

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_edges_are_the_table(self, rank):
        for g, G in admissible_groups(rank):
            from_table = {
                (min(i, j), max(i, j), s)
                for i in range(G.order)
                for k, s in enumerate(g.labels)
                for j in [G.step(i, k)]
            }
            assert G.cayley.edges == tuple(sorted(from_table))

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_word_queries_match_the_matrix_fold(self, rank):
        rng = random.Random(rank)
        for g, G in admissible_groups(rank):
            words = [()] + [
                tuple(rng.choice(g.labels) for _ in range(rng.randrange(1, 3 * rank + 2)))
                for _ in range(30)
            ]
            for w in words:
                assert G.element_for_word(w) == G.element_for_matrix(word_matrix(g, w)), w

    def test_word_query_accepts_any_iterable(self, d4):
        G = generate_group(d4)
        assert G.element_for_word(iter("bac")) == G.element_for_word(("b", "a", "c"))

    def test_unknown_letter_in_word_query(self, d4):
        G = generate_group(d4)
        with pytest.raises(UnknownLabelError) as exc:
            G.element_for_word(("a", "z", "b", "y"))
        assert exc.value.label == "z"  # the first unknown letter, as word_matrix reports

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_edge_list_certifies_like_the_table(self, rank):
        for g, G in admissible_groups(rank):
            assert "cayley" not in vars(G)  # the edge list is built on first use only
            assert is_hypercube(G.cayley).coords == {i: i for i in range(G.order)}

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_edge_list_passes_validation(self, rank):
        for g, G in admissible_groups(rank):
            assert LabeledGraph(G.cayley.vertices, G.cayley.edges) == G.cayley

    def test_edge_list_passes_validation_rank5_and_rank8_union(self, rank5):
        for g in (rank5, rank5_plus_d4(rank5)):
            G = generate_group(g)
            assert LabeledGraph(G.cayley.vertices, G.cayley.edges) == G.cayley

    def test_edge_list_is_not_revalidated(self, rank5, monkeypatch):
        # the closure certified the Cayley graph; validation runs only for
        # graphs a caller builds
        def validate(self):
            raise AssertionError("the Cayley edge list was validated again")

        G = generate_group(rank5)
        monkeypatch.setattr(LabeledGraph, "__post_init__", validate)
        assert type(G.cayley) is LabeledGraph
        assert len(G.cayley.edges) == 5 * 2 ** 4
        with pytest.raises(AssertionError, match="validated again"):
            LabeledGraph((0, 1), ((0, 1, "a"),))

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_subsets_are_the_negated_coordinates(self, rank):
        for g, G in admissible_groups(rank):
            for e in G.elements:
                m = e.matrix
                negated = {g.labels[m.perm[i]] for i, v in enumerate(m.signs) if v == -1}
                name = "".join(s for s in g.labels if s in negated) or "1"
                assert subset_name(G, e.index) == name


class TestStandardSubgroup:
    def test_d4_bc_is_square(self, d4):
        sub = standard_subgroup(generate_group(d4), ["b", "c"])
        assert sub.order == 4
        assert sub.graph.labels == ("b", "c")

    def test_d4_ab_not_standard(self, d4):
        with pytest.raises(NotStandardError) as exc:
            standard_subgroup(generate_group(d4), ["a", "b"])
        assert "not invariant under j_a" in str(exc.value)
        assert exc.value.subset == {"a", "b"}

    def test_full_set_is_standard(self, rank5):
        G = generate_group(rank5)
        sub = standard_subgroup(G, rank5.labels)
        assert sub.order == G.order
        assert sub.graph == rank5

    def test_unknown_label(self, d4):
        G = generate_group(d4)
        for subset in (["z"], ["a", "z"]):
            with pytest.raises(UnknownLabelError) as exc:
                standard_subgroup(G, subset)
            assert exc.value.label == ["z"]

    def test_subset_is_read_once(self, d4):
        sub = standard_subgroup(generate_group(d4), iter(["b", "c"]))
        assert sub.graph.labels == ("b", "c")

    def test_empty_subset(self, d4):
        with pytest.raises(RankTooSmallError, match="^rank 0 too small; need at least 1$"):
            standard_subgroup(generate_group(d4), [])

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_invariance_rule_matches_the_closure_oracle(self, rank):
        """Standard exactly when the subset is invariant: the reference closes
        the subset's generator matrices and extracts their decorated graph."""
        for g, G in admissible_groups(rank):
            for size in range(1, rank + 1):
                for T in itertools.combinations(g.labels, size):
                    try:
                        expected = decorated_graph_from_group(
                            [Perm(generator_rho(g, t).point_images()) for t in T], T)
                    except NotACubeGroupError:
                        expected = None
                    try:
                        H = standard_subgroup(G, T)
                    except NotStandardError:
                        assert expected is None, (g, T)
                        continue
                    assert expected is not None, (g, T)
                    assert H.graph == expected
                    assert H.order == 2 ** size


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

    def test_list_images(self, klein):
        # the image-tuple closure hashes the generators' images
        gens = [Perm([1, 0, 2, 3]), Perm([0, 1, 3, 2])]
        assert decorated_graph_from_group(gens, "ab") == klein

    def test_klein_four(self, klein):
        gens = [
            Perm.from_cycles(4, [(0, 1), (2, 3)]),
            Perm.from_cycles(4, [(0, 2), (1, 3)]),
        ]
        assert decorated_graph_from_group(gens, ("a", "b")) == klein

    def test_eight_cycle_group_wrong_order(self):
        # (1 3) and (1 2)(3 4) generate the dihedral group of order 8, whose
        # Cayley graph on two generators is an 8-cycle, not a square: ab and
        # ba differ, so neither is the product at the square's far vertex
        gens = [Perm.from_cycles(4, [(0, 2)]), Perm.from_cycles(4, [(0, 1), (2, 3)])]
        with pytest.raises(NotACubeGroupError) as exc:
            decorated_graph_from_group(gens, ("a", "b"))
        assert "the product of 'a' and 'b' is not on the cube's second layer" in str(exc.value)

    @pytest.mark.parametrize("m", [5, 6, 7, 8])
    def test_closure_stops_past_two_to_the_n(self, m, products):
        # two reflections of the m-gon (their product is an m-cycle) and the
        # transposition (0 1) generate the symmetric group S_m
        gens = [
            Perm(tuple(-i % m for i in range(m))),
            Perm(tuple((1 - i) % m for i in range(m))),
            Perm.from_cycles(m, [(0, 1)]),
        ]
        # rejected on the n squares and the n(n-1) products of two, before any closure
        with pytest.raises(NotACubeGroupError, match="the product of 'a' and 'b' is not on the"
                           " cube's second layer"):
            decorated_graph_from_group(gens, ("a", "b", "c"))
        n = 3
        assert products == {m: n + n * (n - 1)}

    def test_closure_short_of_two_to_the_n(self):
        # three distinct involutions of the Klein four-group close up at 4 < 2^3:
        # their products of two pair up as in Z2^3, but ab is c
        gens = [
            Perm.from_cycles(4, [(0, 1), (2, 3)]),
            Perm.from_cycles(4, [(0, 2), (1, 3)]),
            Perm.from_cycles(4, [(0, 3), (1, 2)]),
        ]
        with pytest.raises(NotACubeGroupError, match="two vertices hold the same element"):
            decorated_graph_from_group(gens, ("a", "b", "c"))

    def test_rank_cap_before_any_product(self, products):
        labels = tuple("abcdefghijklmnopqrstu")
        gens = [Perm.from_cycles(2 * len(labels), [(2 * k, 2 * k + 1)]) for k in range(len(labels))]
        with pytest.raises(RankCapExceededError, match="^rank 21 exceeds cap 20$"):
            decorated_graph_from_group(gens, labels)
        assert products == {}

    def test_repeated_label_before_any_product(self, products):
        gens = [Perm((1, 0, 2, 3)), Perm((0, 1, 3, 2))]
        with pytest.raises(DuplicateLabelError, match="'a'"):
            decorated_graph_from_group(gens, ("a", "a"))
        assert products == {}

    def test_bad_label_before_any_product(self, products):
        with pytest.raises(ValueError, match="bad label"):
            decorated_graph_from_group([Perm((1, 0, 2, 3)), Perm((0, 1, 3, 2))], ("a", "b c"))
        assert products == {}

    def test_no_generators(self):
        with pytest.raises(RankTooSmallError, match="^rank 0 too small; need at least 1$"):
            decorated_graph_from_group([], ())

    @pytest.mark.parametrize("labels", [
        (1, "b"), ("a", b"b"), ("", "b"), ("a", "b c"), ("a#", "b"), ("a", 'b"'),  # bad
        ("a", "a"), ("a", "b", "a"),  # repeated
        ("a", "a", "b c"), ("a", "b c", "b c"), ("a:", "a:"),  # both: the first fault wins
    ])
    def test_bad_label_list_fails_as_in_the_graph_constructor(self, labels, products):
        with pytest.raises((ValueError, DuplicateLabelError)) as expected:
            DecoratedGraph(labels, {s: {t: t for t in labels} for s in labels})
        gens = [Perm((1, 0, 2, 3)), Perm((0, 1, 3, 2)), Perm((2, 3, 0, 1))][:len(labels)]
        with pytest.raises(type(expected.value)) as got:
            decorated_graph_from_group(gens, labels)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
        assert products == {}

    def test_equal_generators(self):
        gens = [Perm.from_cycles(2, [(0, 1)]), Perm.from_cycles(2, [(0, 1)])]
        with pytest.raises(NotACubeGroupError, match="generators are not pairwise distinct"):
            decorated_graph_from_group(gens, ("a", "b"))

    def test_one_generator_for_two_labels(self):
        with pytest.raises(ValueError, match="one generator per label required"):
            decorated_graph_from_group([Perm.from_cycles(2, [(0, 1)])], ("a", "b"))

    def test_rejects_non_involution(self):
        # the first generator is checked as the others are
        transposition, three_cycle = Perm.from_cycles(3, [(0, 1)]), Perm((1, 2, 0))
        for gens, label in (([transposition, three_cycle], "b"),
                            ([three_cycle, transposition], "a")):
            with pytest.raises(NotInvolutionError) as exc:
                decorated_graph_from_group(gens, ("a", "b"))
            assert exc.value.label == label

    @pytest.mark.parametrize("swap", [False, True])
    def test_mismatched_degrees(self, swap):
        # both generators are involutions: the error names the degrees
        gens = [Perm((1, 0)), Perm((0, 1, 3, 2))]
        degrees = "2 vs 4"
        if swap:
            gens.reverse()
            degrees = "4 vs 2"
        with pytest.raises(ValueError, match=f"degree mismatch: {degrees}"):
            decorated_graph_from_group(gens, ("a", "b"))

    def test_order_eight_group_whose_cayley_graph_is_not_a_cube(self):
        # (1 3), (1 2)(3 4) and (1 3)(2 4) generate the dihedral group of
        # order 8 = 2^3, but its Cayley graph on them is not the 3-cube
        gens = [
            Perm.from_cycles(4, [(0, 2)]),
            Perm.from_cycles(4, [(0, 1), (2, 3)]),
            Perm.from_cycles(4, [(0, 2), (1, 3)]),
        ]
        with pytest.raises(NotACubeGroupError, match="the product of 'a' and 'b' is not on the"
                           " cube's second layer"):
            decorated_graph_from_group(gens, ("a", "b", "c"))

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_round_trip(self, rank):
        # the pruned search gives the brute-force admissible graphs (test_sweep)
        for _, g in _admissible_graphs(rank):
            G = generate_group(g)
            gens = [Perm(generator_rho(g, s).point_images()) for s in g.labels]
            assert decorated_graph_from_group(gens, g.labels) == g
            assert G.order == 2 ** rank

    def test_round_trip_rank8_union(self, rank5, products):
        g = rank5_plus_d4(rank5)
        gens = [Perm(generator_rho(g, s).point_images()) for s in g.labels]
        assert decorated_graph_from_group(gens, g.labels) == g
        n = g.rank
        assert products == {2 * n: n * 2 ** (n - 1) + n * (n + 1)}

class TestVertexNumbering:
    """Each element's index is its cube vertex: the bitmask of the
    coordinates its matrix negates in the image of (1, ..., 1)."""

    def test_index_is_the_negated_image_mask(self):
        graphs = [g for rank in range(1, 6) for _, g in _admissible_graphs(rank)]
        for g in graphs + [graph_from("abcdefghijkl")]:
            for e in generate_group(g).elements:
                m = e.matrix
                assert e.index == sum(1 << p for p, s in zip(m.perm, m.signs) if s == -1)

    def test_element_for_matrix_finds_exactly_the_members(self, d4):
        G = generate_group(d4)
        members = {e.matrix for e in G.elements}
        outside = 0
        for perm in itertools.permutations(range(3)):
            for signs in itertools.product((1, -1), repeat=3):
                m = SignedPermutation(d4.labels, perm, signs)
                if m in members:
                    assert G.element_for_matrix(m).matrix == m
                else:
                    outside += 1
                    with pytest.raises(KeyError):
                        G.element_for_matrix(m)
        assert outside == 48 - 8

    def test_element_for_matrix_rejects_other_label_sets(self, d4):
        G = generate_group(d4)
        for e in G.elements:
            with pytest.raises(KeyError):
                G.element_for_matrix(SignedPermutation(tuple("xyz"), e.matrix.perm, e.matrix.signs))
        with pytest.raises(KeyError):  # its vertex lies past the group's
            G.element_for_matrix(SignedPermutation(tuple("abcd"), (0, 1, 2, 3), (1, 1, 1, -1)))

    def test_rank12_group_retains_no_table(self, rank12_union):
        # 1.03 MB measured on CPython 3.11: per element the closure's tuple of
        # 24 point images and its permutation-part id, plus the 8 rows of the
        # ids' table (1.12 MB with the tuples alone, before the ids; 1.14 MB
        # once `elements` decoded them).  A stored table
        # of the 12 neighbours per element adds at least 0.39 MB, even as one flat list.
        gc.collect()
        tracemalloc.start()
        try:
            G = generate_group(rank12_union)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G.order == 4096
        assert retained < 1.4e6

    @pytest.mark.parametrize("index", [-1, 8, -9])
    def test_index_outside_the_group(self, d4, index):
        G = generate_group(d4)
        calls = [lambda: G.step(index, 0), lambda: G.word(index),
                 lambda: G.multiply(index, 1), lambda: G.multiply(1, index)]
        for call in calls:
            with pytest.raises(IndexError):
                call()

    @pytest.mark.parametrize("k", [-1, 3])
    def test_label_index_outside_the_rank(self, d4, k):
        with pytest.raises(IndexError):
            generate_group(d4).step(0, k)

    def test_multiply_equals_the_matrix_product(self, rank5):
        groups = [G for rank in range(1, 5) for _, G in admissible_groups(rank)]
        assert sum(G.order ** 2 for G in groups) == 5908
        for G in groups + [generate_group(rank5_plus_d4(rank5))]:
            for x in G.elements:
                for y in G.elements:
                    product = G.element_for_matrix(x.matrix.compose(y.matrix))
                    assert G.multiply(x.index, y.index) == product.index

    def test_multiply_rejects_indices_outside_the_group(self, rank5):
        G = generate_group(rank5)
        for i, k in [(-1, 0), (0, -1), (32, 0), (0, 32), (-32, 1), (1, 64)]:
            with pytest.raises(IndexError):
                G.multiply(i, k)

    def test_cayley_is_built_on_each_access(self, d4):
        G = generate_group(d4)
        first = G.cayley
        assert G.cayley == first and G.cayley is not first
        assert "cayley" not in vars(G)
        assert len(first.edges) == 3 * 8 // 2

    def test_multiply_folds_the_word_of_its_right_factor(self, d4, rank5):
        for g in (d4, rank5):
            G = generate_group(g)
            pos = {s: k for k, s in enumerate(g.labels)}
            for i in range(G.order):
                for k in range(G.order):
                    j = i
                    for s in reversed(G.word(k)):
                        j = G.step(j, pos[s])
                    assert G.multiply(i, k) == j


class TestVertexClosure:
    """Both build paths store each product at the cube vertex predicted by
    the permutation part of the element it multiplies; the generic closure
    plus `is_hypercube` on its table is the oracle."""

    @staticmethod
    def _oracle_graphs(rank5):
        for rank in range(1, 6):
            for _, g in _admissible_graphs(rank):
                yield g
        yield graph_from("abcdefghijkl")
        yield rank5_plus_d4(rank5)

    def test_matches_the_generic_closure(self, rank5):
        checked = Counter()
        for g in self._oracle_graphs(rank5):
            points = [generator_rho(g, s).point_images() for s in g.labels]
            rights = [itemgetter(*p) for p in points]
            elements, step, coords = reference_closure(points, g.labels, rights)
            by_vertex, _, _ = group._vertex_closure(g, points)
            assert [by_vertex[c] for c in coords] == elements
            G = generate_group(g)
            assert [tuple(G.step(c, k) for k in range(g.rank)) for c in coords] == [
                tuple(coords[j] for j in row) for row in step]
            checked[g.rank] += 1
        assert checked == {1: 1, 2: 1, 3: 4, 4: 22, 5: 236, 8: 1, 12: 1}

    def test_closes_exactly_the_admissible_graphs(self, products):
        """Both directions of the central theorem at ranks 2-4: the generator
        matrices of every decorated graph, closed as `generate_group` closes
        them, form a cube group exactly when the graph is admissible.

        So `generate_group` builds exactly the admissible graphs, and refuses
        every other one on the closure's layer 1, within n(n+1) products,
        with the report of `is_admissible` and no closure error chained on.
        The reverse construction, given the matrices as `Perm`s of the 2n
        points +-e_t, returns the graph exactly when it is admissible: no
        up-front admissibility check is needed there either."""
        outcomes = Counter()
        for rank in (2, 3, 4):
            for g in enumerate_decorated_graphs(rank):
                report = is_admissible(g)
                images = [generator_rho(g, s).point_images() for s in g.labels]
                try:
                    group._vertex_closure(g, images)
                    closed = True
                except NotACubeGroupError:
                    closed = False
                assert closed == report.admissible, g
                products.clear()
                try:
                    assert generate_group(g).order == 2 ** rank
                except NotAdmissibleError as exc:
                    assert exc.report == report and not closed, g
                    assert sum(products.values()) <= rank * (rank + 1), g
                    assert exc.__cause__ is None and exc.__context__ is None
                else:
                    assert closed, g
                gens = [Perm(x) for x in images]
                if closed:
                    assert decorated_graph_from_group(gens, g.labels) == g
                else:
                    with pytest.raises(NotACubeGroupError):
                        decorated_graph_from_group(gens, g.labels)
                outcomes[closed] += 1
        assert outcomes == {False: 238, True: 27}

    def test_each_build_path_closes_once(self, monkeypatch, products):
        closures = []
        vertex_closure = group._vertex_closure

        def counting_closure(g, images):
            closures.append(g)
            return vertex_closure(g, images)

        def forbidden(*args):
            raise AssertionError("generate_group must not run the reverse construction's closure")

        monkeypatch.setattr(group, "_vertex_closure", counting_closure)
        with monkeypatch.context() as patched:
            patched.setattr(group, "_closure", forbidden)
            n = 12
            g = graph_from("abcdefghijkl")
            G = generate_group(g)
        assert G.order == 2 ** n
        assert closures == [g]
        # getters of 2n point images are the right multiplications: one per
        # product, each edge from its lower end plus the n squares at layer 1
        assert products == {2 * n: n * 2 ** (n - 1) + n}
        products.clear()
        gens = [Perm(generator_rho(g, s).point_images()) for s in g.labels]
        assert decorated_graph_from_group(gens, g.labels) == g
        assert closures == [g, g]
        # the same closure after the n square checks and the n(n-1) products of two
        assert products == {2 * n: n * 2 ** (n - 1) + n + n * (n - 1) + n}

    def test_product_off_its_predicted_vertex(self, d4):
        # D4's generators with rho_a negating b instead of a: rho_a then
        # squares to -1 on b and c, but rho_a * rho_a is predicted to toggle
        # bit j_a(a) = a, so it is filed at vertex 1 ^ 1 = 0, the identity's
        labels = d4.labels
        negated = {"a": "b", "b": "b", "c": "c"}
        images = [
            SignedPermutation.from_maps(
                labels, d4.involutions[s], {t: -1 if t == negated[s] else 1 for t in labels}
            ).point_images()
            for s in labels
        ]
        with pytest.raises(NotACubeGroupError, match="the product of element 1 by 'a' is not"
                           " element 0, the one at its vertex"):
            group._vertex_closure(d4, images)

    def test_square_that_is_not_the_identity(self, rank1):
        # a 4-cycle's square is not the identity: the one down edge that
        # the closure multiplies, as a square at layer 1
        with pytest.raises(NotACubeGroupError) as exc:
            group._vertex_closure(rank1, [(1, 2, 3, 0)])
        assert exc.value.reason == ("the product of element 1 by 'a' is not element 0,"
                                    " the one at its vertex")

    def test_two_vertices_hold_one_element(self):
        # three diagonal involutions of a Klein four-group: every product
        # lands where the vertex rule says, but the closure has only 4
        # distinct elements on 8 vertices
        g = graph_from("abc")
        images = [SignedPermutation(g.labels, (0, 1, 2), signs).point_images()
                  for signs in ((-1, 1, 1), (1, -1, 1), (-1, -1, 1))]
        with pytest.raises(NotACubeGroupError, match="two vertices hold the same element"):
            group._vertex_closure(g, images)

    @pytest.mark.parametrize("degree, ranks", [(4, range(1, 5)), (5, range(1, 4))])
    def test_every_tuple_of_involutions_matches_the_oracle(self, degree, ranks):
        """Every ordered tuple of distinct involutions of S_degree: accepted
        or rejected as by the oracle, with the same error class or graph."""
        identity = Perm.identity(degree)
        involutions = [p for p in map(Perm, itertools.permutations(range(degree)))
                       if p * p == identity != p]
        inputs = accepted = 0
        for rank in ranks:
            labels = tuple("abcd"[:rank])
            for gens in itertools.permutations(involutions, rank):
                expected = _outcome(reference_graph_from_group, gens, labels)
                assert _outcome(decorated_graph_from_group, gens, labels) == expected, gens
                inputs += 1
                accepted += isinstance(expected, DecoratedGraph)
        assert (inputs, accepted) == {4: (3609, 105), 5: (14425, 505)}[degree]


def _result(build, gens, labels):
    """The graph `build` returns, or the class and message of what it raises."""
    try:
        return build(gens, labels)
    except Exception as exc:
        return type(exc), str(exc)


class TestImageTupleClosure:
    """`Perm` generators of one degree n >= 2 are closed on their image
    tuples; every other input is refused before any product."""

    NOT_INVOLUTION = (NotInvolutionError, "generator 'a' is not a nontrivial involution")

    @pytest.mark.parametrize("gens, expected", [
        ([Perm(())], NOT_INVOLUTION),
        ([Perm((0,))], NOT_INVOLUTION),
        ([Perm((0,)), Perm((1, 0))], NOT_INVOLUTION),
        ([Perm((1, 0)), Perm((0,))], (ValueError, "degree mismatch: 2 vs 1")),
        ([Perm((1, 0)), Perm((0, 1, 3, 2))], (ValueError, "degree mismatch: 2 vs 4")),
        ([Perm((0, 1, 3, 2)), Perm((1, 0))], (ValueError, "degree mismatch: 4 vs 2")),
        ([Perm((1, 0)), (1, 0)], (TypeError, "the generator for 'b' is not a Perm: (1, 0)")),
        ([(1, 0), Perm((1, 0))], (TypeError, "the generator for 'a' is not a Perm: (1, 0)")),
    ], ids=["degree-0", "degree-1", "degrees-1-2", "degrees-2-1", "degrees-2-4",
            "degrees-4-2", "perm-then-tuple", "tuple-then-perm"])
    def test_inputs_outside_the_tuple_path(self, gens, expected, products):
        assert _result(decorated_graph_from_group, gens, tuple("ab"[:len(gens)])) == expected
        assert products == {}

    def test_rank8_union_makes_no_perm_product(self, rank5, monkeypatch):
        g = rank5_plus_d4(rank5)
        gens = [Perm(generator_rho(g, s).point_images()) for s in g.labels]
        products, closures = Counter(), []
        perm_product, closure = Perm.__mul__, group._closure

        def counting_product(a, b):
            products[len(a.images)] += 1
            return perm_product(a, b)

        def counting_closure(*args):
            closures.append(args[1])
            return closure(*args)

        monkeypatch.setattr(Perm, "__mul__", counting_product)
        monkeypatch.setattr(group, "_closure", counting_closure)
        assert decorated_graph_from_group(gens, g.labels) == g
        assert (products, closures) == ({}, [g.labels])
        # the counter sees a Perm product
        assert gens[0] * gens[0] == Perm.identity(2 * g.rank)
        assert products == {2 * g.rank: 1}

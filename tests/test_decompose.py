import gc
import itertools
import random
import tracemalloc

import pytest

from cubegroups.decompose import (
    OrbitTree,
    _orbit_tree,
    decomposition_ordering,
    normal_form,
    orbit_tree,
    orbits,
    perm_image,
    planar_orderings,
    two_orbit_check,
)
from cubegroups.errors import (
    InternalConsistencyError,
    NotADecompositionError,
    RankTooSmallError,
    UnknownLabelError,
)
from cubegroups.graphs import DecoratedGraph, admissible_quick
from cubegroups.group import GroupElement, generate_group, generator_rho, word_matrix
from cubegroups.signedperm import SignedPermutation
from cubegroups.sweep import _admissible_graphs, enumerate_decorated_graphs

from conftest import graph_from


class TestPermImage:
    def test_single_letter(self, d4):
        assert perm_image(d4, ["a"]) == {"a": "a", "b": "c", "c": "b"}

    def test_empty_word(self, d4):
        assert perm_image(d4, []) == {s: s for s in d4.labels}

    def test_constant_on_group_elements(self, d4):
        # aba = c in the group, and both words give the identity permutation
        assert perm_image(d4, ["a", "b", "a"]) == perm_image(d4, ["c"])

    def test_matches_matrix_permutation_part(self, rank5):
        for word in itertools.product(rank5.labels, repeat=3):
            m = SignedPermutation.identity(rank5.labels)
            for s in word:
                m = generator_rho(rank5, s).compose(m)
            assert perm_image(rank5, word) == m.perm_map()

    def test_unknown_letter(self, d4):
        with pytest.raises(UnknownLabelError):
            perm_image(d4, ["a", "z"])

    def test_first_unknown_letter_is_reported(self, d4):
        with pytest.raises(UnknownLabelError) as exc:
            perm_image(d4, ["a", "y", "z"])
        assert exc.value.label == "y"

    def test_word_is_read_once(self, d4):
        word = ("a", "b", "c", "b")
        m = word_matrix(d4, word)
        assert perm_image(d4, iter(word)) == perm_image(d4, word) == m.perm_map()
        assert not m.is_identity


class TestOrbits:
    def test_d4(self, d4):
        assert orbits(d4).blocks == (frozenset("a"), frozenset("bc"))

    def test_all_identity_graph(self):
        g = graph_from("abcd")
        assert orbits(g).blocks == tuple(frozenset(s) for s in "abcd")

    def test_rank5(self, rank5):
        assert set(orbits(rank5).blocks) == {
            frozenset("ac"),
            frozenset("bd"),
            frozenset("e"),
        }

    @pytest.mark.parametrize("rank", [3, 4])
    def test_blocks_are_invariant(self, rank):
        for g in enumerate_decorated_graphs(rank):
            for block in orbits(g).blocks:
                for t in g.labels:
                    assert {g.involutions[t][s] for s in block} == block


class TestOrbitTree:
    def test_d4_tree(self, d4):
        tree = orbit_tree(d4)
        assert tree.labels == frozenset("abc")
        assert [c.labels for c in tree.children] == [frozenset("a"), frozenset("bc")]
        bc = tree.children[1]
        assert [c.labels for c in bc.children] == [frozenset("b"), frozenset("c")]

    def test_rank1_tree(self, rank1):
        tree = orbit_tree(rank1)
        assert tree.is_leaf

    def test_admissible_root_splits(self, rank5):
        assert len(orbit_tree(rank5).children) >= 2

    def test_single_orbit_is_internal_error(self, bad_rank3):
        # one of the four single-orbit rank-3 graphs; the public entry point
        # rejects it as not admissible, the recursion must not repair it
        assert orbits(bad_rank3).block_count == 1
        with pytest.raises(InternalConsistencyError):
            _orbit_tree(bad_rank3)


def restricted_orbit_tree(g):
    """Oracle for `_orbit_tree`: the recursion through a `restricted` graph
    at every node, with orbits grown to a fixed point over every involution."""
    blocks = []
    for s in g.labels:
        if not any(s in b for b in blocks):
            block = {s}
            while (grown := block | {j[t] for j in g.involutions.values() for t in block}) != block:
                block = grown
            blocks.append(frozenset(block))
    if g.rank == 1:
        return OrbitTree(frozenset(g.labels), ())
    assert len(blocks) > 1
    return OrbitTree(frozenset(g.labels),
                     tuple(restricted_orbit_tree(g.restricted(b)) for b in blocks))


class TestOrbitTreeOracle:
    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_every_admissible_graph(self, rank):
        for _, g in _admissible_graphs(rank):
            tree = restricted_orbit_tree(g)
            assert _orbit_tree(g) == tree
            assert _orbit_tree(g, orbits(g).blocks) == tree

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rank12_union_in_shuffled_label_orders(self, rank12_union, seed):
        labels = list(rank12_union.labels)
        if seed:
            random.Random(seed).shuffle(labels)
        g = DecoratedGraph(tuple(labels), rank12_union.involutions)
        tree = restricted_orbit_tree(g)
        assert len(tree.children) == 9  # {a,c}, {b,d}, {g,h} and six single labels
        assert _orbit_tree(g) == tree == orbit_tree(g)


def hand_tree(spec):
    """Build an OrbitTree from nested tuples of label strings."""
    if isinstance(spec, str) and len(spec) == 1:
        return OrbitTree(frozenset(spec), ())
    children = tuple(hand_tree(c) for c in spec[1])
    return OrbitTree(frozenset(spec[0]), children)


class TestDecompositionOrdering:
    def test_d4(self, d4):
        assert decomposition_ordering(orbit_tree(d4)) == ("a", "b", "c")

    def test_rank8_hand_supplied_tree(self):
        # two orbits of four labels, each splitting into commuting pairs
        tree = hand_tree(
            (
                "abcdefgh",
                [
                    ("abef", [("ae", ["a", "e"]), ("bf", ["b", "f"])]),
                    ("cdgh", [("cg", ["c", "g"]), ("dh", ["d", "h"])]),
                ],
            )
        )
        assert decomposition_ordering(tree) == tuple("aebfcgdh")

    def test_single_leaf(self, rank1):
        assert decomposition_ordering(orbit_tree(rank1)) == ("a",)

    def test_planar_orderings_d4(self, d4):
        order_set = set(planar_orderings(orbit_tree(d4)))
        assert order_set == {
            ("a", "b", "c"),
            ("a", "c", "b"),
            ("b", "c", "a"),
            ("c", "b", "a"),
        }


class TestNormalForm:
    def test_d4_orbit_ordering(self, d4):
        G = generate_group(d4)
        nf = normal_form(G, ("a", "b", "c"))
        words = {nf.word_for(e) for e in G.elements}
        assert words == {
            (),
            ("a",),
            ("b",),
            ("c",),
            ("a", "b"),
            ("a", "c"),
            ("b", "c"),
            ("a", "b", "c"),
        }

    def test_d4_bad_ordering_collides(self, d4):
        G = generate_group(d4)
        with pytest.raises(NotADecompositionError) as exc:
            normal_form(G, ("b", "a", "c"))
        bits1, bits2 = exc.value.collision
        assert bits1 != bits2

    def test_rank1(self, rank1):
        G = generate_group(rank1)
        nf = normal_form(G, ("a",))
        assert G.elements[nf.vertices[0]].index == 0
        assert G.elements[nf.vertices[1]].matrix == generator_rho(rank1, "a")
        assert [nf.bits_for(e) for e in G.elements] == [(0,), (1,)]

    @pytest.mark.parametrize("index", [-1, 8])
    def test_bits_for_an_index_outside_the_group(self, d4, index):
        G = generate_group(d4)
        nf = normal_form(G, ("a", "b", "c"))
        outside = GroupElement(index, G.elements[0].matrix)
        with pytest.raises(IndexError):  # -1 would read the last vertex's code
            nf.bits_for(outside)
        with pytest.raises(IndexError):
            nf.word_for(outside)

    def test_rank12_normal_form_retains_two_int_lists(self, rank12_union):
        # 0.30 MB measured on CPython 3.11: two lists of 4,096 ints.  Tables of
        # the 4,096 bit tuples, as dicts keyed by tuple, retained 1.56 MB.  The
        # normal form steps on the group's kept point-image tuples and decodes
        # no element, so a decode of the 4,096 matrices would count here too.
        G = generate_group(rank12_union)
        ordering = decomposition_ordering(orbit_tree(rank12_union))
        gc.collect()
        tracemalloc.start()
        try:
            nf = normal_form(G, ordering)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(nf.vertices) == list(range(4096))
        assert retained < 0.6e6

    def test_rejects_non_permutation_ordering(self, d4):
        G = generate_group(d4)
        with pytest.raises(ValueError, match=r"missing \['c'\], repeated \[\]"):
            normal_form(G, ("a", "b"))

    def test_repeated_label_in_ordering(self, d4):
        G = generate_group(d4)
        with pytest.raises(ValueError, match=r"missing \['c'\], repeated \['b'\]"):
            normal_form(G, ("a", "b", "b"))
        with pytest.raises(ValueError, match=r"missing \[\], repeated \['a'\]"):
            normal_form(G, ("a", "b", "c", "a"))

    def test_unknown_letter_in_ordering(self, d4):
        G = generate_group(d4)
        with pytest.raises(UnknownLabelError) as exc:
            normal_form(G, ("a", "z", "b", "c"))
        assert exc.value.label == "z"

    @pytest.mark.parametrize("rank", [2, 3])
    def test_every_planar_ordering_works(self, rank):
        for g in enumerate_decorated_graphs(rank):
            if not admissible_quick(g):
                continue
            G = generate_group(g)
            for ordering in planar_orderings(orbit_tree(g)):
                nf = normal_form(G, ordering)
                assert sorted(nf.vertices) == list(range(2 ** rank))
                assert [nf.bits_for(G.elements[v]) for v in nf.vertices] == list(
                    itertools.product((0, 1), repeat=rank))


def fold_normal_form(G, ordering):
    """Reference tabulation by matrix folds: each product s1^m1 ... sn^mn is
    composed from the generator matrices and looked up in the group.

    Returns ``(to_element, collision)``: `to_element` maps each bit vector, in
    product order, to its element; on the first bit vector that reaches an
    element already reached, it is None and `collision` holds the earlier bit
    vector and that one.
    """
    rho = {s: generator_rho(G.graph, s) for s in ordering}
    to_element = {}
    from_element = {}
    for bits in itertools.product((0, 1), repeat=len(ordering)):
        m = SignedPermutation.identity(G.graph.labels)
        for s, mi in zip(ordering, bits):
            if mi:
                m = m.compose(rho[s])  # rightmost factor applied first
        elem = G.element_for_matrix(m)
        if elem.index in from_element:
            return None, (from_element[elem.index], bits)
        to_element[bits] = elem
        from_element[elem.index] = bits
    return to_element, None


class TestNormalFormAgainstFolds:
    """The table walk agrees with the matrix-fold tabulation, collisions included."""

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_every_ordering(self, rank):
        collisions = 0
        for g in enumerate_decorated_graphs(rank):
            if not admissible_quick(g):
                continue
            G = generate_group(g)
            planar = set(planar_orderings(orbit_tree(g)))
            assert decomposition_ordering(orbit_tree(g)) in planar
            for ordering in itertools.permutations(g.labels):
                to_element, collision = fold_normal_form(G, ordering)
                if collision is None:
                    nf = normal_form(G, ordering)
                    for b, (bits, elem) in enumerate(to_element.items()):
                        assert G.elements[nf.vertices[b]] == elem
                        assert nf.codes[elem.index] == b
                        assert nf.bits_for(elem) == bits
                        assert nf.word_for(elem) == tuple(s for s, m in zip(ordering, bits) if m)
                else:
                    assert ordering not in planar
                    collisions += 1
                    with pytest.raises(NotADecompositionError) as exc:
                        normal_form(G, ordering)
                    assert exc.value.collision == collision
        assert collisions > 0 or rank < 3

    def test_d4_collision_pair(self, d4):
        G = generate_group(d4)
        _, collision = fold_normal_form(G, ("b", "a", "c"))
        with pytest.raises(NotADecompositionError) as exc:
            normal_form(G, ("b", "a", "c"))
        assert exc.value.collision == collision == ((0, 1, 1), (1, 1, 0))  # ac = ba


class TestProductDecomposition:
    @pytest.mark.parametrize("rank", [2, 3])
    def test_unique_factorization_over_invariant_subsets(self, rank):
        for g in enumerate_decorated_graphs(rank):
            if not admissible_quick(g):
                continue
            G = generate_group(g)
            blocks = orbits(g).blocks
            if len(blocks) < 2:
                continue
            T = blocks[0]
            rest = frozenset(g.labels) - T
            left = _subgroup_matrices(g, T)
            right = _subgroup_matrices(g, rest)
            assert left & right == {SignedPermutation.identity(g.labels)}
            products = [l.compose(r) for l in left for r in right]
            assert len(set(products)) == 2 ** rank


def _subgroup_matrices(g, subset):
    gens = [generator_rho(g, s) for s in g.labels if s in subset]
    elems = {SignedPermutation.identity(g.labels)}
    frontier = list(elems)
    while frontier:
        nxt = []
        for m in frontier:
            for gen in gens:
                p = m.compose(gen)
                if p not in elems:
                    elems.add(p)
                    nxt.append(p)
        frontier = nxt
    return elems


class TestTwoOrbitCheck:
    def test_d4(self, d4):
        assert two_orbit_check(d4)

    def test_rank5(self, rank5):
        assert two_orbit_check(rank5)

    def test_rank1_rejected(self, rank1):
        with pytest.raises(RankTooSmallError):
            two_orbit_check(rank1)

    def test_rank2_always_true(self):
        # the unique rank-2 decorated graph forces both involutions trivial
        graphs = list(enumerate_decorated_graphs(2))
        assert len(graphs) == 1
        assert two_orbit_check(graphs[0])

    @pytest.mark.parametrize("rank", [3, 4])
    def test_holds_over_population(self, rank):
        for g in enumerate_decorated_graphs(rank):
            if admissible_quick(g):
                assert two_orbit_check(g)

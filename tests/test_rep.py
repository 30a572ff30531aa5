import ast
import itertools
import random

import pytest

from cubegroups import group
from cubegroups.errors import DuplicateLabelError, RankTooSmallError, UnknownLabelError
from cubegroups.graphs import DecoratedGraph, admissible_quick
from cubegroups.group import generate_group, generator_rho, word_matrix
from cubegroups.rep import (
    embed_vertex,
    invariant_coordinate_subspaces,
    is_reducible,
    rho_via_formula,
    sign_count,
    sign_formula_mismatches,
)
from cubegroups.signedperm import SignedPermutation
from cubegroups.sweep import enumerate_decorated_graphs, verify_graph

from conftest import graph_from, vertex_subset


class TestEmbedVertex:
    def test_empty_subset(self):
        assert embed_vertex("abc", ()) == {"a": 1, "b": 1, "c": 1}

    def test_full_subset(self):
        assert embed_vertex("abc", "abc") == {"a": -1, "b": -1, "c": -1}

    def test_singleton(self):
        assert embed_vertex("abc", {"a"}) == {"a": -1, "b": 1, "c": 1}

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            embed_vertex("abc", {"z"})

    def test_repeated_label(self):
        # once read as {'a': -1}, one entry for two labels
        with pytest.raises(DuplicateLabelError):
            embed_vertex("aa", "a")

    @pytest.mark.parametrize("labels", [("a", 1), ("a", "b c"), ("a", "")])
    def test_bad_label(self, labels):
        with pytest.raises(ValueError, match="bad label"):
            embed_vertex(labels, ())


class TestSignCount:
    def test_generator_on_own_label(self, d4):
        assert sign_count(d4, ["a"], "a").count == 1

    def test_generator_on_other_label(self, d4):
        assert sign_count(d4, ["a"], "b").count == 0

    def test_two_letter_word(self, d4):
        # b applied first, then a: e_b picks up one flip and lands on e_c
        sc = sign_count(d4, ["b", "a"], "b")
        assert sc.count == 1
        m = generator_rho(d4, "a").compose(generator_rho(d4, "b"))
        assert m.signs[1] == -1 and m.labels[m.perm[1]] == "c"  # b is position 1

    def test_parity_independent_of_word(self, d4):
        G = generate_group(d4)
        rng = random.Random(7)
        by_element = {}
        for _ in range(200):
            word = tuple(rng.choice(d4.labels) for _ in range(rng.randint(0, 8)))
            by_element.setdefault(G.element_for_word(word).index, []).append(word)
        checked = 0
        for words in by_element.values():
            for w1, w2 in itertools.combinations(words[:5], 2):
                for t in d4.labels:
                    assert sign_count(d4, w1, t).count % 2 == sign_count(d4, w2, t).count % 2
                checked += 1
        assert checked > 0

    def test_one_shot_word_is_recorded(self, d4):
        sc = sign_count(d4, iter(["a", "a"]), "a")
        assert sc == sign_count(d4, ("a", "a"), "a")
        assert sc.word == ("a", "a") and sc.count == 2

    def test_sign_is_the_formula_matrix_sign(self, rank5):
        # the parity is the contract: SignCount.sign is the matrix's sign of e_t
        rng = random.Random(13)
        signs = set()
        for _ in range(60):
            word = tuple(rng.choice(rank5.labels) for _ in range(rng.randint(0, 12)))
            m = rho_via_formula(rank5, word)
            for t, sign in zip(rank5.labels, m.signs):
                assert sign_count(rank5, word, t).sign == sign
                signs.add(sign)
        assert signs == {-1, 1}

    def test_first_unknown_letter_is_reported(self, d4):
        with pytest.raises(UnknownLabelError) as exc:
            sign_count(d4, iter(["a", "y", "z"]), "b")
        assert exc.value.label == "y"

    def test_unknown_target_is_reported_before_letters(self, d4):
        with pytest.raises(UnknownLabelError) as exc:
            sign_count(d4, ["a", "y"], "x")
        assert exc.value.label == "x"


class TestRhoViaFormula:
    def test_empty_word_is_identity(self, d4):
        assert rho_via_formula(d4, ()).is_identity

    def test_single_letter_is_generator(self, d4):
        assert rho_via_formula(d4, ("a",)) == generator_rho(d4, "a")

    def test_four_cycle_relator_is_identity(self, rank5):
        assert rho_via_formula(rank5, ("a", "b", "c", "d")).is_identity

    @pytest.mark.parametrize("rank", [2, 3])
    def test_agrees_with_matrix_fold_short_words(self, rank):
        for g in enumerate_decorated_graphs(rank):
            if not admissible_quick(g):
                continue
            for k in range(5):
                for word in itertools.product(g.labels, repeat=k):
                    assert rho_via_formula(g, word) == word_matrix(g, word)

    def test_agrees_with_matrix_fold_long_random_words(self, rank5):
        rng = random.Random(11)
        for _ in range(100):
            word = tuple(rng.choice(rank5.labels) for _ in range(rng.randint(7, 20)))
            assert rho_via_formula(rank5, word) == word_matrix(rank5, word)

    def test_word_is_read_once(self, d4, rank12_union):
        rng = random.Random(5)
        for g in (d4, rank12_union):
            for k in range(6):
                word = tuple(rng.choice(g.labels) for _ in range(k))
                m = word_matrix(g, word)
                assert rho_via_formula(g, iter(word)) == m
                assert rho_via_formula(g, (s for s in word)) == m
                assert rho_via_formula(g, word) == m
        assert str(rho_via_formula(d4, iter(["a"]))) == "[a->-a, b->+c, c->+b]"

    def test_first_unknown_letter_is_reported(self, d4):
        with pytest.raises(UnknownLabelError) as exc:
            rho_via_formula(d4, iter(["a", "y", "z"]))
        assert exc.value.label == "y"

    def test_flip_is_read_before_the_letter_acts(self):
        # on a real graph j_s fixes s, so "s equals the image before j_s acts"
        # and "s equals it after" agree; an unchecked graph whose j_a moves a
        # tells them apart, and the fold still takes the sign before the step
        swap = {"a": "b", "b": "a"}
        g = DecoratedGraph._trusted(("a", "b"), {"a": swap, "b": {"a": "a", "b": "b"}})
        for k in range(4):
            for word in itertools.product(g.labels, repeat=k):
                assert rho_via_formula(g, word) == word_matrix(g, word)
        assert sign_count(g, ["a"], "a").count == 1


def _sign_formula_words(g):
    return [
        ast.literal_eval(d.removeprefix("word "))
        for check, d in verify_graph(g)
        if check == "sign-formula"
    ]


class TestFormulaAndFold:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_both_sides_match_per_word_oracles(self, rank):
        for g in enumerate_decorated_graphs(rank):
            if not admissible_quick(g):
                continue
            G = generate_group(g)
            assert sign_formula_mismatches(G) == []
            for e in G.elements:
                word = G.word(e.index)
                assert rho_via_formula(g, word) == e.matrix == word_matrix(g, word)

    def test_clean_graph_has_no_mismatches(self, rank5):
        assert sign_formula_mismatches(generate_group(rank5)) == []

    def test_swapped_compose_is_caught(self, rank5, monkeypatch):
        a, b = generator_rho(rank5, "a"), generator_rho(rank5, "b")
        assert a.compose(b) != b.compose(a)  # non-abelian
        # the closure's right multiplier by a generator's point images
        # becomes left multiplication: m * g is computed as g after m
        monkeypatch.setattr(group, "itemgetter", lambda *g: lambda m: tuple(g[x] for x in m))
        words = _sign_formula_words(rank5)
        assert words
        # each reported word is a real witness: the formula differs from the
        # fold computed with the same wrong product, letters taken last to
        # first as right factors
        for w in words:
            fold = SignedPermutation.identity(rank5.labels)
            for s in reversed(w):
                fold = generator_rho(rank5, s).compose(fold)  # wrong: fold * rho_s
            assert rho_via_formula(rank5, w) != fold

    @staticmethod
    def _corrupt_a_at(label):
        """generator_rho with an extra -1 on `label` in the matrix of a."""
        def corrupted(g, s):
            m = generator_rho(g, s)
            if s != "a":
                return m
            signs = list(m.signs)
            signs[g.labels.index(label)] *= -1
            return SignedPermutation(m.labels, m.perm, tuple(signs))

        return corrupted

    def test_corrupted_generator_sign_is_caught(self, monkeypatch):
        # with every involution the identity, rho_a with -1 at a and b still
        # generates a cube group (diagonal matrices), so the table is built
        g = graph_from("abc")
        # the closure and word_matrix both fold the corrupted matrix
        monkeypatch.setattr(group, "generator_rho", self._corrupt_a_at("b"))
        words = _sign_formula_words(g)
        assert ("a",) in words
        assert ("b",) not in words
        for w in words:
            assert "a" in w
            assert rho_via_formula(g, w) != word_matrix(g, w)

    def test_corrupted_generator_sign_breaks_generation(self, rank5, monkeypatch):
        # on the rank-5 fixture the corrupted rho_a generates more than 2^5 elements
        monkeypatch.setattr(group, "generator_rho", self._corrupt_a_at("c"))
        failures = verify_graph(rank5)
        assert [check for check, _ in failures] == ["generate"]
        assert "the product of element 2 by 'c' is not element 3" in failures[0][1]

    def test_swapped_elements_are_caught(self, d4):
        # the elements of a and b trade vertices, so the formula step from
        # each lands on a matrix the fold does not give there
        G = generate_group(d4)
        G._products[1], G._products[2] = G._products[2], G._products[1]
        assert sign_formula_mismatches(G) == [
            ("a",), ("b",), ("b", "a", "c"), ("c", "b", "c"),
            ("a", "b", "c", "a", "c"), ("c", "b", "c", "a", "c"),
        ]

    def test_corrupted_odd_image_is_caught(self, d4):
        # element 3's images of -e_a and -e_b trade places; its images of
        # the points +e_t, the ones a decoded matrix reads, are intact
        G = generate_group(d4)
        x = list(G._products[3])
        x[1], x[3] = x[3], x[1]
        assert x[1] != x[0] ^ 1 and x[3] != x[2] ^ 1
        G._products[3] = tuple(x)
        assert G.elements[3].matrix == word_matrix(d4, G.word(3))
        assert sign_formula_mismatches(G) == [("c", "a"), ("a", "b"), ("b", "c", "b", "a")]

    def test_missing_identity_is_the_empty_word(self, d4):
        G = generate_group(d4)
        G._products[0] = G._products[1]
        assert not G.elements[0].matrix.is_identity
        assert sign_formula_mismatches(G) == [()]


class TestInvariantSubspaces:
    def test_d4(self, d4):
        assert set(invariant_coordinate_subspaces(d4)) == {frozenset("a"), frozenset("bc")}

    def test_all_identity_graph_diagonalizes(self):
        g = graph_from("abcd")
        assert invariant_coordinate_subspaces(g) == [frozenset(s) for s in "abcd"]

    def test_generators_preserve_blocks(self, rank5):
        for block in invariant_coordinate_subspaces(rank5):
            for s in rank5.labels:
                m = generator_rho(rank5, s)
                assert {m.perm_map()[t] for t in block} == block


class TestReducibility:
    def test_d4(self, d4):
        assert is_reducible(d4)

    def test_rank5(self, rank5):
        assert is_reducible(rank5)

    def test_rank1_rejected(self, rank1):
        with pytest.raises(RankTooSmallError):
            is_reducible(rank1)

    def test_all_admissible_rank3(self):
        for g in enumerate_decorated_graphs(3):
            if admissible_quick(g):
                assert is_reducible(g)


class TestLeftActionAndEmbedding:
    @pytest.mark.parametrize("rank", [2, 3])
    def test_left_action_on_vertex_vectors(self, rank):
        for g in enumerate_decorated_graphs(rank):
            if not admissible_quick(g):
                continue
            G = generate_group(g)
            for x, h in itertools.product(G.elements, repeat=2):
                product = G.elements[G.multiply(x.index, h.index)]
                moved = x.matrix.apply_to_vector(
                    embed_vertex(g.labels, vertex_subset(G, h.index))
                )
                assert moved == embed_vertex(g.labels, vertex_subset(G, product.index))

    @pytest.mark.parametrize("rank", [2, 3])
    def test_adjacency_is_symmetric_difference_one(self, rank):
        for g in enumerate_decorated_graphs(rank):
            if not admissible_quick(g):
                continue
            G = generate_group(g)
            adjacent = {frozenset((u, v)) for u, v, _ in G.cayley.edges}
            for x, y in itertools.combinations(G.elements, 2):
                delta = len(vertex_subset(G, x.index) ^ vertex_subset(G, y.index))
                assert (frozenset((x.index, y.index)) in adjacent) == (delta == 1)

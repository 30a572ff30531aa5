import itertools
import random

import pytest

from cubegroups import rep
from cubegroups.errors import RankTooSmallError, UnknownLabelError
from cubegroups.graphs import admissible_quick
from cubegroups.group import generate_group, generator_rho, word_matrix
from cubegroups.rep import (
    embed_vertex,
    formula_and_fold,
    invariant_coordinate_subspaces,
    is_reducible,
    rho_via_formula,
    sign_count,
    sign_formula_mismatches,
)
from cubegroups.signedperm import SignedPermutation
from cubegroups.sweep import FORMULA_WORD_LENGTH, enumerate_decorated_graphs, verify_graph


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
        assert m.sign_of("b") == -1 and m.image_label("b") == "c"

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


def _words_in_report_order(labels, max_len):
    for k in range(max_len + 1):
        yield from itertools.product(labels, repeat=k)


def _sign_formula_details(g):
    return [d for check, d in verify_graph(g) if check == "sign-formula"]


class TestFormulaAndFold:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_both_sides_match_per_word_oracles(self, rank):
        for g in enumerate_decorated_graphs(rank):
            if not admissible_quick(g):
                continue
            visited = []
            for word, formula, fold in formula_and_fold(g, FORMULA_WORD_LENGTH):
                m = rho_via_formula(g, word)
                assert formula == (m.perm, m.signs)
                assert fold == word_matrix(g, word)
                visited.append(word)
            # depth-first preorder visits every word once, in label order
            index = {s: i for i, s in enumerate(g.labels)}
            assert visited == sorted(visited, key=lambda w: [index[s] for s in w])
            assert sorted(visited) == sorted(_words_in_report_order(g.labels, 4))

    def test_clean_graph_has_no_mismatches(self, rank5):
        assert sign_formula_mismatches(rank5, FORMULA_WORD_LENGTH) == []

    def test_swapped_compose_is_caught(self, rank5, monkeypatch):
        a, b = generator_rho(rank5, "a"), generator_rho(rank5, "b")
        assert a.compose(b) != b.compose(a)  # non-abelian
        original = SignedPermutation.compose
        monkeypatch.setattr(SignedPermutation, "compose", lambda x, y: original(y, x))
        details = _sign_formula_details(rank5)
        assert details
        # the per-word check with the same wrong fold finds the same words,
        # in the same length-then-lexicographic order
        assert details == [
            f"word {w}"
            for w in _words_in_report_order(rank5.labels, FORMULA_WORD_LENGTH)
            if rho_via_formula(rank5, w) != word_matrix(rank5, w)
        ]

    def test_corrupted_generator_sign_is_caught(self, rank5, monkeypatch):
        def corrupted(g, s):
            m = generator_rho(g, s)
            if s != "a":
                return m
            signs = list(m.signs)
            signs[g.labels.index("b")] *= -1
            return SignedPermutation(m.labels, m.perm, tuple(signs))

        monkeypatch.setattr(rep, "generator_rho", corrupted)
        details = _sign_formula_details(rank5)
        assert "word ('a',)" in details
        assert "word ('b',)" not in details


class TestInvariantSubspaces:
    def test_d4(self, d4):
        assert set(invariant_coordinate_subspaces(d4)) == {frozenset("a"), frozenset("bc")}

    def test_all_identity_graph_diagonalizes(self):
        from conftest import graph_from

        g = graph_from("abcd")
        assert invariant_coordinate_subspaces(g) == [frozenset(s) for s in "abcd"]

    def test_generators_preserve_blocks(self, rank5):
        for block in invariant_coordinate_subspaces(rank5):
            for s in rank5.labels:
                m = generator_rho(rank5, s)
                assert {m.image_label(t) for t in block} == block


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
                    embed_vertex(g.labels, G.subsets[h.index])
                )
                assert moved == embed_vertex(g.labels, G.subsets[product.index])

    @pytest.mark.parametrize("rank", [2, 3])
    def test_adjacency_is_symmetric_difference_one(self, rank):
        for g in enumerate_decorated_graphs(rank):
            if not admissible_quick(g):
                continue
            G = generate_group(g)
            adjacent = {frozenset((u, v)) for u, v, _ in G.cayley.edges}
            for x, y in itertools.combinations(G.elements, 2):
                delta = len(G.subsets[x.index] ^ G.subsets[y.index])
                assert (frozenset((x.index, y.index)) in adjacent) == (delta == 1)

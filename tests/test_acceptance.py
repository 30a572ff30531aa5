"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All checks are exact (integer arithmetic throughout); the only bounds
are the time caps noted inline.
"""

import itertools
import random
import time

import pytest

from cubegroups.decompose import (
    decomposition_ordering,
    normal_form,
    orbit_tree,
    orbits,
)
from cubegroups.errors import NotADecompositionError
from cubegroups.formats import parse_decorated_graph, parse_perm_group
from cubegroups.graphs import (
    TrajectoryKind,
    admissible_quick,
    edge_partition,
    holonomy,
    is_admissible,
    presentation_relators,
)
from cubegroups.group import (
    LabeledGraph,
    decorated_graph_from_group,
    generate_group,
    generator_rho,
    is_hypercube,
    word_matrix,
)
from cubegroups.rep import embed_vertex, is_reducible, rho_via_formula, sign_count
from cubegroups.sweep import enumerate_decorated_graphs, sweep

D4_DOC = "gens: a b c\na: (b c)\n"
RANK5_DOC = (
    "gens: a b c d e\n"
    "a: (b d)\nb: (a c)\nc: (b d)\nd: (a c)\ne: (a c)(b d)\n"
)


def report(n, name, elapsed=None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {n} {name}: PASS{suffix}")


def test_criterion_1_dihedral_end_to_end():
    start = time.time()
    g = parse_decorated_graph(D4_DOC)
    assert is_admissible(g).admissible

    G = generate_group(g)
    assert G.order == 8
    cube = is_hypercube(G.cayley)
    assert cube and cube.dimension == 3

    assert presentation_relators(g) == [
        ("a", "a"),
        ("b", "b"),
        ("c", "c"),
        ("a", "b", "a", "c"),
        ("b", "c", "b", "c"),
    ]
    assert orbits(g).blocks == (frozenset("a"), frozenset("bc"))

    ordering = decomposition_ordering(orbit_tree(g))
    assert ordering == ("a", "b", "c")
    nf = normal_form(G, ordering)
    assert len(nf.to_element) == 8

    rho = {s: generator_rho(g, s) for s in "abc"}
    assert rho["b"].compose(rho["a"]) == rho["a"].compose(rho["c"])          # ba = ac
    assert rho["b"].compose(rho["a"]).compose(rho["c"]) == rho["a"]          # bac = a

    with pytest.raises(NotADecompositionError):
        normal_form(G, ("b", "a", "c"))

    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, "dihedral end-to-end fixture", elapsed)


def test_criterion_2_reverse_construction():
    start = time.time()
    labels, perms = parse_perm_group("a = (1 3)\nb = (1 2)(3 4)\nc = (1 4)(2 3)\n")
    g = decorated_graph_from_group(perms, labels)
    assert g.involutions["a"] == {"a": "a", "b": "c", "c": "b"}
    assert g.involutions["b"] == {s: s for s in "abc"}
    assert g.involutions["c"] == {s: s for s in "abc"}
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(2, "reverse construction from permutation generators", elapsed)


def test_criterion_3_rank5_fixture():
    start = time.time()
    g = parse_decorated_graph(RANK5_DOC)
    assert is_admissible(g).admissible

    groups = {(e.kind, e.vertices) for e in edge_partition(g)}
    assert groups == {
        (TrajectoryKind.FOUR_CYCLE, ("a", "b", "c", "d")),
        (TrajectoryKind.ANGLE, ("a", "e", "c")),
        (TrajectoryKind.ANGLE, ("b", "e", "d")),
        (TrajectoryKind.SINGLE_EDGE, ("a", "c")),
        (TrajectoryKind.SINGLE_EDGE, ("b", "d")),
    }
    assert holonomy(g, "a", "b") == {s: s for s in g.labels}

    G = generate_group(g)
    assert G.order == 32
    assert is_hypercube(G.cayley)
    assert orbits(g).block_count >= 2
    assert is_reducible(g)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(3, "rank-5 fixture", elapsed)


def test_criterion_4_exhaustive_sweep():
    start = time.time()
    for rank in (1, 2, 3, 4, 5):
        rep = sweep(rank)
        assert rep.failures == []
        assert rep.verified_count == rep.admissible_count
    assert (rep.total_graphs, rep.admissible_count, rep.verified_count) == (100_000, 236, 236)
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(4, "exhaustive sweep rank <= 5, zero failures", elapsed)


def _admissible_pool():
    pool = []
    for rank in (1, 2, 3, 4):
        pool.extend(g for g in enumerate_decorated_graphs(rank) if admissible_quick(g))
    count = 0
    for g in enumerate_decorated_graphs(5):
        if admissible_quick(g):
            pool.append(g)
            count += 1
            if count >= 30:
                break
    return pool


def test_criterion_5_formula_oracle_equivalence():
    start = time.time()
    rng = random.Random(20240817)
    pool = _admissible_pool()

    mismatches = 0
    for _ in range(1000):
        g = rng.choice(pool)
        word = tuple(rng.choice(g.labels) for _ in range(rng.randint(0, 12)))
        if rho_via_formula(g, word) != word_matrix(g, word):
            mismatches += 1
    assert mismatches == 0

    # 100 pairs of words representing equal elements: sign-count parity agrees
    g = next(gr for gr in pool if gr.rank == 3 and any(
        gr.involutions[s] != {t: t for t in gr.labels} for s in gr.labels
    ))
    by_matrix = {}
    pairs = 0
    while pairs < 100:
        word = tuple(rng.choice(g.labels) for _ in range(rng.randint(0, 10)))
        m = word_matrix(g, word)
        other = by_matrix.setdefault(m, word)
        if other != word:
            for t in g.labels:
                assert (
                    sign_count(g, word, t).count % 2
                    == sign_count(g, other, t).count % 2
                )
            pairs += 1
    elapsed = time.time() - start
    report(5, "sign formula matches matrix oracle", elapsed)


def test_criterion_6_left_action_and_embedding():
    for rank in (1, 2, 3):
        for g in enumerate_decorated_graphs(rank):
            if not admissible_quick(g):
                continue
            G = generate_group(g)
            vectors = [embed_vertex(g.labels, G.subsets[e.index]) for e in G.elements]
            for x, h in itertools.product(G.elements, repeat=2):
                product = G.multiply(x.index, h.index)
                assert x.matrix.apply_to_vector(vectors[h.index]) == vectors[product]
            adjacent = {frozenset((u, v)) for u, v, _ in G.cayley.edges}
            for x, y in itertools.combinations(G.elements, 2):
                delta = len(G.subsets[x.index] ^ G.subsets[y.index])
                assert (frozenset((x.index, y.index)) in adjacent) == (delta == 1)
    report(6, "left action and vertex embedding properties")


def test_criterion_7_negative_controls():
    edges = tuple((min(i, (i + 1) % 8), max(i, (i + 1) % 8), f"e{i}") for i in range(8))
    result = is_hypercube(LabeledGraph(tuple(range(8)), edges))
    assert not result
    assert result.reason

    bad = parse_decorated_graph("gens: a b c\na: (b c)\nb: (a c)\n")
    rep = is_admissible(bad)
    assert not rep.admissible
    assert any(f.kind == "NotFourPeriodic" for f in rep.failures)
    report(7, "negative controls (8-cycle, non-admissible rank-3 graph)")

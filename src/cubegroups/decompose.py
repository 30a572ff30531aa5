"""Orbit structure and product decompositions.

The involutions of a decorated graph generate an action of the whole group on
its label set (each generator acts by its own involution).  Orbits of that
action are invariant subsets; recursing into the restricted graphs gives the
orbit tree, whose leaf order is exactly an ordering for which every group
element factors uniquely as a product of 0/1 powers of the generators: its
normal form permutes the cube's vertices, and the powers are read off it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    InternalConsistencyError,
    NotADecompositionError,
    RankTooSmallError,
)
from .graphs import DecoratedGraph, Permutation, _check_label, require_admissible
from .group import CubeGroup, GroupElement


def perm_image(g: DecoratedGraph, word) -> Permutation:
    """Composite of the involutions along a word, applied-first order: each
    label's `_walk` along the word, read once and checked first.  Constant on
    group elements: equal elements give equal permutations."""
    word = _checked_word(g, word)
    return {t: _walk(g.involutions, word, t)[0] for t in g.labels}


def _checked_word(g: DecoratedGraph, word) -> tuple[str, ...]:
    """The word as a tuple; UnknownLabelError for its first letter g lacks."""
    word = tuple(word)
    for s in word:
        _check_label(g.involutions, s)
    return word


def _walk(involutions, word, t: str) -> tuple[str, int]:
    """The sign-count formula's one recurrence: label t carried along a checked
    word, applied-first, to its image, flipping where a letter equals it."""
    flips = 0
    for s in word:
        flips += s == t
        t = involutions[s][t]
    return t, flips


@dataclass(frozen=True)
class OrbitPartition:
    blocks: tuple[frozenset[str], ...]

    @property
    def block_count(self) -> int:
        return len(self.blocks)


def orbits(g: DecoratedGraph) -> OrbitPartition:
    """Orbits of the label set under all involutions, ordered by least label."""
    return OrbitPartition(_orbit_blocks(g.involutions, g.labels))


def _orbit_blocks(involutions, labels) -> tuple[frozenset[str], ...]:
    """Orbits of invariant `labels` under their own involutions, by least label."""
    js = [involutions[s] for s in labels]
    blocks = []
    for seed in labels:
        if any(seed in b for b in blocks):
            continue
        block, frontier = {seed}, [seed]
        for x in frontier:  # the list grows while it is walked
            new = {j[x] for j in js} - block
            block |= new
            frontier += new
        blocks.append(frozenset(block))
    return tuple(blocks)


@dataclass(frozen=True)
class OrbitTree:
    """Recursive orbit partition; children are the orbits of the restricted graph."""

    labels: frozenset[str]
    children: tuple["OrbitTree", ...]

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaf_labels(self) -> tuple[str, ...]:
        if self.is_leaf:
            (label,) = self.labels
            return (label,)
        return tuple(s for child in self.children for s in child.leaf_labels())


def orbit_tree(g: DecoratedGraph) -> OrbitTree:
    require_admissible(g)
    return _orbit_tree(g)


def _orbit_tree(g: DecoratedGraph, blocks=None, labels=None) -> OrbitTree:
    """The orbit tree of `labels` (default: all of g's), whose orbits are `blocks`
    if the caller has them: each child is an orbit's tree under its own labels'
    involutions, read off g's dicts instead of a `restricted` graph."""
    labels = g.labels if labels is None else labels
    if len(labels) == 1:
        return OrbitTree(frozenset(labels), ())
    if blocks is None:
        blocks = _orbit_blocks(g.involutions, labels)
    if len(blocks) == 1:
        raise InternalConsistencyError(
            f"rank-{len(labels)} graph has a single orbit; admissible ones have at least two"
        )
    children = tuple(_orbit_tree(g, labels=tuple(s for s in labels if s in b)) for b in blocks)
    return OrbitTree(frozenset(labels), children)


def decomposition_ordering(tree: OrbitTree) -> tuple[str, ...]:
    """Left-to-right leaf order of the orbit tree."""
    return tree.leaf_labels()


def planar_orderings(tree: OrbitTree):
    """All leaf orders obtainable by permuting children at every node."""
    if tree.is_leaf:
        (label,) = tree.labels
        yield (label,)
        return
    child_orders = [list(planar_orderings(c)) for c in tree.children]
    for perm in itertools.permutations(range(len(tree.children))):
        for combo in itertools.product(*(child_orders[i] for i in perm)):
            yield tuple(s for part in combo for s in part)


@dataclass(frozen=True)
class NormalForm:
    """The bijection {0,1}^n <-> G of an ordering s1, ..., sn, as two lists:
    ``vertices[b]`` is the index of s1^m1 ... sn^mn, b reading m1 ... mn as a
    binary number (``itertools.product`` order), and ``codes`` its inverse."""

    ordering: tuple[str, ...]
    vertices: list[int]
    codes: list[int]

    @cached_property
    def _halves(self):  # b's high and low bits, each at most 2^ceil(n/2) tuples
        h = len(self.ordering) // 2
        tables = (list(itertools.product((0, 1), repeat=r)) for r in (len(self.ordering) - h, h))
        return (h, (1 << h) - 1, *tables)

    def bits_for(self, element: GroupElement) -> tuple[int, ...]:
        if element.index < 0:  # the list would count it from the end
            raise IndexError(f"element index {element.index} is negative")
        b = self.codes[element.index]
        h, mask, high, low = self._halves
        return high[b >> h] + low[b & mask]

    def word_for(self, element: GroupElement) -> tuple[str, ...]:
        return tuple(s for s, m in zip(self.ordering, self.bits_for(element)) if m)


def normal_form(G: CubeGroup, ordering) -> NormalForm:
    """Tabulate all 2^n products s1^m1 ... sn^mn and verify they are distinct.

    Each factor of the ordering doubles the list of products, following
    each by its product with the factor (`G.step`), so the bit vectors come
    in ``itertools.product`` order.  The tabulation itself is the
    verification: a collision raises NotADecompositionError with the earlier
    and the later bit vector.  An ordering with a letter outside the labels
    raises UnknownLabelError for that letter; one that misses or repeats a
    label raises ValueError.
    """
    ordering = _checked_word(G.graph, ordering)
    pos = {s: k for k, s in enumerate(G.graph.labels)}
    missing = [s for s in pos if s not in ordering]
    repeated = sorted({s for s in ordering if ordering.count(s) > 1})
    if missing or repeated:
        raise ValueError(
            f"ordering must list each label once: missing {missing}, repeated {repeated}")
    step, vertices = G.step, [0]
    for k in [pos[s] for s in ordering]:
        vertices = [j for i in vertices for j in (i, step(i, k))]
    codes = [None] * len(vertices)
    for b, i in enumerate(vertices):
        if codes[i] is not None:
            raise NotADecompositionError(ordering, tuple(
                tuple(map(int, f"{c:0{len(ordering)}b}")) for c in (codes[i], b)))
        codes[i] = b
    return NormalForm(ordering, vertices, codes)


def two_orbit_check(g: DecoratedGraph) -> bool:
    """Whether the label action has at least two orbits (expected for every
    admissible graph of rank >= 2, since each generator fixes its own label)."""
    require_admissible(g)
    if g.rank < 2:
        raise RankTooSmallError(g.rank, 2)
    return orbits(g).block_count >= 2

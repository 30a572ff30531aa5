"""The geometric representation: vertex embedding, sign counts, invariant blocks.

Every group element acts on the ambient coordinate space by a signed
permutation.  The sign picked up by each basis vector can be read directly off
a defining word: `rho_via_formula` reads the word once (any iterable), checks
its letters in order, then walks each label along it (`decompose._walk`),
tracking its image, the sign flipping each time the next letter equals it.
`sign_formula_mismatches` checks this formula against the matrix fold on
every word at once, by induction over the point-image tuples the closure
checked and kept (one step per element and letter, no matrix decoded).
Orbit blocks of the label action span invariant coordinate subspaces, so the
representation is reducible whenever there are at least two blocks:
`is_reducible` is another name for `decompose.two_orbit_check`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .decompose import _checked_word, _walk, orbits, two_orbit_check
from .errors import UnknownLabelError
from .graphs import DecoratedGraph, _check_label, require_admissible, validate_labels
from .group import CubeGroup
from .signedperm import SignedPermutation


def embed_vertex(labels, subset) -> dict[str, int]:
    """Cube-vertex vector: coordinate -1 on the subset, +1 elsewhere.  A bad
    label raises ValueError and a repeated one DuplicateLabelError."""
    labels = tuple(labels)
    validate_labels(labels)
    subset = set(subset)
    unknown = subset - set(labels)
    if unknown:
        raise UnknownLabelError(sorted(unknown))
    return {s: (-1 if s in subset else 1) for s in labels}


@dataclass(frozen=True)
class SignCount:
    word: tuple[str, ...]
    target: str
    count: int

    @property
    def sign(self) -> int:
        return -1 if self.count % 2 else 1


def sign_count(g: DecoratedGraph, word, t: str) -> SignCount:
    """Number of sign flips the basis vector e_t picks up along a word.

    With the word in applied-first order, flip i fires when letter i+1 equals
    the image of t under the first i involutions (the i = 0 test is just
    "first letter equals t").  An unknown target is reported before any
    letter.  Only the parity is contractual; the count is kept for diagnostics.
    """
    _check_label(g.involutions, t)
    word = _checked_word(g, word)
    return SignCount(word, t, _walk(g.involutions, word, t)[1])


def rho_via_formula(g: DecoratedGraph, word) -> SignedPermutation:
    """Matrix of a word from the closed formula: one walk per label gives its
    image (the permutation part) and its flip count (the sign).  Always
    equals the fold of the generator matrices."""
    word, labels = _checked_word(g, word), g.labels
    walks = [_walk(g.involutions, word, t) for t in labels]
    return SignedPermutation(labels, [labels.index(x) for x, _ in walks],
                             [-1 if flips % 2 else 1 for _, flips in walks])


def sign_formula_mismatches(G: CubeGroup) -> list[tuple[str, ...]]:
    """Words whose sign-count formula differs from the matrix fold (expected:
    none), decided for every word of every length by induction over `G.step`.

    Prepending s to a word is one formula step: target t takes the image and
    sign of j_s(t), and its sign flips when t equals s.  On point images (2t
    is +e_t, 2t+1 is -e_t) the step reads point 2t at ``2 * pos[j_s(t)] +
    (t == s)`` and 2t+1 at its negation: a map from the involution table
    alone.  The closure stored the images of element i (the fold of w) times
    rho_s, s = labels[k], the fold of ``(s,) + w``, at vertex ``G.step(i, k)``,
    checked there if the step goes up the cube (down follows from rho_s^2 = 1).
    So once element 0 is the identity, comparing the step on every element's
    whole tuple, -e_t images included, covers every word in |G|·n steps, up
    and down, and re-checks each edge the closure multiplied at one end only;
    no matrix is decoded.  This tests that the generator matrices, the
    closure's products and the involution table agree.  The group is walked
    breadth-first from element 0 with one word per element; a failed step is
    reported as (s,) + w and not walked on, so formula and fold differ on
    every reported word.  A non-identity element 0 is reported as ().
    """
    labels, involutions, products = G.graph.labels, G.graph.involutions, G._products
    pos, rights = G._label_index, []  # rights: the formula's one-letter maps
    for s in labels:
        plus = [2 * pos[involutions[s][t]] + (t == s) for t in labels]
        rights.append(itemgetter(*[q ^ b for q in plus for b in (0, 1)]))
    if products[0] != tuple(range(2 * len(labels))):
        return [()]
    words, queue, bad = {0: ()}, [0], []  # words: element index -> the word it was reached by
    for i in queue:  # the list grows while it is walked
        x, word = products[i], words[i]
        for k, (s, right) in enumerate(zip(labels, rights)):
            j = i ^ 1 << (x[2 * k] >> 1)  # G.step(i, k), inlined
            if right(x) != products[j]:
                bad.append((s,) + word)
            elif j not in words:
                words[j] = (s,) + word
                queue.append(j)
    return bad


def invariant_coordinate_subspaces(g: DecoratedGraph) -> list[frozenset[str]]:
    """Orbit blocks of the label action; each spans an invariant subspace.

    Each j_s maps every orbit into itself, so each generator matrix permutes
    a block's coordinates among themselves.
    """
    require_admissible(g)
    return list(orbits(g).blocks)


is_reducible = two_orbit_check  # the coordinate blocks are the orbits

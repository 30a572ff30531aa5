"""The geometric representation: vertex embedding, sign counts, invariant blocks.

Every group element acts on the ambient coordinate space by a signed
permutation.  The sign picked up by each basis vector can be read directly off
a defining word: walking the word letter by letter while tracking the image of
the target label, the sign flips each time the next letter equals the current
image.  `sign_formula_mismatches` checks this formula against the matrix fold
on every word at once, by induction over the multiplication table the
closure built with the group (one step per element and letter).  Orbit blocks
of the label action span invariant coordinate subspaces, so the
representation is reducible whenever there are at least two blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .decompose import orbits, perm_image
from .errors import RankTooSmallError, UnknownLabelError
from .graphs import DecoratedGraph, require_admissible
from .group import CubeGroup
from .signedperm import SignedPermutation


def embed_vertex(labels, subset) -> dict[str, int]:
    """Cube-vertex vector: coordinate -1 on the subset, +1 elsewhere."""
    labels = tuple(labels)
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
    "first letter equals t").  Only the parity is contractual; the count is
    kept for diagnostics.
    """
    if t not in g.involutions:
        raise UnknownLabelError(t)
    x = t
    count = 0
    for s in word:
        if s not in g.involutions:
            raise UnknownLabelError(s)
        if s == x:
            count += 1
        x = g.involutions[s][x]
    return SignCount(tuple(word), t, count)


def rho_via_formula(g: DecoratedGraph, word) -> SignedPermutation:
    """Matrix of a word from the closed formula: permutation part from the
    involution composite, sign part from the flip counts.  Always equals the
    fold of the generator matrices."""
    perm = perm_image(g, word)
    signs = {t: sign_count(g, word, t).sign for t in g.labels}
    return SignedPermutation.from_maps(g.labels, perm, signs)


def sign_formula_mismatches(G: CubeGroup) -> list[tuple[str, ...]]:
    """Words whose sign-count formula differs from the matrix fold (expected:
    none), decided for every word of every length by induction over G's
    multiplication table.

    Prepending s to a word is one formula step: target t takes the image and
    sign of j_s(t), and its sign flips when t equals s.  The closure made
    element ``G.step[i][k]`` as the fold of ``(s,) + w`` from element i, the
    fold of w (s = labels[k]).  So once element 0 is the identity, the fold
    of the empty word, checking the step on ``elements[i].matrix`` against
    ``elements[G.step[i][k]].matrix`` for every i and k covers every word;
    |G|·n steps in all.  This tests that the generator matrices, the
    product that built the table and the involution table agree.  The table
    is walked breadth-first from element 0 with one word per element; a
    failed step is reported as (s,) + w and not walked on, so formula and
    fold differ on every reported word.  A non-identity element 0 is
    reported as the empty word.
    """
    g = G.graph
    labels = g.labels
    # one getter per letter: index tuple -> its entries at j_s(t), t in label order
    if len(labels) == 1:
        getters = [lambda seq: (seq[0],)]  # itemgetter(0) returns the item itself
    else:
        getters = [itemgetter(*[labels.index(g.involutions[s][t]) for t in labels])
                   for s in labels]
    matrices = [e.matrix for e in G.elements]
    if not matrices[0].is_identity:
        return [()]
    words = {0: ()}  # element index -> the word it was reached by
    queue = [0]
    bad = []
    for i in queue:  # the list grows while it is walked
        m, word = matrices[i], words[i]
        for k, (s, j) in enumerate(zip(labels, G.step[i])):
            get = getters[k]
            signs = list(get(m.signs))
            signs[k] = -signs[k]
            target = matrices[j]
            if get(m.perm) != target.perm or tuple(signs) != target.signs:
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


def is_reducible(g: DecoratedGraph) -> bool:
    """Whether the representation splits over coordinate blocks (expected true
    for every admissible graph of rank >= 2)."""
    if g.rank < 2:
        raise RankTooSmallError(g.rank, 2)
    return len(invariant_coordinate_subspaces(g)) >= 2

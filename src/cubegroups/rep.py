"""The geometric representation: vertex embedding, sign counts, invariant blocks.

Every group element acts on the ambient coordinate space by a signed
permutation.  The sign picked up by each basis vector can be read directly off
a defining word: `rho_via_formula` reads the word once (any iterable), checks
its letters in order, then walks each label along it (`decompose._walk`),
tracking its image, the sign flipping each time the next letter equals it.
`sign_formula_mismatches` checks this formula against the matrix fold
on every word at once, by induction over the products the closure checked
as it built the group (one step per element and letter).  Orbit blocks
of the label action span invariant coordinate subspaces, so the
representation is reducible whenever there are at least two blocks:
`is_reducible` is another name for `decompose.two_orbit_check`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decompose import _checked_word, _walk, orbits, two_orbit_check
from .errors import UnknownLabelError
from .graphs import DecoratedGraph, _check_label, j_getters, require_admissible, validate_labels
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
    sign of j_s(t), and its sign flips when t equals s.  The closure stored
    the fold of ``(s,) + w``, element i (the fold of w) times rho_s with
    s = labels[k], at vertex ``G.step(i, k)``, checked against the element
    there if the step goes up the cube (a step down follows from rho_s^2 = 1).
    So once element 0 is the identity, the fold of the empty word, checking
    the step on element i's matrix against element G.step(i, k)'s for every
    i and k covers every word; |G|·n steps in all, up and down, so this
    re-checks every edge the closure multiplied at one end only.  This tests
    that the generator matrices, the closure's products and the involution
    table agree.  The group is walked breadth-first from element 0 with one
    word per element; a failed step is reported as (s,) + w and not walked
    on, so formula and fold differ on every reported word.  A non-identity
    element 0 is reported as the empty word.
    """
    labels, getters = G.graph.labels, j_getters(G.graph)
    matrices = [e.matrix for e in G.elements]
    if not matrices[0].is_identity:
        return [()]
    words = {0: ()}  # element index -> the word it was reached by
    queue = [0]
    bad = []
    for i in queue:  # the list grows while it is walked
        m, word = matrices[i], words[i]
        for k, (s, get, p) in enumerate(zip(labels, getters, m.perm)):
            j = i ^ 1 << p  # G.step(i, k), inlined
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


is_reducible = two_orbit_check  # the coordinate blocks are the orbits

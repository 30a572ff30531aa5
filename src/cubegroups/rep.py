"""The geometric representation: vertex embedding, sign counts, invariant blocks.

Every group element acts on the ambient coordinate space by a signed
permutation.  The sign picked up by each basis vector can be read directly off
a defining word: walking the word letter by letter while tracking the image of
the target label, the sign flips each time the next letter equals the current
image.  Orbit blocks of the label action span invariant coordinate subspaces,
so the representation is reducible whenever there are at least two blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decompose import orbits, perm_image
from .errors import RankTooSmallError, UnknownLabelError
from .graphs import DecoratedGraph, require_admissible
from .group import generator_rho
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


def formula_and_fold(g: DecoratedGraph, max_len: int):
    """Every word of length <= max_len with its matrix computed two ways.

    Yields ``(word, (perm, signs), fold)`` depth-first over the word tree, a
    word before its extensions and siblings in label order.  The formula
    side is the sign-count formula as index tuples: each target keeps its
    current image and its sign, and the sign flips when the next letter
    equals the current image.  It uses only the involutions, never
    `SignedPermutation` arithmetic.  The fold side is the generator matrices
    multiplied along the word, one `compose` per word on its parent's
    matrix.  The two sides agree exactly when ``(fold.perm, fold.signs)``
    equals the formula pair.
    """
    labels = g.labels
    n = len(labels)
    index = {s: i for i, s in enumerate(labels)}
    involution = [tuple(index[g.involutions[s][t]] for t in labels) for s in labels]
    rho = [generator_rho(g, s) for s in labels]
    stack = [((), tuple(range(n)), (1,) * n, SignedPermutation.identity(labels))]
    while stack:
        word, images, signs, fold = stack.pop()
        yield word, (images, signs), fold
        if len(word) == max_len:
            continue
        for k in reversed(range(n)):
            j = involution[k]
            stack.append((
                word + (labels[k],),
                tuple(j[x] for x in images),
                tuple(-e if x == k else e for e, x in zip(signs, images)),
                rho[k].compose(fold),
            ))


def sign_formula_mismatches(g: DecoratedGraph, max_len: int) -> list[tuple[str, ...]]:
    """Words of length <= max_len whose formula matrix differs from the fold
    (expected: none), shortest first, then lexicographic in label order."""
    bad = [w for w, formula, fold in formula_and_fold(g, max_len)
           if formula != (fold.perm, fold.signs)]
    index = {s: i for i, s in enumerate(g.labels)}
    return sorted(bad, key=lambda w: (len(w), [index[s] for s in w]))


def invariant_coordinate_subspaces(g: DecoratedGraph) -> list[frozenset[str]]:
    """Orbit blocks of the label action; each spans an invariant subspace.

    Verified: every generator matrix permutes each block's coordinates among
    themselves.
    """
    require_admissible(g)
    blocks = list(orbits(g).blocks)
    for s in g.labels:
        m = generator_rho(g, s)
        for block in blocks:
            image = {m.image_label(t) for t in block}
            if image != block:
                raise AssertionError(
                    f"orbit block {sorted(block)} not preserved by generator {s}"
                )
    return blocks


def is_reducible(g: DecoratedGraph) -> bool:
    """Whether the representation splits over coordinate blocks (expected true
    for every admissible graph of rank >= 2)."""
    if g.rank < 2:
        raise RankTooSmallError(g.rank, 2)
    return len(invariant_coordinate_subspaces(g)) >= 2

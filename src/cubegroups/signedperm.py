"""Signed permutations over an ordered label set, plus plain integer permutations.

A signed permutation is the matrix of an orthogonal map sending each basis
vector e_t to sign(t) * e_{perm(t)}.  All arithmetic is exact integer work.
The constructors accept any sequence for each field and store a tuple, so
instances are frozen and hashable (by the dataclass) and compare equal to
their twins built from lists.  The
same map permutes the 2n points +-e_t (`point_images`), the form in which
`generate_group` multiplies; the images of the points +e_t also give an
element's cube vertex, the coordinates it negates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LabelSetMismatchError
from .graphs import validate_labels


@dataclass(frozen=True, slots=True)
class SignedPermutation:
    labels: tuple[str, ...]
    perm: tuple[int, ...]   # perm[i] = index of the image of basis label i
    signs: tuple[int, ...]  # sign picked up by basis vector i, each +1 or -1

    def __post_init__(self):
        for name in ("labels", "perm", "signs"):  # any sequence, stored as a tuple
            object.__setattr__(self, name, tuple(getattr(self, name)))
        validate_labels(self.labels)
        n = len(self.labels)
        if not all(isinstance(x, int) for x in (*self.perm, *self.signs)):
            raise ValueError("perm and signs must hold ints")  # sorted() and `in` pass 1.0
        if sorted(self.perm) != list(range(n)):
            raise ValueError("perm is not a permutation of the label indices")
        if len(self.signs) != n or any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1/-1, one per label")

    @classmethod
    def identity(cls, labels) -> "SignedPermutation":
        labels = tuple(labels)
        n = len(labels)
        return cls(labels, tuple(range(n)), (1,) * n)

    @classmethod
    def _trusted(cls, labels, perm, signs) -> "SignedPermutation":
        """Construct without validation, for results of arithmetic on valid
        operands (the composite or inverse of signed permutations is one)."""
        self = object.__new__(cls)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "signs", signs)
        return self

    @classmethod
    def _from_point_images(cls, labels, images, perms) -> "SignedPermutation":
        """Inverse of `point_images`, trusting ``images`` to be one; the values
        decoded with one dict ``perms`` share one tuple per permutation part."""
        plus = images[::2]
        perm = tuple([x >> 1 for x in plus])
        return cls._trusted(labels, perms.setdefault(perm, perm),
                            tuple([1 - 2 * (x & 1) for x in plus]))

    def point_images(self) -> tuple[int, ...]:
        """The map on the 2n points +-e_t: point 2i is +e_{labels[i]} and point
        2i+1 is -e_{labels[i]}.  ``x.compose(y)`` sends point q to
        ``x.point_images()[y.point_images()[q]]``."""
        return tuple([2 * p + (k ^ (s < 0)) for p, s in zip(self.perm, self.signs) for k in (0, 1)])

    @property
    def is_identity(self) -> bool:
        return self.perm == tuple(range(len(self.labels))) and all(s == 1 for s in self.signs)

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self after other: basis label t goes to sign_other(t)*sign_self(p_other(t))
        on label p_self(p_other(t))."""
        labels = self.labels
        if other.labels is not labels and other.labels != labels:
            raise LabelSetMismatchError(labels, other.labels)
        own_perm, own_signs, perm = self.perm, self.signs, other.perm
        return SignedPermutation._trusted(
            labels,
            tuple([own_perm[p] for p in perm]),
            tuple([o * own_signs[p] for o, p in zip(other.signs, perm)]),
        )

    __mul__ = compose

    def inverse(self) -> "SignedPermutation":
        n = len(self.labels)
        inv_perm = [0] * n
        inv_signs = [1] * n
        for i, p in enumerate(self.perm):
            inv_perm[p] = i
            inv_signs[p] = self.signs[i]
        return SignedPermutation._trusted(self.labels, tuple(inv_perm), tuple(inv_signs))

    def perm_map(self) -> dict[str, str]:
        return {s: self.labels[self.perm[i]] for i, s in enumerate(self.labels)}

    def apply_to_vector(self, coords: dict[str, int]) -> dict[str, int]:
        """Image of an integer coordinate vector under the matrix."""
        out = {s: 0 for s in self.labels}
        for i, s in enumerate(self.labels):
            out[self.labels[self.perm[i]]] += self.signs[i] * coords.get(s, 0)
        return out

    def as_matrix(self) -> list[list[int]]:
        """Dense rows over the label order: entry [r][c] is the coefficient of
        e_{labels[r]} in the image of e_{labels[c]}."""
        n = len(self.labels)
        m = [[0] * n for _ in range(n)]
        for c in range(n):
            m[self.perm[c]][c] = self.signs[c]
        return m

    def __str__(self):
        parts = []
        for i, s in enumerate(self.labels):
            sign = "-" if self.signs[i] == -1 else "+"
            parts.append(f"{s}->{sign}{self.labels[self.perm[i]]}")
        return "[" + ", ".join(parts) + "]"


@dataclass(frozen=True)
class Perm:
    """A permutation of points 0..n-1, with (a*b)(x) = a(b(x))."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        # sorted() alone would pass 1.0 as 1, and products index by image
        if (not all(isinstance(x, int) for x in self.images)
                or sorted(self.images) != list(range(len(self.images)))):
            raise ValueError("not a permutation")

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Perm":
        images = list(range(n))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        return cls(tuple(images))

    @property
    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def __mul__(self, other: "Perm") -> "Perm":
        if len(self.images) != len(other.images):
            raise ValueError(f"degree mismatch: {len(self.images)} vs {len(other.images)}")
        return Perm(tuple(map(self.images.__getitem__, other.images)))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = set()
        out = []
        for start in range(len(self.images)):
            if start in seen or self.images[start] == start:
                continue
            cycle = [start]
            seen.add(start)
            x = self.images[start]
            while x != start:
                cycle.append(x)
                seen.add(x)
                x = self.images[x]
            out.append(tuple(cycle))
        return out

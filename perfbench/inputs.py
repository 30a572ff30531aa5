"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the seed.  The non-abelian graphs are
disjoint unions of fixed admissible components: j_s acts as the identity
outside the component of s, so every mixed trajectory is a single edge with
trivial holonomy and the union is admissible whenever its components are.  The
seed only renames and reorders labels, so the cost of a workload does not
depend on it.
"""

from __future__ import annotations

import random

# Fixed admissible components as (rank, {generator index: [swapped index pairs]}).
RANK5 = (5, {0: [(1, 3)], 1: [(0, 2)], 2: [(1, 3)], 3: [(0, 2)], 4: [(0, 2), (1, 3)]})
D4 = (3, {0: [(1, 2)]})
KLEIN = (2, {})

CLOSURE_COMPONENTS = (RANK5, D4, KLEIN, KLEIN)   # rank 12
REVERSE_COMPONENTS = (RANK5, D4, D4)             # rank 11


def union_graph(rng, components):
    """Label-shuffled disjoint union of components.

    Returns (labels, involutions, blocks): ``involutions[s]`` maps every label,
    and ``blocks`` lists each component's labels in label order.
    """
    n = sum(rank for rank, _ in components)
    names = [f"s{i}" for i in range(n)]
    rng.shuffle(names)
    involutions = {}
    blocks = []
    offset = 0
    for rank, swaps in components:
        part = names[offset:offset + rank]
        offset += rank
        for i, s in enumerate(part):
            j = {}
            for u, v in swaps.get(i, ()):
                j[part[u]], j[part[v]] = part[v], part[u]
            involutions[s] = j
        blocks.append(part)
    labels = list(names)
    rng.shuffle(labels)
    position = {s: i for i, s in enumerate(labels)}
    involutions = {s: {t: j.get(t, t) for t in labels} for s, j in involutions.items()}
    blocks = [sorted(b, key=position.__getitem__) for b in blocks]
    return tuple(labels), involutions, blocks


def abelian_graph(rng, n):
    """Rank-n graph with every j_s the identity, labels in seeded order."""
    labels = [f"s{i}" for i in range(n)]
    rng.shuffle(labels)
    return tuple(labels), {s: {t: t for t in labels} for s in labels}


def words(rng, labels, count, length):
    return [tuple(rng.choice(labels) for _ in range(length)) for _ in range(count)]


def signed_point_images(labels, involutions):
    """Each generator's signed permutation as an image list on 2n points.

    Point 2i is +e_t and point 2i+1 is -e_t for t = labels[i].  Generator s
    sends e_t to -e_{j_s(t)} when t = s and to +e_{j_s(t)} otherwise.
    """
    index = {s: i for i, s in enumerate(labels)}
    out = []
    for s in labels:
        images = [0] * (2 * len(labels))
        for t in labels:
            i, k = index[t], index[involutions[s][t]]
            flip = 1 if t == s else 0
            images[2 * i] = 2 * k + flip
            images[2 * i + 1] = 2 * k + 1 - flip
        out.append(images)
    return out

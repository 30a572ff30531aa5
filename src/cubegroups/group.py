"""Group generation, hypercube recognition, and decorated-graph extraction.

An admissible decorated graph of rank n generates a group of 2^n signed
permutations (the geometric images of the group elements).  The labeled Cayley
graph of that closure must be the 1-skeleton of the n-cube; `is_hypercube`
certifies this directly by assigning each vertex a bitmask in {0,1}^n
breadth-first from one vertex and checking adjacency against Hamming
distance 1.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import (
    ClosureSizeMismatchError,
    IllDefinedInvolutionError,
    InternalConsistencyError,
    NotACubeGroupError,
    NotAdmissibleError,
    NotInvolutionError,
    NotStandardError,
    RankCapExceededError,
    RankTooSmallError,
    UnknownLabelError,
)
from .graphs import DecoratedGraph, require_admissible
from .signedperm import SignedPermutation

RANK_CAP = 20  # bitmask vertex indexing


@dataclass(frozen=True)
class LabeledGraph:
    """Simple undirected graph with one generator label per edge."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, str], ...]  # (u, v, label) with u < v

    def __post_init__(self):
        pairs = {(u, v) for u, v, _ in self.edges}
        if len(pairs) != len(self.edges):
            raise ValueError("parallel edges are not allowed")
        if any(u >= v for u, v in pairs):
            raise ValueError("edges must be stored as (u, v) with u < v")
        verts = set(self.vertices)
        if any(u not in verts or v not in verts for u, v in pairs):
            raise ValueError("edge endpoint is not a vertex")
        ends = {(x, l) for u, v, l in self.edges for x in (u, v)}
        if len(ends) != 2 * len(self.edges):
            raise ValueError("repeated edge label at a vertex")

    def adjacency(self) -> dict[int, set[int]]:
        adj = {v: set() for v in self.vertices}
        for u, v, _ in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def label_at(self) -> dict[frozenset, str]:
        return {frozenset((u, v)): l for u, v, l in self.edges}


@dataclass(frozen=True)
class HypercubeResult:
    is_hypercube: bool
    dimension: int | None = None
    coords: dict[int, int] | None = None  # vertex -> coordinate bitmask
    reason: str | None = None

    def __bool__(self):
        return self.is_hypercube


def is_hypercube(lg: LabeledGraph) -> HypercubeResult:
    """Decide whether a simple graph is the 1-skeleton of a cube.

    The first vertex gets coordinate 0 and its i-th neighbour, in sorted
    order, bit i; breadth-first, every later vertex gets the OR of its
    neighbours' coordinates in the previous layer.  On a cube this
    reconstructs an isomorphism onto {0,1}^n.  The graph passes when every
    vertex is reached, the coordinate map is a bijection onto {0,1}^n, and
    each vertex's neighbours are exactly its Hamming-distance-1 coordinates.
    That final check certifies the isomorphism outright.  Linear in the
    number of edges.
    """
    verts = lg.vertices
    if not verts:
        return HypercubeResult(False, reason="empty graph")
    adj = lg.adjacency()
    base = verts[0]
    n = len(adj[base])
    if len(verts) != 2 ** n:
        return HypercubeResult(
            False, reason=f"{len(verts)} vertices but the first has degree {n} (need 2^{n})"
        )
    coords = {base: 0}
    layer = sorted(adj[base])
    coords.update((v, 1 << i) for i, v in enumerate(layer))
    while layer:
        nxt = {}
        for u in layer:
            for w in adj[u]:
                if w not in coords:
                    nxt[w] = nxt.get(w, 0) | coords[u]
        coords.update(nxt)
        layer = list(nxt)
    if len(coords) != len(verts):
        return HypercubeResult(False, reason="graph is not connected")
    if len(set(coords.values())) != 2 ** n:
        return HypercubeResult(False, reason="coordinate map is not a bijection")
    for u in verts:
        if {coords[v] for v in adj[u]} != {coords[u] ^ (1 << c) for c in range(n)}:
            return HypercubeResult(False, reason=f"vertex {u} lacks Hamming-1 neighborhood")
    return HypercubeResult(True, dimension=n, coords=coords)


def generator_rho(g: DecoratedGraph, s: str) -> SignedPermutation:
    """Geometric image of a generator: permutation part j_s, sign -1 only at s."""
    if s not in g.involutions:
        raise UnknownLabelError(s)
    signs = {t: (-1 if t == s else 1) for t in g.labels}
    return SignedPermutation.from_maps(g.labels, g.involutions[s], signs)


def word_matrix(g: DecoratedGraph, word) -> SignedPermutation:
    """Fold generator matrices along a word in applied-first order."""
    rho = {}
    m = SignedPermutation.identity(g.labels)
    for s in word:
        if s not in rho:
            rho[s] = generator_rho(g, s)
        m = rho[s].compose(m)
    return m


@dataclass(frozen=True)
class GroupElement:
    index: int
    matrix: SignedPermutation
    word: tuple[str, ...]  # a shortest generator word, applied-first order


@dataclass
class CubeGroup:
    """A generated cube group with its Cayley graph and vertex indexing."""

    graph: DecoratedGraph
    elements: list[GroupElement]
    index_of: dict[SignedPermutation, int]
    cayley: LabeledGraph
    subsets: list[frozenset[str]]  # element index -> vertex subset T

    @property
    def rank(self) -> int:
        return self.graph.rank

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_for_matrix(self, m: SignedPermutation) -> GroupElement:
        return self.elements[self.index_of[m]]

    def element_for_word(self, word) -> GroupElement:
        return self.element_for_matrix(word_matrix(self.graph, word))

    def multiply(self, i: int, k: int) -> int:
        return self.index_of[self.elements[i].matrix.compose(self.elements[k].matrix)]


def generate_group(g: DecoratedGraph) -> CubeGroup:
    """Breadth-first closure of the generator matrices, with hypercube certification.

    Deterministic label-order BFS gives reproducible shortest witness words.
    """
    require_admissible(g)
    n = g.rank
    if n > RANK_CAP:
        raise RankCapExceededError(n, RANK_CAP)
    rho = [generator_rho(g, s) for s in g.labels]
    matrices, index_of, words, edges = _closure(rho, g.labels, SignedPermutation.compose)
    if len(matrices) != 2 ** n:
        raise ClosureSizeMismatchError(2 ** n, len(matrices))
    elements = [GroupElement(i, m, w) for i, (m, w) in enumerate(zip(matrices, words))]
    cayley = LabeledGraph(tuple(range(len(elements))), edges)
    cube = is_hypercube(cayley)
    if not cube:
        raise InternalConsistencyError(
            f"Cayley graph of an admissible graph failed the cube check: {cube.reason}"
        )
    # each coordinate bit is the generator labeling the identity's edge along it
    bit_label = {cube.coords[v]: s for u, v, s in cayley.edges if u == 0}
    subsets = [
        frozenset(s for bit, s in bit_label.items() if cube.coords[e.index] & bit)
        for e in elements
    ]
    return CubeGroup(g, elements, index_of, cayley, subsets)


def _closure(generators, labels, mul):
    """BFS closure of labeled involutive generators.

    Returns ``(elements, index_of, words, edges)``: the elements in discovery
    order (identity first, then label order), the element -> index map, a
    shortest generator word per element (applied-first order, element k is
    ``mul(elements[i], generator s)`` with word ``(s,) + words[i]``), and the
    sorted ``(u, v, label)`` Cayley edges with u < v.  `generators` are
    hashable values; the identity is obtained by squaring the first one.
    """
    if not generators:
        raise RankTooSmallError(0, 1)
    if len(set(generators)) != len(generators):
        raise NotACubeGroupError("generators are not pairwise distinct")
    ident = mul(generators[0], generators[0])
    gen_of = dict(zip(labels, generators))
    for s, gen in gen_of.items():
        if mul(gen, gen) != ident or gen == ident:
            raise NotInvolutionError(s)
    elements = [ident]
    index_of = {ident: 0}
    words = [()]
    edges = set()
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for s in labels:
            m = mul(elements[i], gen_of[s])
            k = index_of.get(m)
            if k is None:
                k = len(elements)
                elements.append(m)
                index_of[m] = k
                words.append((s,) + words[i])
                queue.append(k)
            edges.add((min(i, k), max(i, k), s))
    return elements, index_of, words, tuple(sorted(edges))


def decorated_graph_from_group(generators, labels, mul=lambda a, b: a * b) -> DecoratedGraph:
    """Extract the decorated graph from involutive generators of a cube group.

    Works with any multiplication oracle over hashable, equality-comparable
    elements.  The group is generated explicitly, its order must be 2^n, its
    labeled Cayley graph is certified as a cube, and each involution j_s is
    read off the unique 4-cycle at the identity through each pair of
    generator edges: a cyclic label reading (t1, t2, t3, t4) contributes
    j_{t2}(t1) = t3 in both directions.
    """
    labels = tuple(labels)
    generators = list(generators)
    if len(generators) != len(labels):
        raise ValueError("one generator per label required")
    elements, _, _, edges = _closure(generators, labels, mul)
    if len(elements) != 2 ** len(labels):
        raise NotACubeGroupError(
            f"closure has order {len(elements)}, expected {2 ** len(labels)}"
        )
    cayley = LabeledGraph(tuple(range(len(elements))), edges)
    cube = is_hypercube(cayley)
    if not cube:
        raise NotACubeGroupError(cube.reason)
    adj = cayley.adjacency()
    label_at = cayley.label_at()
    gen_vertex = {}
    for v in adj[0]:
        gen_vertex[label_at[frozenset((0, v))]] = v

    assignments = {s: {s: s} for s in labels}

    def record(s, u, v):
        j = assignments[s]
        for a, b in ((u, v), (v, u)):
            if j.setdefault(a, b) != b:
                raise IllDefinedInvolutionError(s, f"j_{s}({a}) read as both {j[a]} and {b}")

    for s1, s2 in itertools.combinations(labels, 2):
        g1, g2 = gen_vertex[s1], gen_vertex[s2]
        across = (adj[g1] & adj[g2]) - {0}
        if len(across) != 1:
            raise IllDefinedInvolutionError(s1, f"no unique 4-cycle through edges {s1},{s2}")
        x = across.pop()
        reading = (
            s1,
            label_at[frozenset((g1, x))],
            label_at[frozenset((x, g2))],
            s2,
        )
        for i in range(4):
            record(reading[(i + 1) % 4], reading[i], reading[(i + 2) % 4])
    for s in labels:
        missing = set(labels) - set(assignments[s])
        if missing:
            raise IllDefinedInvolutionError(s, f"no reading assigns images for {sorted(missing)}")
    graph = DecoratedGraph(labels, assignments)
    try:
        require_admissible(graph)
    except NotAdmissibleError as exc:
        reason = ", ".join(f"{f.seed}:{f.kind}" for f in exc.report.failures)
        raise NotACubeGroupError(
            f"extracted decorated graph is not admissible ({reason})"
        ) from exc
    return graph


def standard_subgroup(G: CubeGroup, subset) -> CubeGroup:
    """Subgroup generated by a label subset, required to be a cube group on it.

    The subset's generator matrices go through `decorated_graph_from_group`,
    and the extracted graph is generated as a cube group.  Raises
    NotStandardError with that function's evidence when the closure has the
    wrong order or its Cayley graph fails the cube check.
    """
    T = [s for s in G.graph.labels if s in set(subset)]
    if not T or set(subset) - set(G.graph.labels):
        raise UnknownLabelError(sorted(set(subset) - set(G.graph.labels)) or subset)
    gens = [generator_rho(G.graph, t) for t in T]
    try:
        sub_graph = decorated_graph_from_group(gens, T, SignedPermutation.compose)
    except NotACubeGroupError as exc:
        raise NotStandardError(T, exc.reason) from exc
    return generate_group(sub_graph)

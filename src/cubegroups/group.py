"""Group generation, hypercube recognition, and decorated-graph extraction.

An admissible decorated graph of rank n generates a group of 2^n signed
permutations (the geometric images of the group elements).  The closure's
right-multiplication table is its labeled Cayley graph, which must be the
1-skeleton of the n-cube.  `generate_group` numbers each element by its
cube vertex (the bitmask in {0,1}^n of the coordinates it negates), which
certifies this as the closure runs.  The reverse construction has no graph
yet, so its generic closure runs one certificate on the table: it assigns
each vertex a bitmask breadth-first and checks adjacency against Hamming
distance 1.  The graph is then read off those coordinates: j_s(t) is the
label of the bit that letter t flips at the vertex of rho_s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .errors import (
    DuplicateLabelError,
    InternalConsistencyError,
    NotACubeGroupError,
    NotAdmissibleError,
    NotInvolutionError,
    NotStandardError,
    RankCapExceededError,
    RankTooSmallError,
    UnknownLabelError,
)
from .graphs import DecoratedGraph, require_admissible, validate_label
from .signedperm import SignedPermutation

RANK_CAP = 20  # bitmask vertex indexing


@dataclass(frozen=True)
class LabeledGraph:
    """Simple undirected graph with one generator label per edge."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, str], ...]  # (u, v, label) with u < v

    def __post_init__(self):
        # per-vertex lists, not sets of (vertex, label) tuples: validating a
        # rank-12 Cayley graph then allocates about 2 MB instead of 8 MB
        uppers = {}  # lower endpoint -> upper endpoints
        labels = {}  # endpoint -> labels of its edges
        for u, v, l in self.edges:
            uppers.setdefault(u, []).append(v)
            labels.setdefault(u, []).append(l)
            labels.setdefault(v, []).append(l)
        if any(len(set(vs)) != len(vs) for vs in uppers.values()):
            raise ValueError("parallel edges are not allowed")
        if any(u >= v for u, vs in uppers.items() for v in vs):
            raise ValueError("edges must be stored as (u, v) with u < v")
        if not set(self.vertices).issuperset(labels):
            raise ValueError("edge endpoint is not a vertex")
        if any(len(set(ls)) != len(ls) for ls in labels.values()):
            raise ValueError("repeated edge label at a vertex")

    def adjacency(self) -> dict[int, set[int]]:
        adj = {v: set() for v in self.vertices}
        for u, v, _ in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


@dataclass(frozen=True)
class HypercubeResult:
    is_hypercube: bool
    dimension: int | None = None
    coords: dict[int, int] | None = None  # vertex -> coordinate bitmask
    reason: str | None = None

    def __bool__(self):
        return self.is_hypercube


def is_hypercube(lg: LabeledGraph) -> HypercubeResult:
    """Decide whether a simple graph is the 1-skeleton of a cube: the cube
    certificate with each vertex's neighbours in sorted order."""
    adj = lg.adjacency()
    return _cube_certificate(lg.vertices, {v: sorted(ws) for v, ws in adj.items()})


def _cube_certificate(verts, rows) -> HypercubeResult:
    """The cube certificate for neighbour rows ``rows[v]`` (a Cayley table is one).

    The first vertex gets coordinate 0 and its i-th neighbour, in row order,
    bit i; breadth-first, every later vertex gets the OR of its neighbours'
    coordinates in the previous layer.  On a cube this reconstructs an
    isomorphism onto {0,1}^n.  The graph passes when every vertex is reached,
    the coordinate map is a bijection onto {0,1}^n, and each vertex's
    neighbours are exactly its Hamming-distance-1 coordinates.  That final
    check certifies the isomorphism outright.  Linear in the number of edges.
    """
    if not verts:
        return HypercubeResult(False, reason="empty graph")
    base = verts[0]
    n = len(rows[base])
    if len(verts) != 2 ** n:
        return HypercubeResult(
            False, reason=f"{len(verts)} vertices but the first has degree {n} (need 2^{n})"
        )
    coords = {base: 0}
    layer = rows[base]
    coords.update((v, 1 << i) for i, v in enumerate(layer))
    while layer:
        nxt = {}
        for u in layer:
            for w in rows[u]:
                if w not in coords:
                    nxt[w] = nxt.get(w, 0) | coords[u]
        coords.update(nxt)
        layer = list(nxt)
    if len(coords) != len(verts):
        return HypercubeResult(False, reason="graph is not connected")
    if len(set(coords.values())) != 2 ** n:
        return HypercubeResult(False, reason="coordinate map is not a bijection")
    for u in verts:
        if {coords[v] for v in rows[u]} != {coords[u] ^ (1 << c) for c in range(n)}:
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
    index: int  # the element's cube vertex
    matrix: SignedPermutation


@dataclass
class CubeGroup:
    """A generated cube group, numbered by cube vertex, with its Cayley graph.

    The group acts simply transitively on the cube's vertices, so
    ``elements[i]`` is the one whose matrix negates coordinate ``labels[k]``
    of (1, ..., 1) exactly when bit k of i is set.  ``step[i][k]`` is the
    index of ``elements[i] * rho(labels[k])``: right multiplication, and the
    labeled Cayley graph, whose edges flip one bit.
    """

    graph: DecoratedGraph
    elements: list[GroupElement]
    step: list[tuple[int, ...]]

    @property
    def rank(self) -> int:
        return self.graph.rank

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def subsets(self) -> list[frozenset[str]]:
        """Element index -> vertex subset T: the labels of its index bits."""
        labels = self.graph.labels
        return [frozenset(s for k, s in enumerate(labels) if i >> k & 1) for i in range(self.order)]

    @cached_property
    def cayley(self) -> LabeledGraph:
        """The Cayley graph as an edge list, built from ``step`` on first use."""
        labels = self.graph.labels
        edges = sorted(
            (i, j, labels[k]) for i, row in enumerate(self.step) for k, j in enumerate(row) if i < j
        )
        return LabeledGraph(tuple(range(self.order)), tuple(edges))

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {s: k for k, s in enumerate(self.graph.labels)}

    def element_for_matrix(self, m: SignedPermutation) -> GroupElement:
        """The element whose matrix is m; KeyError when m is not in the group."""
        i = sum(1 << p for p, s in zip(m.perm, m.signs) if s < 0)  # the coordinates m negates
        if i >= self.order or self.elements[i].matrix != m:
            raise KeyError(m)
        return self.elements[i]

    def element_for_word(self, word) -> GroupElement:
        """The element of a word in applied-first order: a walk from the
        identity taking the letters last to first, as right factors."""
        word = tuple(word)
        pos, step, i = self._label_index, self.step, 0
        try:
            for s in reversed(word):
                i = step[i][pos[s]]
        except KeyError:
            raise UnknownLabelError(next(s for s in word if s not in pos)) from None
        return self.elements[i]

    def word(self, i: int) -> tuple[str, ...]:
        """A shortest generator word of element i, in applied-first order:
        the descent from vertex i that takes, at each step, the first label
        whose neighbour clears a bit, so one letter per set bit of i."""
        labels, step, word = self.graph.labels, self.step, []
        while i:
            k, i = next((k, j) for k, j in enumerate(step[i]) if j < i)
            word.append(labels[k])
        return tuple(word)

    def multiply(self, i: int, k: int) -> int:
        product = self.elements[i].matrix.compose(self.elements[k].matrix)
        return self.element_for_matrix(product).index


def generate_group(g: DecoratedGraph) -> CubeGroup:
    """Breadth-first closure of the generator matrices, numbered by cube vertex.

    The closure multiplies the matrices' images of the 2n points +-e_t, one
    `itemgetter` call per product, and stores each product at the cube
    vertex read from the element it multiplies (`_vertex_closure`), which
    certifies the table as the n-cube as it goes; then it decodes each of
    the 2^n elements once.  An admissible graph always generates a cube
    group, so a closure that is not one raises InternalConsistencyError with
    the closure's reason.  The rank is bounded before the admissibility
    check, whose cost is cubic in it.
    """
    n = g.rank
    if n < 1:
        raise RankTooSmallError(n, 1)
    if n > RANK_CAP:
        raise RankCapExceededError(n, RANK_CAP)
    require_admissible(g)
    points = [generator_rho(g, s).point_images() for s in g.labels]
    try:
        elements, step = _vertex_closure(g.labels, points)
    except NotACubeGroupError as exc:
        raise InternalConsistencyError(
            f"an admissible graph did not generate a cube group: {exc.reason}"
        ) from exc
    # decoded in place by layer, near the order the tuples were made, so their memory is reused
    for i in sorted(range(1 << n), key=int.bit_count):
        elements[i] = GroupElement(i, SignedPermutation._from_point_images(g.labels, elements[i]))
    return CubeGroup(g, elements, step)


def _vertex_closure(labels, points):
    """Breadth-first closure of the generators' point images ``points``,
    stored by cube vertex: returns ``(elements, step)``, where
    ``elements[c]`` is the point-image tuple at vertex mask c and
    ``step[c][k]`` is the vertex of ``elements[c] * rho_k``.  As rho_k
    negates only e_k and fixes label k, that product negates what x does
    with bit p(k) toggled, p(k) being read from x's image of the point +e_k.

    Raises NotACubeGroupError when a product is not the element already at
    its vertex, or when two vertices hold the same element.  Both checks
    passed certify the table as the n-cube with the masks as coordinates:
    each column flips one bit, the bits p(k) at a vertex are distinct, and
    masks map one-to-one onto elements.
    """
    n = len(labels)
    rights = [itemgetter(*q) for q in points]
    flip = [1 << (q >> 1) for q in range(2 * n)]  # image of +e_k -> bit p(k)
    vertex = list(range(1 << n))  # one int object per vertex, shared by the rows
    elements = [None] * (1 << n)
    elements[0] = tuple(range(2 * n))
    step = [None] * (1 << n)
    queue = [0]
    for c in queue:  # the queue grows while it is walked
        m = elements[c]
        row = []
        for s, right, q in zip(labels, rights, m[::2]):
            x = right(m)
            v = vertex[c ^ flip[q]]
            y = elements[v]
            if y is None:
                elements[v] = x
                queue.append(v)
            elif y != x:
                raise NotACubeGroupError(f"the product of element {c} by {s!r} is not"
                                         f" element {v}, the one at its vertex")
            row.append(v)
        step[c] = tuple(row)
    if len(set(elements)) != len(elements):
        raise NotACubeGroupError("two vertices hold the same element")
    return elements, step


def _closure(generators, labels, rights):
    """BFS closure of n labeled involutive generators, certified as a cube group.

    The generic closure, for `decorated_graph_from_group`, which has no
    graph, and hence no cube vertices, until the table is certified; it is
    also the test oracle of `_vertex_closure`.  ``rights[k](m)`` is the
    product ``m * generators[k]``.  Returns ``(elements, step, coords)``: the
    elements in discovery order (identity first, then label order), the
    right multiplication table, which is the labeled Cayley graph
    (``step[i][k]`` is the index of ``rights[k](elements[i])``), and each
    element's cube coordinate bitmask, whose bit k is ``labels[k]``.
    `generators` are hashable values; the identity is obtained by squaring
    the first one.

    Raises NotACubeGroupError unless the closure is a cube group.  The walk
    stops as soon as it finds element 2^n + 1, so it makes at most
    n·2^n + 2n + 1 products.  The closure must not end short of 2^n, each
    table column must pair the elements (an involution without fixed
    points), and the table must pass the cube certificate.
    """
    if not generators:
        raise RankTooSmallError(0, 1)
    if len(set(generators)) != len(generators):
        raise NotACubeGroupError("generators are not pairwise distinct")
    ident = rights[0](generators[0])
    for s, gen, right in zip(labels, generators, rights):
        # an oracle that rejects mixed operands raises here (Perm: degree mismatch)
        if right(ident) != gen:
            raise NotACubeGroupError(f"the square of {labels[0]!r} is not an identity for {s!r}")
        if right(gen) != ident or gen == ident:
            raise NotInvolutionError(s)
    order = 2 ** len(labels)
    elements = [ident]
    index_of = {ident: 0}
    step = []
    for m in elements:  # the list grows while it is walked
        row = []
        for s, right in zip(labels, rights):
            p = right(m)
            k = index_of.get(p)
            if k is None:
                k = len(elements)
                if k == order:
                    raise NotACubeGroupError(f"closure has more than {order} elements")
                elements.append(p)
                index_of[p] = k
            row.append(k)
        step.append(tuple(row))
    if len(elements) != order:
        raise NotACubeGroupError(f"closure has {len(elements)} elements, expected {order}")
    for i, row in enumerate(step):
        for k, j in enumerate(row):
            if j == i or step[j][k] != i:
                raise NotACubeGroupError(
                    f"right multiplication by {labels[k]!r} is not a fixed-point-free involution"
                )
    # row 0 of the table is in label order, so coordinate bit k is labels[k]
    cube = _cube_certificate(range(order), step)
    if not cube:
        raise NotACubeGroupError(cube.reason)
    return elements, step, [cube.coords[i] for i in range(order)]


def decorated_graph_from_group(generators, labels, mul=lambda a, b: a * b) -> DecoratedGraph:
    """Extract the decorated graph from involutive generators of a cube group.

    Works with any multiplication oracle over hashable, equality-comparable
    elements.  More than RANK_CAP generators, a repeated label or a bad label
    are rejected before any product is made.  The closure generates the group
    and certifies it as a cube group, stopping past 2^n elements; only its
    multiplication table (the Cayley graph) and cube coordinates are read
    here, with no further product.

    A cube automorphism fixing a vertex and each of its neighbours is the
    identity, so the certificate's coordinates (identity at 0, generator k
    at bit k) are the only ones, and in them letter t applied at rho_s moves
    along axis j_s(t), as j_s is the permutation part of rho_s.  For a group
    each map read so is an involution; for another oracle a map that is not,
    or a graph that is not admissible, raises NotACubeGroupError.
    """
    labels = tuple(labels)
    generators = list(generators)
    if len(generators) != len(labels):
        raise ValueError("one generator per label required")
    if len(labels) > RANK_CAP:
        raise RankCapExceededError(len(labels), RANK_CAP)
    for i, s in enumerate(labels):
        validate_label(s)
        if s in labels[:i]:
            raise DuplicateLabelError(s)
    _, step, coords = _closure(generators, labels, [lambda m, g=g: mul(m, g) for g in generators])
    axis = {1 << k: s for k, s in enumerate(labels)}
    involutions = {s: {t: axis[coords[y] ^ coords[x]] for t, y in zip(labels, step[x])}
                   for s, x in zip(labels, step[0])}  # x is the vertex of rho_s
    try:
        graph = DecoratedGraph(labels, involutions)
        require_admissible(graph)
    except ValueError as exc:
        raise NotACubeGroupError(f"extracted {exc}") from exc
    except NotAdmissibleError as exc:
        reason = ", ".join(f"{f.seed}:{f.kind}" for f in exc.report.failures)
        raise NotACubeGroupError(
            f"extracted decorated graph is not admissible ({reason})"
        ) from exc
    return graph


def standard_subgroup(G: CubeGroup, subset) -> CubeGroup:
    """Subgroup H generated by a label subset T, required to be a cube group on T.

    H is standard exactly when T is invariant under j_t for every t in T, and
    then its decorated graph is the restriction of G's graph to T, so H is
    that restriction's group, closed once.  Invariant implies standard: every
    element of H negates only coordinates in T, so |H| <= 2^|T|, and
    restricting to those coordinates maps H onto the restriction's group of
    order 2^|T|.  Standard implies invariant: H's cube vertices are then the
    subsets of T, and at rho_s the letter t flips bit j_s(t), which must
    then lie in T.

    Raises UnknownLabelError for a label not in G, NotStandardError naming
    the involution that maps T out of itself, and RankTooSmallError (from
    `generate_group`) for an empty subset.
    """
    subset = set(subset)
    try:
        sub_graph = G.graph.restricted(subset)
    except ValueError as exc:
        raise NotStandardError(subset, str(exc)) from exc
    return generate_group(sub_graph)

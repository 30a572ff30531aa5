"""Group generation, hypercube recognition, and decorated-graph extraction.

A decorated graph of rank n is admissible exactly when its generator
matrices (signed permutations) generate a group of order 2^n whose labeled
Cayley graph is the n-cube.  The group acts simply transitively on the
cube's vertices, so `_vertex_closure`, the one closure both build paths run,
numbers each element by its cube vertex (the bitmask of the coordinates it
negates) and certifies the cube as it runs, on both paths deciding
admissibility too.  Any product is then a formula on the kept point-image
tuples (`CubeGroup.step`, `CubeGroup.multiply`), not a multiplication
table.  The reverse construction first reads the graph off the products of
two generators: rho_s * rho_t sits at the vertex {s, j_s(t)}, where exactly
one other such product sits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .errors import (
    InternalConsistencyError,
    NotACubeGroupError,
    NotInvolutionError,
    NotStandardError,
    UnknownLabelError,
)
from .graphs import DecoratedGraph, check_rank, j_getters, require_admissible, validate_labels
from .graphs import validate_label
from .signedperm import Perm, SignedPermutation

RANK_CAP = 20  # bitmask vertex indexing


@dataclass(frozen=True)
class LabeledGraph:
    """Simple undirected graph with one generator label per edge.  The
    constructor stores the vertices and each edge as tuples, so a graph
    built from lists equals its tuple twin and is hashable."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, str], ...]  # (u, v, label) with u < v

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))
        for _, _, s in self.edges:
            validate_label(s)
        pairs = [(u, v) for u, v, _ in self.edges]
        ends = [(x, l) for u, v, l in self.edges for x in (u, v)]  # (endpoint, label)
        if len(set(pairs)) != len(pairs):
            raise ValueError("parallel edges are not allowed")
        if any(u >= v for u, v in pairs):
            raise ValueError("edges must be stored as (u, v) with u < v")
        if not set(self.vertices).issuperset(x for x, _ in ends):
            raise ValueError("edge endpoint is not a vertex")
        if len(set(ends)) != len(ends):
            raise ValueError("repeated edge label at a vertex")

    def adjacency(self) -> dict[int, set[int]]:
        adj = {v: set() for v in self.vertices}
        for u, v, _ in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


# Bound once: a traced perfbench/layers.py run replaces the name LabeledGraph here.
_labeled_graph = LabeledGraph


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
    number of edges, after sorting.
    """
    verts = lg.vertices
    if not verts:
        return HypercubeResult(False, reason="empty graph")
    rows = {v: sorted(ws) for v, ws in lg.adjacency().items()}
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
    """Geometric image of a generator: permutation part j_s, sign -1 only at s.
    Not re-validated: the graph's j_s is an involution of its labels."""
    if s not in g.involutions:
        raise UnknownLabelError(s)
    labels, j, pos = g.labels, g.involutions[s], {t: k for k, t in enumerate(g.labels)}
    perm = tuple([pos[j[t]] for t in labels])
    return SignedPermutation._trusted(labels, perm, tuple([-1 if t == s else 1 for t in labels]))


def word_matrix(g: DecoratedGraph, word) -> SignedPermutation:
    """Fold generator matrices along a word in applied-first order."""
    m = SignedPermutation.identity(g.labels)
    for s in word:
        m = generator_rho(g, s).compose(m)
    return m


@dataclass(frozen=True, slots=True)
class GroupElement:
    index: int  # the element's cube vertex
    matrix: SignedPermutation


@dataclass
class CubeGroup:
    """A generated cube group, numbered by cube vertex; its Cayley graph is derived.

    The group acts simply transitively on the cube's vertices, so
    ``elements[i]`` is the one whose matrix negates coordinate ``labels[k]``
    of (1, ..., 1) exactly when bit k of i is set.  Right multiplication,
    the labeled Cayley graph, flips one bit (`step`).  The closure's point-image
    tuples, kept by vertex, serve `step`, `word` and `multiply`; `elements`
    decodes them into a list of its own on first access.  Next to them the
    group keeps the closure's permutation-part id of each vertex and its
    table, one row of ``(label, getter, 1 << p(k), id of p∘j_k)`` per id, which
    `cayley` reads.  Equality and repr compare the graph, which fixes the group.
    """

    graph: DecoratedGraph
    _products: list = field(repr=False, compare=False)  # the closure's point-image tuples
    _ids: list = field(repr=False, compare=False)  # vertex -> its permutation-part id
    _table: list = field(repr=False, compare=False)  # id -> its row in the closure's table

    @property
    def rank(self) -> int:
        return self.graph.rank

    @property
    def order(self) -> int:
        return 1 << self.rank

    @cached_property
    def elements(self) -> list[GroupElement]:
        labels, perms = self.graph.labels, {}  # one perm tuple per permutation part
        return [GroupElement(i, SignedPermutation._from_point_images(labels, x, perms))
                for i, x in enumerate(self._products)]

    def step(self, i: int, k: int) -> int:
        """The index of ``elements[i] * rho(labels[k])``: flip bit p(k), p the
        permutation part of element i (point 2k's image over 2), as rho_k
        negates only e_k.  The closure stored and checked that product there."""
        if i < 0 or k < 0:  # the tuples would count it from the end
            raise IndexError(f"negative index in step({i}, {k})")
        return i ^ 1 << (self._products[i][2 * k] >> 1)

    @property
    def cayley(self) -> LabeledGraph:
        """The sorted edge list, built on each access, decoding nothing.  Label k flips
        bit p(k) (`step`), so one sort of the labels by bit per permutation-part id,
        read off the closure's table, lists the upper edges of each vertex with that id.
        Not re-validated: vertex i lists (i, i | b) once per bit b not in i, so no
        edge is parallel, u < v and every endpoint is below 2^n.  The closure
        checked i * rho_k at i ^ (1 << p_i(k)), and rho_k is an involution, so both
        ends give an edge the same label and vertex i has all n, k on bit p_i(k).
        The edges share the vertex tuple's ints."""
        vertices = tuple(range(self.order))
        by_bit = [sorted([(b, s) for s, _, b, _ in row]) for row in self._table]
        lg = object.__new__(_labeled_graph)
        object.__setattr__(lg, "vertices", vertices)
        object.__setattr__(lg, "edges", tuple(
            (i, vertices[i | b], s) for i, t in zip(vertices, self._ids)
            for b, s in by_bit[t] if not i & b))
        return lg

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {s: k for k, s in enumerate(self.graph.labels)}

    def element_for_matrix(self, m: SignedPermutation) -> GroupElement:
        """The element whose matrix is m, read off its vertex with no decode;
        KeyError when m is not in the group."""
        i = sum(1 << p for p, s in zip(m.perm, m.signs) if s < 0)  # the coordinates m negates
        if (i >= self.order or m.labels != self.graph.labels
                or m.point_images() != self._products[i]):
            raise KeyError(m)
        return GroupElement(i, m)

    def element_for_word(self, word) -> GroupElement:
        """The element of a word in applied-first order: a walk from the
        identity taking the letters last to first, as right factors."""
        word = tuple(word)
        pos, products, i = self._label_index, self._products, 0
        try:
            for s in reversed(word):
                i ^= 1 << (products[i][2 * pos[s]] >> 1)  # step(i, pos[s]), inlined
        except KeyError:
            raise UnknownLabelError(next(s for s in word if s not in pos)) from None
        return self.elements[i]

    def word(self, i: int) -> tuple[str, ...]:
        """A shortest word of element i, in applied-first order: from vertex i,
        take each time the first label k whose bit p_i(k) is set, the one its
        `step` clears, so one letter per set bit of i."""
        labels, step, word = self.graph.labels, self.step, []
        for _ in range(i.bit_count()):
            k, i = next((k, j) for k in range(len(labels)) if (j := step(i, k)) < i)
            word.append(labels[k])
        return tuple(word)

    def multiply(self, i: int, k: int) -> int:
        """The index of ``elements[i].matrix.compose(elements[k].matrix)``: the
        vertex rule T(xy) = T(x) △ p_x(T(y)) flips bit p_i(t) for each set bit t of k."""
        if not (0 <= i < self.order and 0 <= k < self.order):
            raise IndexError(f"element index out of range in multiply({i}, {k})")
        step = self.step
        return i ^ sum([step(i, t) ^ i for t in range(self.rank) if k >> t & 1])


def generate_group(g: DecoratedGraph) -> CubeGroup:
    """Breadth-first closure of the generator matrices, numbered by cube vertex.

    `_vertex_closure` multiplies the matrices' images of the 2n points +-e_t,
    one `itemgetter` call per product, each edge from its lower end
    (n·2^(n-1) + n products), and certifies the Cayley graph as the n-cube
    as it goes; the group keeps the products, each vertex's permutation-part
    id and the ids' table.  The rank is bounded first.

    The closure decides admissibility too.  Seed (s1, s2) gives
    s3 = j_{s2}(s1) and s4 = j_{s3}(s2); layer-2 vertex {s2, s3} receives
    rho_{s2}·rho_{s1} (from {s2}) and rho_{s3}·rho_{s4} (from {s3}).  These
    agree only if the seed's holonomy is trivial, which on every seed gives
    4-periodicity: a closure that succeeds has checked admissibility, and an
    inadmissible graph is refused within layer 1, n(n+1) products.  Only then
    does `require_admissible` run, raising NotAdmissibleError with the failing
    seeds; an admissible graph refused raises InternalConsistencyError.
    """
    check_rank(g.rank, RANK_CAP)
    images = [generator_rho(g, s).point_images() for s in g.labels]
    try:
        return CubeGroup(g, *_vertex_closure(g, images))
    except NotACubeGroupError as exc:
        refusal = exc
    require_admissible(g)
    raise InternalConsistencyError(
        f"an admissible graph did not generate a cube group: {refusal.reason}"
    ) from refusal


def _vertex_closure(g: DecoratedGraph, images):
    """Breadth-first closure of the group of graph g, stored by cube vertex.

    ``images[k]`` is the image tuple of rho_k, a permutation of degree d >= 2
    (k indexes g's labels): x * rho_k is ``itemgetter(*images[k])(x)`` and the
    identity is ``tuple(range(d))``.  If x sits at mask c with permutation
    part p, then x * rho_k sits at ``c ^ (1 << p(k))``, as rho_k negates only
    e_k, and has permutation part p∘j_k.  Each p, as the bits ``1 << p(t)`` in
    label order, gets an int id on first sight, and a vertex carries the id
    of its p from its first visit.  The first vertex processed with an id
    builds that id's row of the table: ``(label, getter, 1 << p(k), id of
    p∘j_k)`` for each label k, so |P| rows of n, P = <j_s>, replace a new p
    per vertex.  Returns ``(elements, ids, table)``: ``elements[c]`` is the
    element at vertex mask c, ``ids[c]`` its id and ``table[id]`` the row.

    Raises NotACubeGroupError when a product is not the element already at
    its vertex, or when two vertices hold the same element.  Both checks
    passed certify the Cayley graph as the n-cube with the masks as
    coordinates: each generator flips one bit, the bits p(k) at a vertex are
    distinct (p is a permutation), and masks map one-to-one onto elements.
    Only each edge's lower end and the n squares at layer 1 are multiplied:
    tuples compose associatively, so x * rho_k * rho_k = x once rho_k^2 = 1,
    and distinct elements keep a vertex's down labels apart.
    """
    n, labels, compose_js = g.rank, g.labels, j_getters(g)
    rights = [itemgetter(*x) for x in images]
    elements, ids = [None] * (1 << n), [0] * (1 << n)  # vertex -> element, id of its p
    elements[0] = tuple(range(len(images[0])))
    parts = [tuple(1 << k for k in range(n))]  # id -> p, as the bits (1 << p(t) for t)
    id_of, table = {parts[0]: 0}, [None]  # p -> id; id -> row, once a vertex carries it
    queue = [0]
    for c in queue:  # the queue grows while it is walked
        m, i = elements[c], ids[c]
        if table[i] is None:
            p, next_ids = parts[i], []
            for q in [compose_j(p) for compose_j in compose_js]:  # the parts p∘j_k
                if q not in id_of:
                    id_of[q] = len(parts)
                    parts.append(q)
                    table.append(None)
                next_ids.append(id_of[q])
            table[i] = tuple(zip(labels, rights, p, next_ids))
        for s, right, b, next_id in table[i]:
            if c & b and c != b:  # a down edge, checked from below
                continue
            x = right(m)
            v = c ^ b
            y = elements[v]
            if y is None:
                elements[v] = x
                ids[v] = next_id
                queue.append(v)
            elif y != x:
                raise NotACubeGroupError(f"the product of element {c} by {s!r}"
                                         f" is not element {v}, the one at its vertex")
    if len(set(elements)) != len(elements):
        raise NotACubeGroupError("two vertices hold the same element")
    return elements, ids, table


def _closure(generators, labels):
    """Read the decorated graph of n >= 1 labeled involutive generators, the
    image tuples of permutations of one degree d >= 2, off their products of
    two, then close them with `_vertex_closure`.  Returns ``(elements, graph)``.

    In a cube group, rho_s * rho_t (t != s) sits at the vertex {s, j_s(t)},
    and an element is fixed by its vertex.  So the n(n-1) products fall into
    pairs of equal ones, whose first letters s and u differ by cancellation,
    and then j_s(t) = u.  A closure that succeeds has certified a cube
    group, whose decorated graph, the one read, is admissible by the paper's
    theorem, so admissibility is left to it.  Raises NotACubeGroupError
    otherwise, after at most the n squares, the n(n-1) products of two and
    the closure's n·2^(n-1) + n.
    """
    if len(set(generators)) != len(generators):
        raise NotACubeGroupError("generators are not pairwise distinct")
    ident = tuple(range(len(generators[0])))
    rights = [itemgetter(*x) for x in generators]
    for s, gen, right in zip(labels, generators, rights):
        if right(gen) != ident or gen == ident:
            raise NotInvolutionError(s)
    layer2 = {}  # product -> the (s, t) of each rho_s * rho_t equal to it
    for s, gen in zip(labels, generators):
        for t, right in zip(labels, rights):
            if t != s:
                layer2.setdefault(right(gen), []).append((s, t))
    involutions = {s: {s: s} for s in labels}
    for pair in layer2.values():
        if len(pair) != 2:
            raise NotACubeGroupError("the product of {!r} and {!r} is not on the cube's"
                                     " second layer".format(*pair[0]))
        (s, t), (u, w) = pair
        involutions[s][t] = u
        involutions[u][w] = s
    try:
        graph = DecoratedGraph(labels, involutions)
    except ValueError as exc:
        raise NotACubeGroupError(f"extracted {exc}") from exc
    return _vertex_closure(graph, generators)[0], graph


def decorated_graph_from_group(generators, labels) -> DecoratedGraph:
    """Extract the decorated graph from involutive `Perm` generators of a cube group.

    The generators are `Perm`s of one degree d >= 2 (by Cayley's theorem any
    finite group has such generators).  Refused before any product: a rank
    (the number of labels) outside 1 to RANK_CAP, a bad or repeated label, a
    non-`Perm` (TypeError), degree 0 or 1 (NotInvolutionError: the identity)
    and mixed degrees (ValueError).  `_closure` then reads the graph off the
    products of two and closes the group on the image tuples, which certifies it.
    """
    labels = tuple(labels)
    generators = list(generators)
    if len(generators) != len(labels):
        raise ValueError("one generator per label required")
    check_rank(len(labels), RANK_CAP)
    validate_labels(labels)
    for s, x in zip(labels, generators):
        if type(x) is not Perm:
            raise TypeError(f"the generator for {s!r} is not a Perm: {x!r}")
    degree = len(generators[0].images)
    if degree < 2:
        raise NotInvolutionError(labels[0])
    for x in generators:
        if len(x.images) != degree:
            raise ValueError(f"degree mismatch: {degree} vs {len(x.images)}")
    _, graph = _closure([x.images for x in generators], labels)
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

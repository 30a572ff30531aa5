"""Text formats: decorated-graph files, permutation-group files, DOT export.

Decorated-graph file grammar::

    # comment to end of line
    gens: a b c d e
    a: (b d)
    e: (a c)(b d)

The header declares the ordered label set.  Each later line attaches an
involution to one generator as a product of disjoint 2-cycles (or the literal
``id``); omitted generators default to the identity involution.

Permutation-group file grammar::

    a = (1 3)
    b = (1 2)(3 4)

Each line declares one involutive generator as a permutation of positive
integers in cycle notation.  The points the cycles move are numbered 0, 1, ...
in increasing order; fixed points do not change the group, so the degree is
the number of moved points, however large the points are.

In both grammars a label is any token `graphs.validate_label` accepts; a
label it rejects is a ParseError at its line.
"""

from __future__ import annotations

import re

from .errors import (
    DuplicateLabelError,
    NonDisjointCyclesError,
    NotInvolutionError,
    ParseError,
    SelfCycleError,
)
from .graphs import DecoratedGraph, check_rank, validate_label, validate_labels
from .group import RANK_CAP, CubeGroup
from .signedperm import Perm

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _parse_label(s: str, lineno: int) -> str:
    try:
        validate_label(s)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None
    return s


def _parse_cycles(text: str, lineno: int) -> list[tuple[str, ...]]:
    if text == "id":
        return []
    cycles, rest = [], text
    while rest:
        m = _CYCLE_RE.match(rest)
        if not m:
            raise ParseError(f"expected a cycle at {rest!r}", lineno)
        cycle = tuple(m.group(1).split())
        if len(set(cycle)) != len(cycle):
            raise ParseError(f"degenerate cycle ({' '.join(cycle)})", lineno)
        cycles.append(cycle)
        rest = rest[m.end():].lstrip()
    return cycles


def parse_decorated_graph(doc: str) -> DecoratedGraph:
    """Parse a decorated-graph document; round-trips with `serialize_decorated_graph`.

    One pass over the lines, so the first error in line order is raised."""
    involutions = None  # label -> its involution, the identity until its line
    defined = set()
    for lineno, raw in enumerate(doc.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if involutions is None:
            if not line.startswith("gens:"):
                raise ParseError("first line must declare generators with 'gens:'", lineno)
            labels = tuple(line[len("gens:"):].split())
            if not labels:
                raise ParseError("empty generator list", lineno)
            try:
                validate_labels(labels)
            except (ValueError, DuplicateLabelError) as exc:
                raise ParseError(str(exc), lineno) from None
            involutions = {s: {t: t for t in labels} for s in labels}
            continue
        if ":" not in line:
            raise ParseError(f"expected '<label>: <cycles>', got {line!r}", lineno)
        name, _, cycle_text = line.partition(":")
        name = name.strip()
        if name not in involutions:
            raise ParseError(f"unknown generator {name!r}", lineno)
        if name in defined:
            raise ParseError(f"generator {name!r} declared twice", lineno)
        defined.add(name)
        mapping = involutions[name]
        for cycle in _parse_cycles(cycle_text.strip(), lineno):
            if len(cycle) != 2:
                raise ParseError(f"cycles must have length exactly 2, got {cycle}", lineno)
            for x in cycle:
                if x not in involutions:
                    raise ParseError(f"unknown label {x!r} in cycle", lineno)
                if x == name:
                    raise SelfCycleError(
                        f"generator {name!r} may not appear in its own cycles", lineno
                    )
                if mapping[x] != x:
                    raise NonDisjointCyclesError(f"label {x!r} moved twice", lineno)
            u, v = cycle
            mapping[u], mapping[v] = v, u
    if involutions is None:
        raise ParseError("missing 'gens:' header")
    return DecoratedGraph(labels, involutions)


def _involution_cycles(g: DecoratedGraph, s: str) -> list[tuple[str, str]]:
    order, mapping = g._positions, g.involutions[s]
    pairs = [(u, v) for u, v in mapping.items() if order[u] < order[v]]
    return sorted(pairs, key=lambda c: order[c[0]])


def serialize_decorated_graph(g: DecoratedGraph) -> str:
    lines = ["gens: " + " ".join(g.labels)]
    for s in g.labels:
        cycles = _involution_cycles(g, s)
        if cycles:
            lines.append(f"{s}: " + "".join(f"({u} {v})" for u, v in cycles))
    return "\n".join(lines) + "\n"


def parse_perm_group(doc: str) -> tuple[tuple[str, ...], list[Perm]]:
    """Parse labeled involutive permutation generators on positive integers.

    One pass over the lines, so the first error in line order is raised; more
    than RANK_CAP generators raise RankCapExceededError before any `Perm` is built."""
    generators = {}  # label -> its 2-cycles of points
    for lineno, raw in enumerate(doc.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected '<label> = <cycles>', got {line!r}", lineno)
        name, _, cycle_text = line.partition("=")
        name = _parse_label(name.strip(), lineno)
        if name in generators:
            raise ParseError(str(DuplicateLabelError(name)), lineno)
        cycles, seen = [], set()
        for cycle in _parse_cycles(cycle_text.strip(), lineno):
            try:
                points = tuple(int(p) for p in cycle)
            except ValueError:
                raise ParseError(f"non-integer point in cycle {cycle}", lineno) from None
            if any(p < 1 for p in points):
                raise ParseError("points must be positive integers", lineno)
            if len(points) != 2:
                raise NotInvolutionError(name)
            if seen.intersection(points) or points[0] == points[1]:  # as in (1 01)
                raise NonDisjointCyclesError(f"point moved twice in {name!r}", lineno)
            seen.update(points)
            cycles.append(points)
        if not cycles:  # the identity; disjoint transpositions are an involution
            raise NotInvolutionError(name)
        generators[name] = cycles
    if not generators:
        raise ParseError("no generators declared")
    check_rank(len(generators), RANK_CAP)
    moved = sorted({p for cycles in generators.values() for c in cycles for p in c})
    number = {p: i for i, p in enumerate(moved)}
    perms = [Perm.from_cycles(len(moved), [tuple(number[p] for p in c) for c in cycles])
             for cycles in generators.values()]
    return tuple(generators), perms


def subset_name(G: CubeGroup, index: int) -> str:
    """The vertex subset of an element: the labels of its index's set bits."""
    if not 0 <= index < G.order:  # any other int's bits would name some subset
        raise IndexError(f"element index {index} is outside 0..{G.order - 1}")
    ordered = [s for k, s in enumerate(G.graph.labels) if index >> k & 1]
    if not ordered:
        return "1"
    return "".join(ordered) if all(len(s) == 1 for s in ordered) else ".".join(ordered)


def cayley_dot(G: CubeGroup) -> str:
    """Cayley graph in DOT, vertices named by their subsets, edges labeled."""
    lines = ["graph cayley {"]
    for i in range(G.order):
        lines.append(f'  v{i} [label="{subset_name(G, i)}"];')
    for u, v, label in G.cayley.edges:
        lines.append(f'  v{u} -- v{v} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_word(word) -> str:
    word = tuple(word)
    if not word:
        return "1"
    return "".join(word) if all(len(s) == 1 for s in word) else " ".join(word)

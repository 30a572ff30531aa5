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
integers in cycle notation.

In both grammars a label is any token `graphs.validate_label` accepts; a
label it rejects is a ParseError at its line.
"""

from __future__ import annotations

import re

from .errors import (
    NonDisjointCyclesError,
    NotInvolutionError,
    ParseError,
    SelfCycleError,
    UnknownLabelError,
)
from .graphs import DecoratedGraph, validate_label
from .group import CubeGroup
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
    cycles = []
    rest = text
    while rest:
        m = _CYCLE_RE.match(rest)
        if not m:
            raise ParseError(f"expected a cycle at {rest!r}", lineno)
        cycles.append(tuple(m.group(1).split()))
        rest = rest[m.end():].lstrip()
    return cycles


def parse_decorated_graph(doc: str) -> DecoratedGraph:
    """Parse a decorated-graph document; round-trips with `serialize_decorated_graph`."""
    labels = None
    inv_lines = []
    for lineno, raw in enumerate(doc.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if labels is None:
            if not line.startswith("gens:"):
                raise ParseError("first line must declare generators with 'gens:'", lineno)
            labels = tuple(line[len("gens:"):].split())
            if not labels:
                raise ParseError("empty generator list", lineno)
            seen = set()
            for s in labels:
                _parse_label(s, lineno)
                if s in seen:
                    raise ParseError(f"duplicate generator label {s!r}", lineno)
                seen.add(s)
            continue
        if ":" not in line:
            raise ParseError(f"expected '<label>: <cycles>', got {line!r}", lineno)
        name, _, cycle_text = line.partition(":")
        inv_lines.append((lineno, name.strip(), cycle_text.strip()))
    if labels is None:
        raise ParseError("missing 'gens:' header")

    involutions = {s: {t: t for t in labels} for s in labels}
    defined = set()
    for lineno, name, cycle_text in inv_lines:
        if name not in labels:
            raise ParseError(f"unknown generator {name!r}", lineno)
        if name in defined:
            raise ParseError(f"generator {name!r} declared twice", lineno)
        defined.add(name)
        mapping = {t: t for t in labels}
        moved = set()
        for cycle in _parse_cycles(cycle_text, lineno):
            if len(cycle) != 2:
                raise ParseError(f"cycles must have length exactly 2, got {cycle}", lineno)
            u, v = cycle
            for x in (u, v):
                if x not in labels:
                    raise ParseError(f"unknown label {x!r} in cycle", lineno)
                if x == name:
                    raise SelfCycleError(
                        f"generator {name!r} may not appear in its own cycles", lineno
                    )
                if x in moved:
                    raise NonDisjointCyclesError(f"label {x!r} moved twice", lineno)
                moved.add(x)
            if u == v:
                raise ParseError(f"degenerate cycle ({u} {v})", lineno)
            mapping[u], mapping[v] = v, u
        involutions[name] = mapping
    return DecoratedGraph(labels, involutions)


def _involution_cycles(labels, mapping) -> list[tuple[str, str]]:
    order = {s: i for i, s in enumerate(labels)}
    pairs = [(u, v) for u, v in mapping.items() if order[u] < order[v]]
    return sorted(pairs, key=lambda c: order[c[0]])


def serialize_decorated_graph(g: DecoratedGraph) -> str:
    lines = ["gens: " + " ".join(g.labels)]
    for s in g.labels:
        cycles = _involution_cycles(g.labels, g.involutions[s])
        if cycles:
            lines.append(f"{s}: " + "".join(f"({u} {v})" for u, v in cycles))
    return "\n".join(lines) + "\n"


def parse_perm_group(doc: str) -> tuple[tuple[str, ...], list[Perm]]:
    """Parse labeled involutive permutation generators on positive integers."""
    entries = []
    for lineno, raw in enumerate(doc.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected '<label> = <cycles>', got {line!r}", lineno)
        name, _, cycle_text = line.partition("=")
        name = _parse_label(name.strip(), lineno)
        cycles = []
        for cycle in _parse_cycles(cycle_text.strip(), lineno):
            try:
                points = tuple(int(p) for p in cycle)
            except ValueError:
                raise ParseError(f"non-integer point in cycle {cycle}", lineno) from None
            if any(p < 1 for p in points):
                raise ParseError("points must be positive integers", lineno)
            cycles.append(points)
        entries.append((lineno, name, cycles))
    if not entries:
        raise ParseError("no generators declared")
    labels = []
    for lineno, name, _ in entries:
        if name in labels:
            raise ParseError(f"duplicate generator label {name!r}", lineno)
        labels.append(name)
    degree = max((p for _, _, cycles in entries for c in cycles for p in c), default=1)
    perms = []
    for lineno, name, cycles in entries:
        seen = set()
        for c in cycles:
            if len(c) != 2:
                raise NotInvolutionError(name)
            if set(c) & seen:
                raise NonDisjointCyclesError(f"point moved twice in {name!r}", lineno)
            seen |= set(c)
        perm = Perm.from_cycles(degree, [tuple(p - 1 for p in c) for c in cycles])
        if perm.is_identity or not (perm * perm).is_identity:
            raise NotInvolutionError(name)
        perms.append(perm)
    return tuple(labels), perms


def subset_name(G: CubeGroup, index: int) -> str:
    subset = G.subsets[index]
    if not subset:
        return "1"
    ordered = [s for s in G.graph.labels if s in subset]
    return "".join(ordered) if all(len(s) == 1 for s in ordered) else ".".join(ordered)


def cayley_dot(G: CubeGroup) -> str:
    """Cayley graph in DOT, vertices named by their subsets, edges labeled."""
    lines = ["graph cayley {"]
    for e in G.elements:
        lines.append(f'  v{e.index} [label="{subset_name(G, e.index)}"];')
    for u, v, label in G.cayley.edges:
        lines.append(f'  v{u} -- v{v} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_word(word) -> str:
    word = tuple(word)
    if not word:
        return "1"
    return "".join(word) if all(len(s) == 1 for s in word) else " ".join(word)

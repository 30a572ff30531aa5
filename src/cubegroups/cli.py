"""Command-line surface.

Words on the command line are written left to right in application order: in
``--word "b a c"`` the letter b acts first.  (In the usual right-action
product notation that word is the product c*a*b.)

Exit codes: 0 success / true, 1 domain-false (e.g. not admissible),
2 usage or parse error, 3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import decompose, formats, graphs, rep
from .sweep import sweep as run_sweep
from .errors import (
    CubeGroupError,
    InternalConsistencyError,
    NotACubeGroupError,
    NotADecompositionError,
    ParseError,
)
from .group import decorated_graph_from_group, generate_group

EXIT_OK = 0
EXIT_DOMAIN_FALSE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _read(path: str) -> str:
    """The file's text; bytes that are not UTF-8 are a ParseError at their line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + ".").splitlines())  # as the parsers count
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8 text", line) from None


def _load_graph(path: str) -> graphs.DecoratedGraph:
    return formats.parse_decorated_graph(_read(path))


def _parse_word(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def cmd_check(args) -> int:
    g = _load_graph(args.file)
    report = graphs.is_admissible(g)
    if args.json:
        payload = {
            "format_version": 1,
            "admissible": report.admissible,
            "failures": [
                {"seed": list(f.seed), "kind": f.kind, "witness": f.witness}
                for f in report.failures
            ],
        }
        print(json.dumps(payload, indent=2))
    elif report.admissible:
        print("admissible")
    else:
        print("not admissible")
        for f in report.failures:
            witness = f" witness={f.witness}" if f.witness else ""
            print(f"  seed ({f.seed[0]}, {f.seed[1]}): {f.kind}{witness}")
    return EXIT_OK if report.admissible else EXIT_DOMAIN_FALSE


def cmd_group(args) -> int:
    g = _load_graph(args.file)
    G = generate_group(g)
    print(f"rank {G.rank}")
    print(f"order {G.order} = 2^{G.rank}")
    print("cayley graph: hypercube check passed")
    return EXIT_OK


def cmd_cayley(args) -> int:
    g = _load_graph(args.file)
    G = generate_group(g)
    dot = formats.cayley_dot(G)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
        print(f"wrote {G.rank * G.order // 2} edges on {G.order} vertices to {args.dot}")
    else:
        print(dot, end="")
    return EXIT_OK


def cmd_orbits(args) -> int:
    g = _load_graph(args.file)
    if args.tree:
        tree = decompose.orbit_tree(g)
        if args.json:
            print(json.dumps({"format_version": 1, "tree": _tree_dict(g, tree)}, indent=2))
        else:
            _print_tree(g, tree)
    else:
        part = decompose.orbits(g)
        blocks = [sorted(b, key=g.labels.index) for b in part.blocks]
        if args.json:
            print(json.dumps({"format_version": 1, "orbits": blocks}, indent=2))
        else:
            for b in blocks:
                print("{" + " ".join(b) + "}")
    return EXIT_OK


def _tree_dict(g, node):
    return {
        "labels": sorted(node.labels, key=g.labels.index),
        "children": [_tree_dict(g, c) for c in node.children],
    }


def _print_tree(g, node, depth=0):
    print("  " * depth + "{" + " ".join(sorted(node.labels, key=g.labels.index)) + "}")
    for c in node.children:
        _print_tree(g, c, depth + 1)


def _normal_form(g: graphs.DecoratedGraph):
    """g's group, and the normal form that certifies its orbit-tree ordering."""
    G = generate_group(g)
    return G, decompose.normal_form(G, decompose.decomposition_ordering(decompose.orbit_tree(g)))


def cmd_decompose(args) -> int:
    _, nf = _normal_form(_load_graph(args.file))
    print("ordering: " + " ".join(nf.ordering))
    print("G = " + "".join(f"<{s}>" for s in nf.ordering))
    return EXIT_OK


def cmd_normal_form(args) -> int:
    G, nf = _normal_form(_load_graph(args.file))
    elem = G.element_for_word(_parse_word(args.word))
    print("ordering: " + " ".join(nf.ordering))
    print("bits: " + "".join(str(b) for b in nf.bits_for(elem)))
    print("element: " + formats.format_word(nf.word_for(elem)))
    return EXIT_OK


def cmd_rep(args) -> int:
    m = rep.rho_via_formula(_load_graph(args.file), _parse_word(args.word))
    if args.matrix:
        for row in m.as_matrix():
            print(" ".join(f"{x:2d}" for x in row))
    else:
        print(m)
    return EXIT_OK


def cmd_from_group(args) -> int:
    labels, perms = formats.parse_perm_group(_read(args.file))
    try:
        g = decorated_graph_from_group(perms, labels)
    except NotACubeGroupError as exc:
        print(f"NotACubeGroup: {exc.reason}")
        return EXIT_DOMAIN_FALSE
    print(formats.serialize_decorated_graph(g), end="")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    report = run_sweep(args.rank)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(f"rank {report.rank}: {report.total_graphs} graphs, "
              f"{report.admissible_count} admissible, {report.verified_count} verified")
        for index, check, detail in report.failures:
            print(f"  FAIL graph {index}: {check}: {detail}")
    return EXIT_OK if report.ok else EXIT_DOMAIN_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubegroups",
        description="Cube groups from decorated graphs of involutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="admissibility report for a decorated graph")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("group", help="generate the group and report its order")
    p.add_argument("file")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("cayley", help="export the labeled Cayley graph as DOT")
    p.add_argument("file")
    p.add_argument("--dot", metavar="PATH", help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_cayley)

    p = sub.add_parser("orbits", help="orbit partition or orbit tree of the label action")
    p.add_argument("file")
    p.add_argument("--tree", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("decompose", help="product decomposition ordering")
    p.add_argument("file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("normal-form", help="bit vector and canonical word of an element")
    p.add_argument("file")
    p.add_argument("--word", required=True, help="letters in application order, space-separated")
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser("rep", help="signed permutation of a word")
    p.add_argument("file")
    p.add_argument("--word", required=True)
    p.add_argument("--matrix", action="store_true", help="print dense matrix rows")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("from-group", help="extract a decorated graph from permutation generators")
    p.add_argument("file")
    p.set_defaults(func=cmd_from_group)

    p = sub.add_parser("enumerate", help="exhaustive verification sweep at small rank")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error[parse]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalConsistencyError as exc:
        print(f"error[internal]: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except NotADecompositionError as exc:
        print(f"error[not-a-decomposition]: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_FALSE
    except CubeGroupError as exc:
        category = type(exc).__name__.removesuffix("Error")
        print(f"error[{category}]: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_FALSE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

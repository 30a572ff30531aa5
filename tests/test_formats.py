import re
import string

import pytest
from hypothesis import given, strategies as st

from cubegroups.errors import (
    NonDisjointCyclesError,
    NotInvolutionError,
    ParseError,
    SelfCycleError,
)
from cubegroups.formats import (
    cayley_dot,
    format_word,
    parse_decorated_graph,
    parse_perm_group,
    serialize_decorated_graph,
    subset_name,
)
from cubegroups.graphs import admissible_quick
from cubegroups.group import generate_group
from cubegroups.sweep import enumerate_decorated_graphs

from conftest import graph_from

# three distinct printable labels, as a D4-shaped graph: j_x = (y z)
label_triples = st.lists(st.text(string.printable, max_size=3), min_size=3, max_size=3,
                         unique=True)


def d4_shaped(x, y, z):
    return graph_from((x, y, z), {x: [(y, z)]})


_DOT_LINE = re.compile(r'  v\d+ (-- v\d+ )?\[label="[^"\\]*"\];')


class TestParseDecoratedGraph:
    def test_d4_file(self, d4):
        assert parse_decorated_graph("gens: a b c\na: (b c)\n") == d4

    def test_rank1(self, rank1):
        assert parse_decorated_graph("gens: a\n") == rank1

    def test_comments_and_blank_lines(self, d4):
        doc = "# dihedral fixture\n\ngens: a b c  # labels\na: (b c)  # swap\n"
        assert parse_decorated_graph(doc) == d4

    def test_id_literal(self, klein):
        assert parse_decorated_graph("gens: a b\na: id\nb: id\n") == klein

    def test_self_cycle_rejected(self):
        with pytest.raises(SelfCycleError):
            parse_decorated_graph("gens: a b\na: (a b)\n")

    def test_non_disjoint_cycles_rejected(self):
        with pytest.raises(NonDisjointCyclesError):
            parse_decorated_graph("gens: a b c d e\na: (b c)(c d)\n")

    def test_unknown_label_rejected(self):
        with pytest.raises(ParseError):
            parse_decorated_graph("gens: a b c\na: (b z)\n")

    def test_duplicate_label_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_decorated_graph("# rank 2\ngens: a a\n")
        assert exc.value.line == 2
        assert "'a'" in str(exc.value)

    def test_missing_header(self):
        with pytest.raises(ParseError) as exc:
            parse_decorated_graph("a: (b c)\n")
        assert exc.value.line == 1

    def test_long_cycle_rejected(self):
        with pytest.raises(ParseError):
            parse_decorated_graph("gens: a b c d\na: (b c d)\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_decorated_graph("gens: a b c\n\nnot a line\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("label", ["(a", "a)", "a:", 'a"', "a\\"])
    def test_bad_label_rejected_with_line(self, label):
        with pytest.raises(ParseError, match="bad label") as exc:
            parse_decorated_graph(f"# header follows\ngens: {label} b\n")
        assert exc.value.line == 2


class TestRoundTrip:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_parse_after_serialize_is_identity(self, rank):
        for g in enumerate_decorated_graphs(rank):
            assert parse_decorated_graph(serialize_decorated_graph(g)) == g

    def test_comment_char_label_rejected(self):
        # "a#" used to serialise to "gens: a# b", which parses back as the
        # different graph on labels ("a",)
        with pytest.raises(ValueError, match="bad label"):
            graph_from(("a#", "b"))

    @given(label_triples)
    def test_labels_are_rejected_or_round_trip(self, labels):
        try:
            g = d4_shaped(*labels)
        except ValueError:
            return
        assert parse_decorated_graph(serialize_decorated_graph(g)) == g

    def test_serialize_after_parse_is_canonical(self):
        messy = "gens: a b c d e\n# comment\ne: (b d)(a c)\na: (b d)\n"
        canonical = serialize_decorated_graph(parse_decorated_graph(messy))
        assert canonical == "gens: a b c d e\na: (b d)\ne: (a c)(b d)\n"
        assert serialize_decorated_graph(parse_decorated_graph(canonical)) == canonical


class TestParsePermGroup:
    def test_d4_generators(self):
        labels, perms = parse_perm_group("a = (1 3)\nb = (1 2)(3 4)\nc = (1 4)(2 3)\n")
        assert labels == ("a", "b", "c")
        assert perms[0].images == (2, 1, 0, 3)
        assert all((p * p).is_identity for p in perms)

    def test_rejects_non_involution(self):
        with pytest.raises(NotInvolutionError):
            parse_perm_group("a = (1 2 3)\n")

    def test_rejects_identity_generator(self):
        with pytest.raises(NotInvolutionError):
            parse_perm_group("a = (1 2)\nb =\n")

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ParseError) as exc:
            parse_perm_group("a = (1 2)\nb = (1 3)\n\na = (3 4)\n")
        assert exc.value.line == 4
        assert "'a'" in str(exc.value)

    def test_rejects_empty_document(self):
        with pytest.raises(ParseError):
            parse_perm_group("# nothing\n")

    @pytest.mark.parametrize("name", ["a(", "a)", "a:", 'a"', "a\\", "a b"])
    def test_bad_label_rejected_with_line(self, name):
        with pytest.raises(ParseError, match="bad label") as exc:
            parse_perm_group(f"a = (1 2)\n{name} = (3 4)\n")
        assert exc.value.line == 2


class TestDotExport:
    def test_vertex_and_edge_counts(self, d4):
        G = generate_group(d4)
        dot = cayley_dot(G)
        n = G.rank
        assert dot.count("[label=") == 2 ** n + n * 2 ** (n - 1)
        assert dot.count(" -- ") == n * 2 ** (n - 1)

    def test_identity_vertex_named_1(self, d4):
        G = generate_group(d4)
        assert subset_name(G, 0) == "1"
        assert 'v0 [label="1"];' in cayley_dot(G)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_counts_over_population(self, rank):
        for g in enumerate_decorated_graphs(rank):
            if not admissible_quick(g):
                continue
            G = generate_group(g)
            assert len(G.cayley.edges) == rank * 2 ** (rank - 1)
            assert len(G.cayley.vertices) == 2 ** rank

    @given(label_triples)
    def test_quoted_strings_hold_no_quote_or_escape(self, labels):
        try:
            g = d4_shaped(*labels)
        except ValueError:
            return
        lines = cayley_dot(generate_group(g)).splitlines()
        assert lines[0] == "graph cayley {" and lines[-1] == "}"
        for line in lines[1:-1]:
            assert _DOT_LINE.fullmatch(line), line


def test_format_word():
    assert format_word(()) == "1"
    assert format_word(("a", "b")) == "ab"
    assert format_word(("s1", "s2")) == "s1 s2"


@given(st.lists(st.sampled_from("abc"), max_size=6))
def test_format_word_never_empty(letters):
    assert format_word(tuple(letters))

import re
import string
from unittest.mock import Mock

import pytest
from hypothesis import given, strategies as st

from cubegroups import formats
from cubegroups.errors import (
    NonDisjointCyclesError,
    NotInvolutionError,
    ParseError,
    RankCapExceededError,
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
from cubegroups.group import RANK_CAP, generate_group
from cubegroups.sweep import enumerate_decorated_graphs

from conftest import graph_from

# RANK_CAP + 1 one-transposition generators on disjoint points
OVERSIZED_PERMS = "".join(f"g{k} = ({2 * k + 1} {2 * k + 2})\n" for k in range(RANK_CAP + 1))

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
        assert "duplicate generator label: 'a'" in str(exc.value)

    def test_bad_header_label_rejected_at_its_line(self):
        with pytest.raises(ParseError) as exc:
            parse_decorated_graph("\ngens: a b)\n")
        assert exc.value.line == 2
        assert "bad label 'b)'" in str(exc.value)

    def test_missing_header(self):
        with pytest.raises(ParseError) as exc:
            parse_decorated_graph("a: (b c)\n")
        assert exc.value.line == 1

    def test_long_cycle_rejected(self):
        with pytest.raises(ParseError):
            parse_decorated_graph("gens: a b c d\na: (b c d)\n")

    @pytest.mark.parametrize("cycles", ["(b b)", "(c d)(b b)", "(b c b)"])
    def test_degenerate_cycle_rejected(self, cycles):
        with pytest.raises(ParseError, match=r"degenerate cycle \(b( c)? b\)") as exc:
            parse_decorated_graph(f"gens: a b c d\na: {cycles}\n")
        assert exc.value.line == 2

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_decorated_graph("gens: a b c\n\nnot a line\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("label", ["(a", "a)", "a:", 'a"', "a\\"])
    def test_bad_label_rejected_with_line(self, label):
        with pytest.raises(ParseError, match="bad label") as exc:
            parse_decorated_graph(f"# header follows\ngens: {label} b\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("doc, message, line", [
        ("gens: a b\na: (b a\n", "expected a cycle at '(b a' (line 2)", 2),
        ("gens:\n", "empty generator list (line 1)", 1),
        ("# only a comment\n", "missing 'gens:' header", None),
        ("gens: a b\nc: (a b)\n", "unknown generator 'c' (line 2)", 2),
        ("gens: a b c\na: (b c)\nb: (a z)\n", "unknown label 'z' in cycle (line 3)", 3),
        ("gens: a b c\na: (b c)\na: id\n", "generator 'a' declared twice (line 3)", 3),
    ])
    def test_rejection_message_and_line(self, doc, message, line):
        with pytest.raises(ParseError) as exc:
            parse_decorated_graph(doc)
        assert type(exc.value) is ParseError
        assert str(exc.value) == message
        assert exc.value.line == line


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

    def test_numbers_only_the_moved_points(self):
        # 1, 3, 10**6 and 10**6 + 1 are numbered 0..3 in increasing order
        m = 10 ** 6
        _, perms = parse_perm_group(f"a = (1 {m})\nb = (1 3)({m} {m + 1})\n")
        assert perms[0].images == (2, 1, 0, 3)
        assert perms[1].images == (1, 0, 3, 2)

    def test_rejects_non_involution(self):
        with pytest.raises(NotInvolutionError):
            parse_perm_group("a = (1 2 3)\n")

    def test_rejects_a_cycle_that_repeats_a_point(self):
        # read as (2 3) before, dropping the fixed point's cycle
        with pytest.raises(ParseError, match=r"degenerate cycle \(1 1\) \(line 2\)"):
            parse_perm_group("b = (1 2)\na = (1 1)(2 3)\n")
        # one point written two ways is caught once the points are numbers
        with pytest.raises(NonDisjointCyclesError, match="point moved twice in 'a'"):
            parse_perm_group("a = (1 01)(2 3)\n")

    def test_rejects_identity_generator(self):
        for doc in ("a = (1 2)\nb =\n", "a = (1 2)\nb = id\n"):
            with pytest.raises(NotInvolutionError):
                parse_perm_group(doc)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ParseError) as exc:
            parse_perm_group("a = (1 2)\nb = (1 3)\n\na = (3 4)\n")
        assert exc.value.line == 4
        assert str(exc.value) == "duplicate generator label: 'a' (line 4)"

    def test_oversized_generator_list_builds_no_perm(self, monkeypatch):
        perm = Mock()  # records every call, on Perm or on its attributes
        monkeypatch.setattr(formats, "Perm", perm)
        with pytest.raises(RankCapExceededError) as exc:
            parse_perm_group(OVERSIZED_PERMS)
        assert str(exc.value) == f"rank {RANK_CAP + 1} exceeds cap {RANK_CAP}"
        assert perm.mock_calls == []

    def test_generator_list_at_the_cap_is_read(self):
        doc = OVERSIZED_PERMS.split("\n", 1)[1]
        labels, perms = parse_perm_group(doc)
        assert len(labels) == len(perms) == RANK_CAP
        assert all(len(p.images) == 2 * RANK_CAP for p in perms)

    def test_rejects_empty_document(self):
        with pytest.raises(ParseError):
            parse_perm_group("# nothing\n")

    @pytest.mark.parametrize("name", ["a(", "a)", "a:", 'a"', "a\\", "a b"])
    def test_bad_label_rejected_with_line(self, name):
        with pytest.raises(ParseError, match="bad label") as exc:
            parse_perm_group(f"a = (1 2)\n{name} = (3 4)\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("doc, message", [
        ("a (1 2)\n", "expected '<label> = <cycles>', got 'a (1 2)' (line 1)"),
        ("a = (1 x)\n", "non-integer point in cycle ('1', 'x') (line 1)"),
        ("a = (0 1)\n", "points must be positive integers (line 1)"),
    ])
    def test_rejection_message_and_line(self, doc, message):
        with pytest.raises(ParseError) as exc:
            parse_perm_group(doc)
        assert type(exc.value) is ParseError
        assert str(exc.value) == message
        assert exc.value.line == 1


class TestFirstErrorInLineOrder:
    """Each reader makes one pass over the lines, so of two errors the one
    on the earlier line is raised."""

    def test_perm_group(self):
        # the non-involution on line 1 comes before the missing '=' on line 2
        with pytest.raises(NotInvolutionError, match="generator 'a'"):
            parse_perm_group("a = (1 2 3)\nb (1 2)\n")

    def test_decorated_graph(self):
        # the unknown generator on line 2 comes before the bad line 4
        with pytest.raises(ParseError) as exc:
            parse_decorated_graph("gens: a b c\nz: (a b)\n\nnot a line\n")
        assert str(exc.value) == "unknown generator 'z' (line 2)"


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

    @pytest.mark.parametrize("index", [-1, 8, -9])
    def test_subset_name_outside_the_group(self, d4, index):
        G = generate_group(d4)  # 8 read as bits names the identity, -1 names "abc"
        with pytest.raises(IndexError):
            subset_name(G, index)

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

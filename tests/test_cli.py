import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cubegroups import cli, decompose, group
from cubegroups.cli import main
from cubegroups.errors import InternalConsistencyError, NotADecompositionError

# the package re-exports the function `sweep` under the module's name
sweep_module = importlib.import_module("cubegroups.sweep")

D4_DOC = "gens: a b c\na: (b c)\n"
RANK5_DOC = (
    "gens: a b c d e\n"
    "a: (b d)\nb: (a c)\nc: (b d)\nd: (a c)\ne: (a c)(b d)\n"
)
BAD_DOC = "gens: a b c\na: (b c)\nb: (a c)\n"
D4_PERMS = "a = (1 3)\nb = (1 2)(3 4)\nc = (1 4)(2 3)\n"


@pytest.fixture
def d4_file(tmp_path):
    path = tmp_path / "d4.dg"
    path.write_text(D4_DOC)
    return str(path)


@pytest.fixture
def rank5_file(tmp_path):
    path = tmp_path / "rank5.dg"
    path.write_text(RANK5_DOC)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.dg"
    path.write_text(BAD_DOC)
    return str(path)


class TestCheck:
    def test_admissible_exits_zero(self, d4_file, capsys):
        assert main(["check", d4_file]) == 0
        assert "admissible" in capsys.readouterr().out

    def test_rank5_admissible(self, rank5_file):
        assert main(["check", rank5_file]) == 0

    def test_not_admissible_exits_one(self, bad_file, capsys):
        assert main(["check", bad_file]) == 1
        out = capsys.readouterr().out
        assert "NotFourPeriodic" in out

    def test_json_report(self, bad_file, capsys):
        assert main(["check", "--json", bad_file]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["format_version"] == 1
        assert payload["admissible"] is False
        assert payload["failures"]

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.dg")]) == 2

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.dg"
        path.write_text("gens: a b\na: (a b)\n")
        assert main(["check", str(path)]) == 2
        assert "error[parse]" in capsys.readouterr().err

    def test_duplicate_label_exits_two(self, tmp_path, capsys):
        path = tmp_path / "dup.dg"
        path.write_text("gens: a a\n")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error[parse]" in err and "line 1" in err

    def test_empty_generator_list_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty.dg"
        path.write_text("gens:\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "error[parse]: empty generator list (line 1)\n"


class TestNotUtf8:
    """A file that is not UTF-8 text is a parse error at the line of its
    first bad byte, for both grammars and every command that reads one."""

    @pytest.mark.parametrize("command", [
        ["check"], ["group"], ["cayley"], ["orbits"], ["orbits", "--tree"], ["decompose"],
        ["normal-form", "--word", "a"], ["rep", "--word", "a"],
    ])
    def test_decorated_graph(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.dg"
        path.write_bytes(b"gens: a b c\r\na: (b c) # \xe9\n")
        assert main([command[0], str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error[parse]: byte 0xe9 is not UTF-8 text (line 2)\n"

    def test_perm_group(self, tmp_path, capsys):
        path = tmp_path / "latin1.pg"
        path.write_bytes(D4_PERMS.encode() + b"d = (5 6)\xff\n")
        assert main(["from-group", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error[parse]: byte 0xff is not UTF-8 text (line 4)\n"

    def test_utf8_beyond_ascii_is_read(self, tmp_path, capsys):
        path = tmp_path / "utf8.pg"
        path.write_bytes(D4_PERMS.encode() + "# é\n".encode())
        assert main(["from-group", str(path)]) == 0
        assert capsys.readouterr().out == "gens: a b c\na: (b c)\n"


class TestGroup:
    def test_d4(self, d4_file, capsys):
        assert main(["group", d4_file]) == 0
        out = capsys.readouterr().out
        assert "order 8 = 2^3" in out

    def test_internal_error_exits_three(self, d4_file, capsys, monkeypatch):
        def broken(g):
            raise InternalConsistencyError("an admissible graph did not generate a cube group")

        monkeypatch.setattr(cli, "generate_group", broken)
        assert main(["group", d4_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error[internal]: an admissible graph did not generate a cube group\n")

    def test_not_admissible_exits_one(self, bad_file, capsys):
        assert main(["group", bad_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error[NotAdmissible]: decorated graph is not admissible"
                                " (failure kinds: NotFourPeriodic)\n")

    def test_rank5(self, rank5_file, capsys):
        assert main(["group", rank5_file]) == 0
        assert "order 32 = 2^5" in capsys.readouterr().out


class TestCayley:
    def test_dot_file(self, d4_file, tmp_path, capsys):
        out_path = tmp_path / "cayley.dot"
        assert main(["cayley", d4_file, "--dot", str(out_path)]) == 0
        dot = out_path.read_text()
        assert dot.startswith("graph cayley {")
        assert dot.count(" -- ") == 12  # 3 * 2^2 edges
        assert capsys.readouterr().out == f"wrote 12 edges on 8 vertices to {out_path}\n"

    def test_dot_file_builds_the_edge_list_once(self, d4_file, tmp_path, monkeypatch):
        builds = []
        cayley = group.CubeGroup.cayley
        monkeypatch.setattr(group.CubeGroup, "cayley",
                            property(lambda G: builds.append(1) or cayley.__get__(G)))
        assert main(["cayley", d4_file, "--dot", str(tmp_path / "cayley.dot")]) == 0
        assert len(builds) == 1

    def test_stdout(self, d4_file, capsys):
        assert main(["cayley", d4_file]) == 0
        assert 'v0 [label="1"];' in capsys.readouterr().out


class TestOrbits:
    def test_partition(self, d4_file, capsys):
        assert main(["orbits", d4_file]) == 0
        assert capsys.readouterr().out == "{a}\n{b c}\n"

    def test_tree(self, d4_file, capsys):
        assert main(["orbits", d4_file, "--tree"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "{a b c}"
        assert "  {b c}" in out

    def test_json(self, d4_file, capsys):
        assert main(["orbits", d4_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["orbits"] == [["a"], ["b", "c"]]

    def test_tree_json(self, d4_file, capsys):
        assert main(["orbits", d4_file, "--tree", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)

        def leaf(s):
            return {"labels": [s], "children": []}

        assert payload == {"format_version": 1, "tree": {
            "labels": ["a", "b", "c"],
            "children": [leaf("a"), {"labels": ["b", "c"], "children": [leaf("b"), leaf("c")]}],
        }}


class TestDecompose:
    def test_d4(self, d4_file, capsys):
        assert main(["decompose", d4_file]) == 0
        out = capsys.readouterr().out
        assert "ordering: a b c" in out
        assert "G = <a><b><c>" in out

    def test_not_a_decomposition_exits_one(self, d4_file, capsys, monkeypatch):
        def collide(G, ordering):
            raise NotADecompositionError(ordering, ((0, 0, 1), (1, 0, 0)))

        monkeypatch.setattr(decompose, "normal_form", collide)
        assert main(["decompose", d4_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error[not-a-decomposition]: ordering ['a', 'b', 'c'] is not a product"
            " decomposition; bit vectors (0, 0, 1) and (1, 0, 0) give the same element\n")


class TestNormalForm:
    def test_bac_is_a(self, d4_file, capsys):
        assert main(["normal-form", d4_file, "--word", "b a c"]) == 0
        out = capsys.readouterr().out
        assert "bits: 100" in out
        assert "element: a" in out

    def test_empty_word(self, d4_file, capsys):
        assert main(["normal-form", d4_file, "--word", ""]) == 0
        assert "bits: 000" in capsys.readouterr().out


class TestRep:
    def test_matrix_rows(self, d4_file, capsys):
        assert main(["rep", d4_file, "--word", "a", "--matrix"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert rows == [["-1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]]

    def test_compact(self, d4_file, capsys):
        assert main(["rep", d4_file, "--word", "a b"]) == 0
        assert "->" in capsys.readouterr().out


class TestFromGroup:
    def test_d4_permutations(self, tmp_path, capsys):
        path = tmp_path / "d4.pg"
        path.write_text(D4_PERMS)
        assert main(["from-group", str(path)]) == 0
        assert capsys.readouterr().out == "gens: a b c\na: (b c)\n"

    def test_large_points_give_the_same_graph(self, tmp_path, capsys):
        # D4_PERMS with points 1, 2, 3, 4 renamed 1, 3, 10**6, 10**6 + 1
        m = 10 ** 6
        path = tmp_path / "d4-large.pg"
        path.write_text(f"a = (1 {m})\nb = (1 3)({m} {m + 1})\nc = (1 {m + 1})(3 {m})\n")
        assert main(["from-group", str(path)]) == 0
        assert capsys.readouterr().out == "gens: a b c\na: (b c)\n"

    def test_bad_label_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.pg"
        path.write_text("a = (1 2)\nb( = (3 4)\n")
        assert main(["from-group", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_degenerate_cycle_exits_two(self, tmp_path, capsys):
        path = tmp_path / "degenerate.pg"
        path.write_text("a = (1 1)(2 3)\n")
        assert main(["from-group", str(path)]) == 2
        assert "error[parse]: degenerate cycle (1 1) (line 1)" in capsys.readouterr().err

    def test_duplicate_label_exits_two(self, tmp_path, capsys):
        path = tmp_path / "dup.pg"
        path.write_text("a = (1 2)\na = (3 4)\n")
        assert main(["from-group", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error[parse]" in err and "line 2" in err

    def test_oversized_generator_list_exits_one(self, tmp_path, capsys):
        path = tmp_path / "rank21.pg"
        path.write_text("".join(f"g{k} = ({2 * k + 1} {2 * k + 2})\n" for k in range(21)))
        assert main(["from-group", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error[RankCapExceeded]: rank 21 exceeds cap 20\n"

    def test_eight_cycle_group_rejected(self, tmp_path, capsys):
        # two involutions whose product has order 4: Cayley graph is an 8-cycle
        path = tmp_path / "dih8.pg"
        path.write_text("a = (1 3)\nb = (1 2)(3 4)\n")
        assert main(["from-group", str(path)]) == 1
        assert "NotACubeGroup" in capsys.readouterr().out

    def test_order_eight_group_not_a_cube_rejected(self, tmp_path, capsys):
        # the dihedral group of order 2^3 on three involutions: not a cube
        path = tmp_path / "dih8-3.pg"
        path.write_text("a = (1 3)\nb = (1 2)(3 4)\nc = (1 3)(2 4)\n")
        assert main(["from-group", str(path)]) == 1
        assert "NotACubeGroup:" in capsys.readouterr().out

    def test_symmetric_group_rejected_past_eight_elements(self, tmp_path, capsys):
        # two reflections of the octagon and (1 2) generate S_8 (40,320
        # elements); their products of two do not pair up as a cube's do,
        # so it is rejected before any closure
        path = tmp_path / "s8.pg"
        path.write_text("a = (2 8)(3 7)(4 6)\nb = (1 2)(3 8)(4 7)(5 6)\nc = (1 2)\n")
        assert main(["from-group", str(path)]) == 1
        assert capsys.readouterr().out == (
            "NotACubeGroup: the product of 'a' and 'b' is not on the cube's second layer\n")


class TestEnumerate:
    def test_rank3(self, capsys):
        assert main(["enumerate", "--rank", "3"]) == 0
        assert "8 graphs, 4 admissible, 4 verified" in capsys.readouterr().out

    def test_failing_check_is_reported(self, capsys, monkeypatch):
        def collide(G, ordering):
            raise NotADecompositionError(ordering, ((0, 0, 0), (1, 0, 0)))

        monkeypatch.setattr(sweep_module, "normal_form", collide)
        assert main(["enumerate", "--rank", "3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rank 3: 8 graphs, 4 admissible, 0 verified"
        assert lines[1] == (
            "  FAIL graph 0: normal-form: ('a', 'b', 'c'): ordering ['a', 'b', 'c'] is not a"
            " product decomposition; bit vectors (0, 0, 0) and (1, 0, 0) give the same element")
        # every planar ordering of each admissible graph (indices 0, 1, 2 and 4) fails
        assert len(lines) == 1 + 6 + 4 + 4 + 4
        assert {line.split(":")[0] for line in lines[1:]} == {
            f"  FAIL graph {i}" for i in (0, 1, 2, 4)}

    def test_rank_cap(self, capsys):
        assert main(["enumerate", "--rank", "9"]) == 1
        assert "error[RankCapExceeded]" in capsys.readouterr().err

    def test_rank_zero(self, capsys):
        assert main(["enumerate", "--rank", "0"]) == 1
        assert "rank 0 too small; need at least 1" in capsys.readouterr().err

    def test_jobs_option_is_gone(self, capsys):
        # the sweep runs in one process; an old script passing --jobs fails loudly
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--rank", "1", "--jobs", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --jobs 2" in captured.err
        assert captured.out == ""

    def test_json(self, capsys):
        assert main(["enumerate", "--rank", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_graphs"] == 1
        assert payload["failures"] == []


def test_cli_import_loads_no_process_machinery():
    """A fresh interpreter importing the CLI pays for no process pool."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import cubegroups.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("doc, code, first", [(D4_DOC, 0, "admissible"),
                                              (BAD_DOC, 1, "not admissible")])
def test_module_run_exits_through_entrypoint(tmp_path, doc, code, first):
    """`python -m cubegroups.cli` calls `entrypoint`, which exits with main's code."""
    path = tmp_path / "graph.dg"
    path.write_text(doc)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "cubegroups.cli", "check", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code
    assert proc.stdout.splitlines()[0] == first


def test_readme_cli_block_names_every_subcommand():
    """The README's CLI block shows each subcommand the parser defines, once,
    and no other."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    shown = [line.split()[1] for line in block.splitlines() if line.startswith("cubegroups ")]
    (subparsers,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    assert sorted(shown) == sorted(subparsers.choices)

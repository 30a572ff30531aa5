import json
import os

import pytest

from cubegroups.cli import main

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


class TestGroup:
    def test_d4(self, d4_file, capsys):
        assert main(["group", d4_file]) == 0
        out = capsys.readouterr().out
        assert "order 8 = 2^3" in out

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


class TestDecompose:
    def test_d4(self, d4_file, capsys):
        assert main(["decompose", d4_file]) == 0
        out = capsys.readouterr().out
        assert "ordering: a b c" in out
        assert "G = <a><b><c>" in out


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

    def test_bad_label_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.pg"
        path.write_text("a = (1 2)\nb( = (3 4)\n")
        assert main(["from-group", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_duplicate_label_exits_two(self, tmp_path, capsys):
        path = tmp_path / "dup.pg"
        path.write_text("a = (1 2)\na = (3 4)\n")
        assert main(["from-group", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error[parse]" in err and "line 2" in err

    def test_eight_cycle_group_rejected(self, tmp_path, capsys):
        # two involutions whose product has order 4: Cayley graph is an 8-cycle
        path = tmp_path / "dih8.pg"
        path.write_text("a = (1 3)\nb = (1 2)(3 4)\n")
        assert main(["from-group", str(path)]) == 1
        assert "NotACubeGroup" in capsys.readouterr().out


class TestEnumerate:
    def test_rank3(self, capsys):
        assert main(["enumerate", "--rank", "3"]) == 0
        assert "8 graphs, 4 admissible, 4 verified" in capsys.readouterr().out

    def test_rank_cap(self, capsys):
        assert main(["enumerate", "--rank", "9"]) == 1
        assert "error[RankCapExceeded]" in capsys.readouterr().err

    def test_rank_zero(self, capsys):
        assert main(["enumerate", "--rank", "0"]) == 1
        assert "rank 0 too small; need at least 1" in capsys.readouterr().err

    def test_jobs_zero_rejected(self, capsys):
        assert main(["enumerate", "--rank", "1", "--jobs", "0"]) == 2
        captured = capsys.readouterr()
        assert "--jobs must be between 1 and" in captured.err
        assert captured.out == ""

    def test_jobs_above_cpu_count_rejected(self, monkeypatch, capsys):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert main(["enumerate", "--rank", "1", "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert "--jobs must be between 1 and 1, got 2" in captured.err
        assert captured.out == ""

    def test_json(self, capsys):
        assert main(["enumerate", "--rank", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_graphs"] == 1
        assert payload["failures"] == []

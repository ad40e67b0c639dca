"""Command-line interface: payloads and exit codes."""

import contextlib
import io
import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamlog import (LogicKind, Team, cli, parse_formula, render_formula,
                     render_team, sat)
from teamlog.cli import (
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
)
from teamlog.reductions import RandomFormulaConfig, random_formula
from teamlog.sat import SatResult, SatStatus

from conftest import (EXAMPLE_FORMULA_TEXT, EXAMPLE_TEAM_TEXT, child_env,
                      reference_lax_max)


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    payload = json.loads(out) if out.strip().startswith("{") else None
    return code, payload


class TestMc:
    def test_example_instance_satisfied(self, files, capsys):
        f = files("f.tl", EXAMPLE_FORMULA_TEXT)
        t = files("t.team", EXAMPLE_TEAM_TEXT)
        code, report = run(capsys, "mc", f, t, "--semantics", "strict")
        assert code == EXIT_OK
        assert report["result"] == {"satisfied": True}
        assert report["command"] == "mc"
        assert "timing_ms" in report

    def test_empty_team_satisfied(self, files, capsys):
        f = files("f.tl", "x & !x")
        t = files("t.team", "x\n")
        code, report = run(capsys, "mc", f, t)
        assert code == EXIT_OK
        assert report["result"]["satisfied"] is True

    def test_not_satisfied_exit_one(self, files, capsys):
        f = files("f.tl", "x")
        t = files("t.team", "x\n0\n")
        for algo in ("recursive", "bottomup"):
            code, report = run(capsys, "mc", f, t, "--algo", algo)
            assert code == EXIT_NEGATIVE
            assert report["result"]["satisfied"] is False

    def test_malformed_formula_exit_two(self, files, capsys):
        f = files("f.tl", "x &")
        t = files("t.team", "x\n0\n")
        code, _ = run(capsys, "mc", f, t)
        assert code == EXIT_USAGE

    def test_missing_file_exit_two(self, files, capsys):
        t = files("t.team", "x\n0\n")
        code, _ = run(capsys, "mc", "/nonexistent/f.tl", t)
        assert code == EXIT_USAGE

    def test_oversized_team_exit_three(self, files, capsys):
        rows = "\n".join(format(i, "05b") for i in range(17))
        f = files("f.tl", "a | b")
        t = files("t.team", "a b c d e\n" + rows + "\n")
        code, _ = run(capsys, "mc", f, t)
        assert code == EXIT_RESOURCE

    @pytest.mark.parametrize("text", [
        "(inc(x1; x2) & x3) | (!x3 & inc(x4, x5; x5, x4))",
        "(x1 & x2) | (inc(x3, x4; x5, x5) & (!x10 | inc(x9; x10)))"],
        ids=["holds", "fails"])
    def test_lax_team_past_the_cap(self, files, capsys, text):
        # 1000 of the 1024 rows over 10 variables: a lax PINC team holds
        # iff it is its own largest lax model; strict splits are refused
        vs = tuple(f"x{k}" for k in range(1, 11))
        rows = random.Random(text).sample(range(1 << 10), 1000)
        team = Team(vs, tuple(tuple(r >> 9 - k & 1 for k in range(10))
                              for r in rows))
        formula = parse_formula(text)
        want = reference_lax_max(team, formula) == frozenset(team.rows)
        f = files("f.tl", text)
        t = files("t.team", render_team(team))
        code, report = run(capsys, "mc", f, t, "--semantics", "lax")
        assert code == (EXIT_OK if want else EXIT_NEGATIVE)
        assert report["result"] == {"satisfied": want}
        code, _ = run(capsys, "mc", f, t, "--semantics", "strict")
        assert code == EXIT_RESOURCE

    def test_crash_is_internal_error_not_negative(self, files, capsys,
                                                  monkeypatch):
        # an unexpected exception must not exit 1
        def crash(*args, **kwargs):
            raise RuntimeError("engine fault")

        monkeypatch.setattr(cli, "mc", crash)
        f = files("f.tl", "x1")
        t = files("t.team", "x1\n1\n")
        code = main(["mc", f, t])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert captured.out == ""
        assert "internal error" in captured.err

    @pytest.mark.parametrize("depth", [1100, 10_000])
    def test_deep_nesting_answers(self, files, capsys, depth):
        f = files("f.tl", "(" * depth + "x1" + ")" * depth)
        t = files("t.team", "x1\n1\n")
        for algo in ("recursive", "bottomup"):
            code, report = run(capsys, "mc", f, t, "--algo", algo)
            assert code == EXIT_OK
            assert report["result"] == {"satisfied": True}


class TestDeepStructure:
    """``params``, ``graph`` and ``decomp`` on conjunction chains nested
    deeper than Python's default recursion limit."""

    @pytest.fixture(autouse=True)
    def default_recursion_limit(self):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        yield
        sys.setrecursionlimit(old)

    @pytest.mark.parametrize("text, size", [
        (" & ".join(f"=(x{i}; x{i + 1})" for i in range(1100)), 2199),
        (" & ".join(["x1", "!x2", "=(x3; x4)", "=(; x5)"] * 2500),
         9_999 + 10_000 + 2_500),
    ], ids=["1100-atom dependence chain", "10^4-atom chain"])
    def test_structure_commands_answer(self, files, capsys, text, size):
        f = files("f.tl", text)
        code, report = run(capsys, "params", f)
        assert code == EXIT_OK
        assert report["result"]["formula_size"] == size
        code, decomp = run(capsys, "decomp", f)
        assert code == EXIT_OK
        assert decomp["result"]["width"] == report["result"]["formula_tw"]
        assert main(["graph", f]) == EXIT_OK
        dot = capsys.readouterr().out
        vertices = {v for bag in decomp["result"]["bags"] for v in bag}
        assert dot.count(" [label=") == len(vertices)


class TestSat:
    def test_brute_with_witness(self, files, capsys):
        f = files("f.tl", "=(x; y)")
        code, report = run(capsys, "sat", f, "--algo", "brute")
        assert code == EXIT_OK
        assert report["result"]["status"] == "satisfiable"
        assert report["result"]["witness"]["vars"] == ["x", "y"]

    def test_splitfree_unsat_exit_one(self, files, capsys):
        f = files("f.tl", "inc(x; y) & x & !y")
        code, report = run(capsys, "sat", f, "--algo", "splitfree")
        assert code == EXIT_NEGATIVE
        assert report["result"]["status"] == "unsatisfiable"
        assert "witness" not in report["result"]

    def test_splitfree_witness_beyond_enumeration_cap(self, files, capsys):
        # the witness has 64 rows; its re-check must not hit the 16-row cap
        f = files("f.tl", "inc(x1; x2) & inc(x3; x4) & inc(x5; x6)")
        code, report = run(capsys, "sat", f, "--algo", "splitfree")
        assert code == EXIT_OK
        assert report["result"]["status"] == "satisfiable"
        assert len(report["result"]["witness"]["rows"]) == 64

    def test_lax_fixpoint_witness_beyond_enumeration_cap(self, files, capsys):
        # the witness is the largest lax model, all 32 rows; its re-check
        # has a split and must not hit the 16-row cap either
        f = files("f.tl", "(inc(x1; x2) & inc(x3; x4)) & (x5 | inc(x5; x1))")
        code, report = run(capsys, "sat", f, "--algo", "fixpoint",
                           "--semantics", "lax")
        assert code == EXIT_OK
        assert report["result"]["status"] == "satisfiable"
        assert len(report["result"]["witness"]["rows"]) == 32

    def test_strict_split_witness_within_cap(self, files, capsys):
        # The left side labels a1..a9 = 1, and each inc(ak; bk) asks for a
        # row with bk = 1: from the root row with every bk = 0 the search
        # takes one such row per atom, 10 rows in all, so the strict
        # re-check of a formula with a split stays within the 16-row cap.
        f = files("f.tl", "(" + " & ".join(
            [f"inc(a{k}; b{k})" for k in range(1, 10)]
            + [f"a{k}" for k in range(1, 10)]) + ") | B")
        code, report = run(capsys, "sat", f, "--algo", "fixpoint",
                           "--semantics", "strict")
        assert code == EXIT_OK
        assert report["result"]["status"] == "satisfiable"
        assert len(report["result"]["witness"]["rows"]) == 10

    def test_lax_witness_within_cap_is_rechecked_by_tables(
            self, files, capsys, monkeypatch):
        # within the 16-row cap the re-check builds the subteam tables, so
        # it does not depend on max_model, which built the witness
        calls = []
        mc_bottom_up = cli.mc_bottom_up

        def counted(team, *args, **kwargs):
            calls.append(len(team))
            return mc_bottom_up(team, *args, **kwargs)

        monkeypatch.setattr(cli, "mc_bottom_up", counted)
        f = files("f.tl", "x1 | inc(x1; x2)")
        code, report = run(capsys, "sat", f, "--algo", "fixpoint",
                           "--semantics", "lax")
        assert code == EXIT_OK
        assert len(report["result"]["witness"]["rows"]) == 4
        assert calls == [4]

    @pytest.mark.parametrize("argv", [
        ("brute", "strict"), ("brute", "lax"), ("fixpoint", "strict"),
        ("fixpoint", "lax"), ("singleton", "strict")])
    def test_deeply_nested_split_witness_is_rechecked(self, files, capsys,
                                                      argv):
        # x1 under 1100 nested splits: each engine finds the witness {1},
        # and its re-check must not recurse once per split
        f = files("f.tl", "(x1 | " * 1100 + "x1" + ")" * 1100)
        algo, semantics = argv
        code, report = run(capsys, "sat", f, "--algo", algo,
                           "--semantics", semantics)
        assert code == EXIT_OK
        assert report["result"]["witness"] == {"vars": ["x1"], "rows": [[1]]}

    @pytest.mark.parametrize("size", [2, 32])
    def test_failed_lax_witness_recheck_is_internal_error(
            self, files, capsys, monkeypatch, size):
        # x1 fails on half the rows: evaluate (2 rows) and max_model
        # (32 rows, beyond the cap) both reject the witness
        vs = tuple(f"x{k}" for k in range(1, size.bit_length()))
        rows = tuple(tuple(r >> (len(vs) - 1 - k) & 1 for k in range(len(vs)))
                     for r in range(size))
        wrong = SatResult(SatStatus.SATISFIABLE, Team(vs, rows))
        monkeypatch.setattr(cli, "sat_fixpoint", lambda *a, **k: wrong)
        f = files("f.tl", " & ".join(f"inc({v}; {v})" for v in vs)
                  + " & (x1 | (inc(x1; x1) & B))")
        code = main(["sat", f, "--algo", "fixpoint", "--semantics", "lax"])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert "re-check" in captured.err

    def test_failed_witness_recheck_is_internal_error(self, files, capsys,
                                                      monkeypatch):
        wrong = SatResult(SatStatus.SATISFIABLE, Team(("x",), ((0,),)))
        monkeypatch.setattr(cli, "sat_split_free", lambda formula: wrong)
        f = files("f.tl", "x")
        code = main(["sat", f, "--algo", "splitfree"])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert captured.out == ""
        assert "re-check" in captured.err

    def test_singleton_on_inclusion_logic_exit_two(self, files, capsys):
        f = files("f.tl", "inc(x; y)")
        code, _ = run(capsys, "sat", f, "--algo", "singleton")
        assert code == EXIT_USAGE

    def test_fixpoint_budget_exit_four(self, files, capsys):
        f = files("f.tl", "(inc(x; y) | inc(y; x)) | (inc(x; z) | inc(z; x))")
        code, report = run(capsys, "sat", f, "--algo", "fixpoint",
                           "--budget", "3")
        assert code == EXIT_BUDGET
        assert report["result"]["status"] == "resource_exhausted"

    def test_budget_env_override(self, files, capsys, monkeypatch):
        monkeypatch.setenv("TEAMLOG_BUDGET", "3")
        f = files("f.tl", "(inc(x; y) | inc(y; x)) | (inc(x; z) | inc(z; x))")
        code, _ = run(capsys, "sat", f, "--algo", "fixpoint")
        assert code == EXIT_BUDGET

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_bad_budget_is_usage_error(self, files, capsys, monkeypatch,
                                       value):
        f = files("f.tl", "x")
        code = main(["sat", f, "--algo", "brute", "--budget", value])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "error:" in captured.err
        monkeypatch.setenv("TEAMLOG_BUDGET", value)
        code = main(["sat", f, "--algo", "brute"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "error:" in captured.err and "TEAMLOG_BUDGET" in captured.err

    def test_brute_variable_guard(self, files, capsys):
        # the all-zero assignment satisfies this, so raising the guard
        # finds a witness on the first scanned team
        f = files("f.tl", "!a & !b & !c & !d & !e")
        code, report = run(capsys, "sat", f, "--algo", "brute")
        assert code == EXIT_BUDGET
        assert report["result"]["status"] == "resource_exhausted"
        code, report = run(capsys, "sat", f, "--algo", "brute",
                           "--max-vars", "5")
        assert code == EXIT_OK

    def test_max_vars_default_is_the_library_default(self, capsys):
        args = cli.build_parser().parse_args(["sat", "f.tl"])
        assert args.max_vars == sat.DEFAULT_BRUTE_MAX_VARS
        assert main(["sat", "--help"]) == EXIT_OK
        reach = f"(reach: {2 ** sat.DEFAULT_BRUTE_MAX_VARS} assignments)"
        assert reach in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("value", ["-1", "abc", "1.5"])
    def test_bad_max_vars_is_usage_error(self, files, capsys, value):
        f = files("f.tl", "x")
        code = main(["sat", f, "--algo", "brute", "--max-vars", value])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "--max-vars" in captured.err

    @pytest.mark.parametrize("algo", ["fixpoint", "splitfree"])
    def test_unlabelled_row_space_past_the_cap_exit_three(self, files,
                                                          capsys, algo):
        # 21 variables and no literal: 2^21 rows, past the 2^20 cap
        f = files("f.tl", " & ".join(f"inc(x{k}; x{k + 1})"
                                     for k in range(20)))
        code, report = run(capsys, "sat", f, "--algo", algo)
        assert code == EXIT_RESOURCE
        assert report is None

    def test_brute_budget_exit_four(self, files, capsys, monkeypatch):
        f = files("f.tl", "(a & !a) & (b | (c & d))")
        code, report = run(capsys, "sat", f, "--algo", "brute",
                           "--budget", "10")
        assert code == EXIT_BUDGET
        assert report["result"]["status"] == "resource_exhausted"
        monkeypatch.setenv("TEAMLOG_BUDGET", "10")
        code, _ = run(capsys, "sat", f, "--algo", "brute")
        assert code == EXIT_BUDGET
        code, _ = run(capsys, "sat", f, "--algo", "brute", "--budget", "100000")
        assert code == EXIT_NEGATIVE

    def test_singleton_budget_exit_four(self, files, capsys, monkeypatch):
        # unsatisfiable over 7 variables: 128 assignments to scan
        f = files("f.tl", "(a & !a) & (b | c) & =(d; e) & =(f, g; a)")
        code, report = run(capsys, "sat", f, "--algo", "singleton",
                           "--budget", "100")
        assert code == EXIT_BUDGET
        assert report["result"]["status"] == "resource_exhausted"
        monkeypatch.setenv("TEAMLOG_BUDGET", "100")
        code, _ = run(capsys, "sat", f, "--algo", "singleton")
        assert code == EXIT_BUDGET
        code, _ = run(capsys, "sat", f, "--algo", "singleton", "--budget", "128")
        assert code == EXIT_NEGATIVE


class TestParams:
    def test_example_formula(self, files, capsys):
        f = files("f.tl", EXAMPLE_FORMULA_TEXT)
        code, report = run(capsys, "params", f)
        assert code == EXIT_OK
        r = report["result"]
        assert r["num_splits"] == 2
        assert r["num_variables"] == 4
        assert r["arity"] == 1
        assert "teamsize" not in r

    def test_with_team_and_exact(self, files, capsys):
        f = files("f.tl", EXAMPLE_FORMULA_TEXT)
        t = files("t.team", EXAMPLE_TEAM_TEXT)
        code, report = run(capsys, "params", f, t, "--exact-tw")
        r = report["result"]
        assert r["teamsize"] == 2
        assert r["formula_tw"] == 2
        assert r["formula_tw_exact"] is True

    def test_verum(self, files, capsys):
        f = files("f.tl", "T")
        code, report = run(capsys, "params", f)
        assert code == EXIT_OK
        assert report["result"]["formula_size"] == 1


class TestGraphAndDecomp:
    def test_dot_export(self, files, capsys):
        f = files("f.tl", EXAMPLE_FORMULA_TEXT)
        code = main(["graph", f])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.startswith("graph gaifman {")
        assert out.count("[label=") == 10

    def test_graph_has_no_format_option(self, files, capsys):
        # DOT is the only output; the former one-choice flag is gone
        f = files("f.tl", EXAMPLE_FORMULA_TEXT)
        assert main(["graph", f, "--format", "dot"]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_decomp_validates_shape(self, files, capsys):
        f = files("f.tl", EXAMPLE_FORMULA_TEXT)
        for method in ("min_fill", "min_degree", "exact"):
            code, report = run(capsys, "decomp", f, "--method", method)
            assert code == EXIT_OK
            assert report["result"]["width"] >= 2
            assert report["result"]["bags"]

    def test_min_degree_independent_of_hash_seed(self, files):
        # min-degree ties abound here; they must not follow set order
        f = files("f.txt",
                  "=(v9, v4; v11) & =(v5, v11; v11) & =(v10, v8; v0) & "
                  "=(v7, v3; v10) & =(v0, v2; v1) & =(v5, v7; v3) & "
                  "=(v6, v8; v1) & =(v9, v3; v0) & =(v11, v3; v6) & "
                  "=(v4, v2; v6) & =(v2, v1; v2) & =(v9, v9; v7) & "
                  "=(v2, v2; v0) & =(v0, v3; v3)")
        results = []
        for seed in ("1", "4"):
            proc = subprocess.run(
                [sys.executable, "-m", "teamlog.cli", "decomp", f,
                 "--method", "min_degree"],
                env=child_env(PYTHONHASHSEED=seed), capture_output=True,
                text=True, timeout=60)
            assert proc.returncode == EXIT_OK, proc.stderr
            results.append(json.loads(proc.stdout)["result"])
        assert results[0] == results[1]


class TestGenAndTranslate:
    def test_generated_files_model_check(self, files, capsys, tmp_path):
        spec = files("inst.json", json.dumps(
            {"elements": ["a1"], "sets": [["a1"]]}
        ))
        fout = str(tmp_path / "phi.tl")
        tout = str(tmp_path / "team.txt")
        code, report = run(capsys, "gen-setsplit", spec,
                           "--formula-out", fout, "--team-out", tout)
        assert code == EXIT_OK
        # the singleton instance is unsplittable: mc must exit 1
        code, report = run(capsys, "mc", fout, tout, "--semantics", "strict")
        assert code == EXIT_NEGATIVE

    def test_bad_json_exit_two(self, files, capsys, tmp_path):
        spec = files("inst.json", "{not json")
        code, _ = run(capsys, "gen-setsplit", spec,
                      "--formula-out", str(tmp_path / "f"),
                      "--team-out", str(tmp_path / "t"))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("text", ['{"elements": []}', '[1]', '"ab"',
                                      '{"elements": [[1]], "sets": []}',
                                      '{"elements": [1], "sets": 3}'])
    def test_bad_spec_shape_exit_two(self, files, capsys, tmp_path, text):
        spec = files("inst.json", text)
        code, _ = run(capsys, "gen-setsplit", spec,
                      "--formula-out", str(tmp_path / "f"),
                      "--team-out", str(tmp_path / "t"))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("spec", [
        {"elements": ["a", "b"], "sets": ["ab"]},
        {"elements": "ab", "sets": [["a", "b"]]},
        {"elements": ["a", "b"], "sets": "ab"},
        {"elements": ["a", "b"], "sets": {}},
        {"elements": ["a", "b"], "sets": [["a", 1]]},
    ])
    def test_strings_are_not_arrays_exit_two(self, files, capsys, tmp_path,
                                             spec):
        # a JSON string is no list of names, not even of its characters
        out = tmp_path / "f"
        code, _ = run(capsys, "gen-setsplit", files("s.json", json.dumps(spec)),
                      "--formula-out", str(out),
                      "--team-out", str(tmp_path / "t"))
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_translate(self, files, capsys):
        f = files("f.tl", "=(x; y)")
        code, report = run(capsys, "translate", f, "--dep-to-indep")
        assert code == EXIT_OK
        assert report["result"]["formula"] == "ind(y; y | x)"

    def test_translate_to_file(self, files, capsys, tmp_path):
        f = files("f.tl", "=(; p)")
        out = tmp_path / "g.tl"
        code, _ = run(capsys, "translate", f, "--dep-to-indep",
                      "--out", str(out))
        assert code == EXIT_OK
        assert out.read_text().strip() == "ind(p; p |)"


class TestUsage:
    def test_no_command_exit_two(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command_exit_two(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_pretty_output_not_json(self, files, capsys):
        f = files("f.tl", "x")
        t = files("t.team", "x\n1\n")
        code = main(["mc", f, t, "--pretty"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "satisfied: True" in out


_TOKENS = ["x1", "x2", "y", " ", "!", "&", "|", "(", ")", "=(", "inc(",
           "ind(", ";", ",", "T", "B", "\n"]
_SPECS = ['{"elements": [1, 2], "sets": [[1, 2]]}', '{"elements": []}',
          '{"elements": [1], "sets": [[2]]}', '[1]', '{"sets": 3}']


@st.composite
def _formula_texts(draw):
    """A well-formed formula of any logic, or a soup of formula tokens."""
    if draw(st.booleans()):
        return render_formula(random_formula(RandomFormulaConfig(
            logic=draw(st.sampled_from(list(LogicKind))), max_vars=3,
            max_nodes=draw(st.integers(1, 12)),
            seed=draw(st.integers(0, 10 ** 6)))))
    return "".join(draw(st.lists(st.sampled_from(_TOKENS), max_size=16)))


@st.composite
def _team_texts(draw):
    """A header and bit rows, mostly as wide as the header."""
    names = draw(st.lists(st.sampled_from(["x1", "x2", "x3", "y"]),
                          max_size=4))
    width = st.one_of(st.just(len(names)), st.integers(0, 5))
    rows = draw(st.lists(width.flatmap(
        lambda k: st.text(alphabet="01", min_size=k, max_size=k)), max_size=6))
    return "\n".join([" ".join(names), *rows])


class TestFuzz:
    """Bad input of any shape is an answer or a usage, resource or budget
    error (exit 0 to 4), never an internal error (exit 5)."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=80, deadline=None)
    @given(formula=st.one_of(_formula_texts(), st.text(max_size=16)),
           team=st.one_of(_team_texts(), st.text(max_size=16)),
           spec=st.one_of(st.sampled_from(_SPECS), st.text(max_size=16)))
    def test_every_subcommand_exits_zero_to_four(self, workdir, formula,
                                                 team, spec):
        f, t, j = (workdir / "f.tl", workdir / "t.team", workdir / "s.json")
        f.write_text(formula)
        t.write_text(team)
        j.write_text(spec)
        f, t, j = str(f), str(t), str(j)
        calls = [
            ["mc", f, t], ["mc", f, t, "--semantics", "lax"],
            ["mc", f, t, "--algo", "recursive"],
            *(["sat", f, "--algo", algo, "--budget", "300"]
              for algo in ("brute", "singleton", "fixpoint", "splitfree")),
            ["sat", f, "--algo", "fixpoint", "--semantics", "lax",
             "--budget", "300"],
            ["params", f], ["params", f, t, "--exact-tw"], ["graph", f, t],
            *(["decomp", f, t, "--method", method]
              for method in ("min_fill", "min_degree", "exact")),
            ["translate", f, "--dep-to-indep"],
            ["gen-setsplit", j, "--formula-out", str(workdir / "g.tl"),
             "--team-out", str(workdir / "g.team")],
        ]
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in range(5), (argv, formula, team, spec, err.getvalue())

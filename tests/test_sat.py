"""Satisfiability engines against the brute-force oracle."""

import itertools
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamlog import (
    EngineNotApplicableError,
    Inc,
    LogicKind,
    Team,
    evaluate,
    parse_formula,
    render_formula,
    variables,
)
from teamlog import sat, semantics, teams
from teamlog.modelcheck import build_sat_table
from teamlog.errors import ResourceBoundError
from teamlog.sat import (
    SatResult,
    SatStatus,
    _all_rows,
    _row_space,
    sat_brute,
    sat_fixpoint,
    sat_singleton,
    sat_split_free,
)
from teamlog.semantics import SemanticsMode, TeamEvaluator, members
from teamlog.reductions import RandomFormulaConfig, random_formula

from conftest import child_env, reference_brute, reference_singleton

STRICT = SemanticsMode.STRICT
LAX = SemanticsMode.LAX
SAT = SatStatus.SATISFIABLE
UNSAT = SatStatus.UNSATISFIABLE
EXHAUSTED = SatStatus.RESOURCE_EXHAUSTED
#: lax-satisfiable and strictly unsatisfiable
SEPARATING = ("c & d & !e & inc(e; a) & inc(e; b) & "
              "((a & inc(c; b)) | (b & inc(d; a)))")


def assert_verified(result: SatResult, f, mode):
    assert result.status is SAT
    assert result.witness is not None
    assert len(result.witness) > 0
    assert evaluate(result.witness, f, mode, cap=len(result.witness))


class TestSatResult:
    def test_witness_requires_satisfiable(self):
        t = Team(("x",), ((1,),))
        with pytest.raises(ValueError):
            SatResult(UNSAT, t)

    def test_witness_must_be_nonempty(self):
        with pytest.raises(ValueError):
            SatResult(SAT, Team(("x",), ()))


class TestBrute:
    def test_contradiction(self):
        assert sat_brute(parse_formula("x & !x"), STRICT).status is UNSAT

    def test_dependence_atom_first_singleton(self):
        r = sat_brute(parse_formula("=(x; y)"), STRICT)
        assert_verified(r, parse_formula("=(x; y)"), STRICT)
        assert r.witness.rows == ((0, 0),)

    def test_inclusion_conflict(self):
        assert sat_brute(parse_formula("inc(x; y) & x & !y"), STRICT).status \
            is UNSAT

    def test_variable_bound(self):
        # satisfied by the all-zero row, the first table's only row
        f = parse_formula("!a & !b & !c & !d & !e")
        assert sat_brute(f, STRICT, max_vars=4).status \
            is SatStatus.RESOURCE_EXHAUSTED
        assert sat_brute(f, STRICT, max_vars=5).status is SAT

    def test_budget_exhausts(self):
        f = parse_formula("(a & !a) & (b | (c & d))")
        for mode in (STRICT, LAX):
            assert sat_brute(f, mode, max_vars=4, budget=10).status \
                is SatStatus.RESOURCE_EXHAUSTED
            assert sat_brute(f, mode, max_vars=4).status is UNSAT

    def test_reads_tables_not_candidates(self, monkeypatch):
        def refuse(self, i, mask):
            raise AssertionError("sat_brute checked a candidate team")
        monkeypatch.setattr(TeamEvaluator, "check_at", refuse)
        for mode in (STRICT, LAX):
            r = sat_brute(parse_formula("x | y"), mode)
            assert r.witness.rows == ((0, 1),)
            f = parse_formula("inc(x; y) & x & !y")
            assert sat_brute(f, mode).status is UNSAT
            with pytest.raises(AssertionError):
                reference_brute(f, mode)

    def test_reach_ends_at_sixteen_assignments(self, monkeypatch):
        # the one row 10000 is the 17th assignment, so the least model
        # is mask 2^16, past the 16-row tables; a model among the first
        # assignments needs no larger table
        sizes = []
        build = sat.build_sat_table

        def recorded(team, *args):
            sizes.append(len(team))
            return build(team, *args)

        monkeypatch.setattr(sat, "build_sat_table", recorded)
        for mode in (STRICT, LAX):
            f = parse_formula("a & !b & !c & !d & !e")
            assert sat_brute(f, mode, max_vars=5).status is EXHAUSTED
            assert sat_brute(parse_formula("!a & b"), mode).status is SAT
        assert sizes == [1, 2, 4, 8, 16, 1, 2] * 2

    @pytest.mark.parametrize("logic", list(LogicKind))
    def test_matches_reference_scan(self, logic):
        # budgets on both sides of the least model m, and of the
        # 2^(2^n) - 1 nonempty teams when there is none; from there on
        # the full scan's answer stands
        formulas = [parse_formula(t) for t in ("T", "B | (T & B)")]
        formulas += [random_formula(RandomFormulaConfig(
            logic=logic, max_vars=1 + seed % 4, max_nodes=9, seed=seed))
            for seed in range(160)]
        for f in formulas:
            rows = _all_rows(len(variables(f)))
            for mode in (STRICT, LAX):
                full = reference_brute(f, mode)
                if full.status is SAT:
                    m = sum(1 << rows.index(r) for r in full.witness.rows)
                    below, rest = {0, m - 1}, (m, m + 1)
                else:
                    below, rest = {(1 << len(rows)) - 2}, ((1 << len(rows)) - 1,)
                for budget in below:
                    assert sat_brute(f, mode, budget=budget) == \
                        reference_brute(f, mode, budget=budget)
                for budget in rest:
                    assert sat_brute(f, mode, budget=budget) == full

    def test_witness_is_canonically_least(self):
        # the witness has the least bitmask over the binary-ordered
        # assignment list, so {x=0,y=1} beats every later satisfying team
        r = sat_brute(parse_formula("x | y"), STRICT)
        assert r.witness.rows == ((0, 1),)


class TestSingleton:
    def test_dependence_with_literals(self):
        f = parse_formula("=(x; y) & x & !y")
        r = sat_singleton(f)
        assert r.witness.rows == ((1, 0),)
        assert_verified(r, f, STRICT)

    def test_independence_with_literal(self):
        f = parse_formula("ind(x; y |) & x")
        r = sat_singleton(f)
        assert r.witness.rows[0][0] == 1
        assert_verified(r, f, STRICT)

    def test_contradiction(self):
        assert sat_singleton(parse_formula("x & !x")).status is UNSAT

    def test_rejects_inclusion_logic(self):
        with pytest.raises(EngineNotApplicableError):
            sat_singleton(parse_formula("inc(x; y)"))

    @staticmethod
    def _pinned(n: int, seed: int):
        """A random formula over x1..xn with a random literal on each
        variable that is constant within a 4096-row block (the first
        n - 12 by name), so the witness lies in a random block."""
        rng = random.Random(seed)
        logic = (LogicKind.PL, LogicKind.PDL, LogicKind.PIND)[seed % 3]
        g = random_formula(RandomFormulaConfig(
            logic=logic, max_vars=n, max_nodes=12, seed=seed))
        vs = sorted(f"x{i}" for i in range(1, n + 1))
        pins = [v if rng.random() < 0.5 else "!" + v for v in vs[:n - 12]]
        pins += [f"({v} | !{v})" for v in vs[n - 12:]]
        return parse_formula(f"({render_formula(g)}) & " + " & ".join(pins))

    def test_matches_reference_loop(self):
        # status and witness row against one evaluate call per assignment;
        # 13 and 14 variables span more than one 4096-row block
        texts = [
            "T", "B", "T | B", "B | B", "T & B", "(B | T) & (T | T)",
            "!x", "!x & !y", "x | !x", "=(; x) & !x", "ind(x; y |) & !y",
            "ind(x, y; z |) & (x | B) & !z", "=(x, y; z) & (B | !x)",
            "(x1 | x2) & ind(x3; x4 |) & !x1 & !x3",
            " & ".join(f"x{i}" for i in range(1, 13)) + " & =(x3; x4)",
            " & ".join(f"x{i}" for i in range(1, 13)) + " & ind(x3; x4 |) & !x5",
            " & ".join(f"!x{i}" for i in range(1, 14)) + " & x2",
            "!x1 & " + " & ".join(f"x{i}" for i in range(2, 14)),
            "x1 & " + " & ".join(f"!x{i}" for i in range(2, 14)),
        ]
        cases = [parse_formula(t) for t in texts]
        for logic in (LogicKind.PL, LogicKind.PDL, LogicKind.PIND):
            for seed in range(160):
                cases.append(random_formula(RandomFormulaConfig(
                    logic=logic, max_vars=seed % 13, max_nodes=3 + seed % 23,
                    seed=seed)))
        cases += [self._pinned(n, seed) for n in (13, 14) for seed in range(3)]
        assert len(cases) >= 500
        assert {len(variables(f)) for f in cases} == set(range(15))
        for f in cases:
            got, want = sat_singleton(f), reference_singleton(f)
            assert got.status is want.status, render_formula(f)
            if want.witness is not None:
                assert got.witness.domain == want.witness.domain
                assert got.witness.rows == want.witness.rows, render_formula(f)

    def test_builds_one_team_and_no_evaluator(self, monkeypatch):
        built, evaluated = [], []
        init = Team.__post_init__

        def counted(self):
            init(self)
            built.append(self)

        monkeypatch.setattr(Team, "__post_init__", counted)
        monkeypatch.setattr(semantics, "evaluate",
                            lambda *args, **kw: evaluated.append(args))
        f = parse_formula("=(x1; x2) & =(; x4) & (x5 | !x6) & x7")
        r = sat_singleton(f)
        assert r.status is SAT
        assert built == [r.witness]
        assert sat_singleton(parse_formula("x1 & =(x2; x3) & !x1")).status \
            is UNSAT
        assert len(built) == 1
        assert evaluated == []

    def test_budget_counts_assignments(self):
        vs = [f"x{i}" for i in range(1, 14)]
        unsat = parse_formula(" & ".join(vs) + " & !x2")
        assert sat_singleton(unsat, budget=100).status is EXHAUSTED
        assert sat_singleton(unsat).status is UNSAT
        first = sat_singleton(parse_formula(" & ".join("!" + v for v in vs)),
                              budget=100)
        assert first.witness.rows == ((0,) * 13,)

    def test_budget_across_a_block_boundary(self):
        # over x1 < x10 < ... < x13 < x2 < ... < x9, x1 is the leading bit:
        # these witnesses are the last row of the first block (4095) and
        # the first row of the second (4096)
        last = parse_formula("!x1 & " + " & ".join(
            f"x{i}" for i in range(2, 14)))
        first = parse_formula("x1 & " + " & ".join(
            f"!x{i}" for i in range(2, 14)))
        assert sat_singleton(last, budget=4095).status is EXHAUSTED
        assert sat_singleton(last, budget=4096).status is SAT
        assert sat_singleton(first, budget=4096).status is EXHAUSTED
        r = sat_singleton(first, budget=4097)
        assert r.witness.rows == ((1,) + (0,) * 12,)


class TestFixpoint:
    @pytest.mark.parametrize("text,expected", [
        ("!y & inc(x; y)", SAT),
        ("inc(x; y) & x & !y", UNSAT),
        ("(x & y) | inc(x; y)", SAT),
    ])
    def test_examples_both_modes(self, text, expected):
        f = parse_formula(text)
        for mode in (STRICT, LAX):
            r = sat_fixpoint(f, mode)
            assert r.status is expected
            if expected is SAT:
                assert_verified(r, f, mode)

    def test_budget_exhaustion(self):
        f = parse_formula("(inc(x; y) | inc(y; x)) | (inc(x; z) | inc(z; x))")
        r = sat_fixpoint(f, STRICT, budget=3)
        assert r.status is SatStatus.RESOURCE_EXHAUSTED

    @pytest.mark.parametrize("text", [
        "(inc(x1; x1) & inc(x1, x2; x2, x3)) & (x1 & B)",
        "(!x1 & x2) & (inc(x2, x3; x2, x4) & x1)",
        "(x1 & ((inc(x2; x3) & B) & x2)) & inc(x1; x2)",
        "B & (inc(x1; x2) | (x3 & inc(x2; x3)))",
    ])
    def test_root_contradiction_is_unsat(self, text):
        # The largest lax model is empty, so both modes answer before the
        # search, which spends 4000 units on each without an answer.
        f = parse_formula(text)
        for mode in (STRICT, LAX):
            assert sat_fixpoint(f, mode, budget=4000).status is UNSAT

    def test_lax_verum_split_is_sat(self):
        f = parse_formula(
            "T | ((inc(x1, x2; x3, x3) & inc(x4, x4; x4, x2)) & (B & x4))")
        r = sat_fixpoint(f, LAX, budget=4000)
        assert_verified(r, f, LAX)
        assert len(r.witness) == 16

    def test_strict_model_inside_the_lax_max(self):
        # The largest lax model {01, 10, 11} is no strict model; the search
        # still finds the strict model {11}.
        f = parse_formula(
            "(inc(x1; x2) & ((inc(x2; x2) | !x1) & ((inc(x1; x2) & x1) | "
            "(x2 & ((inc(x2; x1) | T) & (inc(x2; x1) & (((!x1 | inc(x1; x2))"
            " | inc(x1; x1)) | x1)))))))")
        strict = sat_fixpoint(f, STRICT, budget=4000)
        assert strict.witness.rows == ((1, 1),)
        lax = sat_fixpoint(f, LAX, budget=4000)
        assert lax.witness.rows == ((0, 1), (1, 0), (1, 1))
        assert not evaluate(lax.witness, f, STRICT)

    def test_lax_answers_from_the_largest_model_alone(self):
        # Lax mode never searches, so no inclusion repair is logged.  When
        # the largest-model walk (3 visits here) runs out of budget, both
        # modes answer exhausted.
        f = parse_formula("(inc(x; y) | inc(y; x)) | (inc(x; z) | !z)")
        log = []
        r = sat_fixpoint(f, LAX, repair_log=log)
        assert_verified(r, f, LAX)
        assert len(r.witness) == 8 and log == []
        for mode in (STRICT, LAX):
            for budget in range(3):
                r = sat_fixpoint(f, mode, budget=budget)
                assert r.status is SatStatus.RESOURCE_EXHAUSTED, budget
        assert sat_fixpoint(f, LAX, budget=3).status is SAT

    def test_rejects_other_logics(self):
        with pytest.raises(EngineNotApplicableError):
            sat_fixpoint(parse_formula("=(x; y)"), STRICT)

    @pytest.mark.parametrize("text", [
        " & ".join(f"x{k}" for k in range(16)) + " & inc(x0; x1)",
        # one literal, carried down a chain of inclusion atoms
        "x0 & " + " & ".join(f"inc(x{k + 1}; x{k})" for k in range(15)),
    ], ids=["literals", "propagated"])
    def test_labels_bound_the_row_space(self, monkeypatch, text):
        # Sixteen labelled variables leave one row, not 2^16, in both modes.
        sizes = []
        init = TeamEvaluator.__init__

        def counted(ev, domain, rows, *args):
            init(ev, domain, rows, *args)
            sizes.append(len(ev.rows))

        monkeypatch.setattr(TeamEvaluator, "__init__", counted)
        f = parse_formula(text)
        for mode in (STRICT, LAX):
            sizes.clear()
            r = sat_fixpoint(f, mode)
            assert sizes == [1]
            assert r.witness.rows == ((1,) * 16,)
            assert_verified(r, f, mode)

    def test_row_cap_comes_before_any_row(self, monkeypatch):
        # A chain of inclusion atoms over 21 variables labels none of them.
        def refuse(*args):
            raise AssertionError("rows were built")

        monkeypatch.setattr(TeamEvaluator, "__init__", refuse)
        monkeypatch.setattr(sat, "_all_rows", refuse)
        f = parse_formula(" & ".join(f"inc(x{k}; x{k + 1})" for k in range(20)))
        assert len(variables(f)) == 21
        for mode in (STRICT, LAX):
            with pytest.raises(ResourceBoundError):
                sat_fixpoint(f, mode, budget=0)
        with pytest.raises(ResourceBoundError):
            sat_split_free(f)

    def test_row_space_is_the_label_consistent_rows(self):
        # The rows of _all_rows that agree with the labels, in its order.
        rng = random.Random(21)
        for _ in range(200):
            n = rng.randint(1, 9)
            vs = tuple(f"x{j}" for j in range(n))
            labels = {v: rng.randint(0, 1)
                      for v in rng.sample(vs, rng.randint(0, n))}
            parts = [v if c else f"!{v}" for v, c in labels.items()]
            # a split labels nothing, and it brings in every variable
            parts.append("(" + " | ".join(vs) + " | T)")
            ev = _row_space(parse_formula(" & ".join(parts)), STRICT)
            assert ev.domain == vs
            assert ev.rows == [
                row for row in _all_rows(n)
                if all(row[vs.index(v)] == c for v, c in labels.items())]

    def test_repair_log_bound(self):
        log = []
        f = parse_formula("(!y & inc(x; y)) | inc(y; x)")
        sat_fixpoint(f, STRICT, repair_log=log)
        assert log, "expected at least one inclusion repair"
        for before, after in log:
            assert after <= 2 * before

    def test_mirror_repair_is_one_pass(self):
        # The search's inclusion repair adds to each row its mirror, the
        # row with the x-value copied into the y-positions, and rejects
        # the state if the atom still fails.  Rows are binary numbers.
        def repair(text, rows):
            f = parse_formula(text)
            vs = variables(f)
            ev = TeamEvaluator(vs, _all_rows(len(vs)), f, STRICT)
            top = (1 << len(ev.rows)) - 1
            search = sat._FixpointSearch(ev, 0, None, top)
            return ev, search._repair_atom(0, sum(1 << r for r in rows))

        assert repair("inc(x; y)", [0b10])[1] == 1 << 0b10 | 1 << 0b11
        assert repair("inc(x; y)", [0b11])[1] == 1 << 0b11
        # overlapping tuples: 100 gains 110, whose x-value 11 is no y-value
        with pytest.raises(sat._Reject):
            repair("inc(a, b; b, c)", [0b100])
        # a mirror outside the row space lies in no bound: 10 needs 11
        # (the rows sorted, as the mirror lookup bisects them)
        ev = TeamEvaluator(("x", "y"), [(0, 1), (1, 0)],
                           parse_formula("inc(x; y)"), STRICT)
        with pytest.raises(sat._Reject):
            sat._FixpointSearch(ev, 0, None, 0b11)._repair_atom(0, 0b10)
        # disjoint tuples always repair, to at most twice the rows
        rng = random.Random(5)
        for _ in range(50):
            rows = rng.sample(range(16), rng.randint(1, 5))
            ev, got = repair("inc(a, b; c, d)", rows)
            assert ev.check_at(0, got)
            assert set(rows) <= set(members(got))
            assert got.bit_count() <= 2 * len(rows)

    def test_shared_split_row_ends_the_branch(self):
        # Rows only accumulate, so a state whose split sides share a row
        # never becomes a strict labelling: the bottom-up round rejects it.
        # The kids of a conjunction share their rows.
        def bottom_up(text, state):
            ev = TeamEvaluator(("x",), [(1,)], parse_formula(text), STRICT)
            return sat._FixpointSearch(ev, 10, None, 1)._bottom_up(state)

        assert bottom_up("x & x", (0, 1, 1)) == (1, 1, 1)
        assert bottom_up("x | x", (0, 1, 0)) == (1, 1, 0)
        with pytest.raises(sat._Reject):
            bottom_up("x | x", (0, 1, 1))

    def test_separating_formula_within_budget(self):
        # A shared split row is rejected once, in the bottom-up round, and
        # costs no route through the split: SEPARATING takes 6,501 units.
        f = parse_formula(SEPARATING)
        assert sat_fixpoint(f, STRICT, budget=7000).status is UNSAT

    def test_builds_only_the_witness_team(self, monkeypatch):
        built = []
        post_init = teams.Team.__post_init__

        def counted(team):
            built.append(team)
            post_init(team)

        monkeypatch.setattr(teams.Team, "__post_init__", counted)
        repairs = 0
        for seed in range(40):
            f = random_formula(RandomFormulaConfig(
                logic=LogicKind.PINC, max_vars=3, max_nodes=9, seed=seed,
                max_splits=2,
            ))
            for mode in (STRICT, LAX):
                log = []
                built.clear()
                r = sat_fixpoint(f, mode, repair_log=log)
                repairs += len(log)
                assert len(built) == (r.witness is not None), (seed, mode)
        assert repairs > 100

    def test_guesses_in_sorted_product_order(self):
        # The order oracle: every pick of at most one row of the bound per
        # class, sorted by size and then by ascending row list.  The bound
        # holds all rows or a sample of them, so some classes meet none.
        rng = random.Random(5)
        outside = 0
        for k in range(600):
            count = rng.randint(1, 4)
            ycls = [rng.randrange(count) for _ in range(rng.randint(0, 10))]
            bound = sum(1 << r for r in rng.sample(range(len(ycls)),
                                                   rng.randint(0, len(ycls))))
            if k % 3 == 0:
                bound = (1 << len(ycls)) - 1
            classes = [sum(1 << r for r, y in enumerate(ycls) if y == c)
                       for c in range(count)]
            outside += any(c and not c & bound for c in classes)
            picks = [[0] + [1 << r for r in semantics._bits(m & bound)]
                     for m in classes]
            expected = sorted(
                (sum(combo) for combo in itertools.product(*picks)),
                key=lambda m: (m.bit_count(), semantics._bits(m)))
            assert list(sat._walk_guesses(classes, bound)) == expected, (
                ycls, bound)
        assert outside > 50

    def test_guesses_turn_as_an_odometer(self, monkeypatch):
        # run() visits the product of the atoms' guesses in the order of
        # itertools.product: the last atom fastest, each restarting.
        for seed in range(20):
            f = random_formula(RandomFormulaConfig(
                logic=LogicKind.PINC, max_vars=2, max_nodes=9, seed=seed,
                max_splits=2,
            ))
            vs = variables(f)
            ev = TeamEvaluator(vs, _all_rows(len(vs)), f, STRICT)
            top = (1 << len(ev.rows)) - 1
            # the bounds spend their own units; the search spends none here
            search = sat._FixpointSearch(ev, 1000, None, top)
            seen = []
            monkeypatch.setattr(search, "_search",
                                lambda state: seen.append(state) and None)
            assert search.run() is None
            wheels = [list(search._candidates(i)) for i in search.guessers]
            assert seen == [
                tuple(dict(zip(search.guessers, combo)).get(i, 0)
                      for i in range(len(search.ev.nodes)))
                for combo in itertools.product(*wheels)], seed

    def test_huge_guess_space_spends_budget(self):
        # Inside its bound one inclusion atom has 163 million initial
        # guesses at 40 nodes, seed 1438, too many to hold at once.  Under
        # a 1 GB address-space limit the search must spend its budget on
        # it and find models of seeds 501 (6 rows) and 504 (1 row).
        code = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from teamlog import LogicKind, evaluate
from teamlog.reductions import RandomFormulaConfig, random_formula
from teamlog.sat import sat_fixpoint
from teamlog.semantics import SemanticsMode
for nodes, seed in ((40, 1438), (30, 501), (30, 504)):
    f = random_formula(RandomFormulaConfig(
        logic=LogicKind.PINC, max_vars=10, max_nodes=nodes, max_arity=2,
        max_splits=4, seed=seed))
    r = sat_fixpoint(f, SemanticsMode.STRICT, budget=4000)
    w = r.witness
    ok = w is None or evaluate(w, f, SemanticsMode.STRICT)
    print(r.status.value, ok, w and len(w))
"""
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["resource_exhausted", "True", "None",
                                       "satisfiable", "True", "6",
                                       "satisfiable", "True", "1"]

    def test_root_seed_is_walked_lazily(self):
        # A chain of inclusion atoms over 17 free variables and a split of
        # x1 against !x1: each literal's bound holds 2^16 rows, too many to
        # hold as one 2^17-bit mask each under a 1 GB address-space limit.
        # Only the root guesses rows, one at a time.
        code = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from teamlog import evaluate, parse_formula
from teamlog.sat import sat_fixpoint
from teamlog.semantics import SemanticsMode
f = parse_formula(" & ".join(f"inc(x{k}; x{min(k + 1, 17)})"
                             for k in range(1, 18)) + " & (x1 | !x1)")
r = sat_fixpoint(f, SemanticsMode.STRICT, budget=1000)
print(r.status.value, evaluate(r.witness, f, SemanticsMode.STRICT))
"""
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["satisfiable", "True"]

    def test_eighteen_variable_probe_fits_in_256_mb(self):
        # The same chain over 18 variables: 2^17 rows per literal bound.
        # The guesses walk class masks and the mirrors are looked up per
        # row, so no guesser holds a list or dict over its bound's rows.
        code = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))
from teamlog import parse_formula
from teamlog.sat import sat_fixpoint
from teamlog.semantics import SemanticsMode
f = parse_formula(" & ".join(f"inc(x{k}; x{min(k + 1, 18)})"
                             for k in range(1, 19)) + " & (x1 | !x1)")
print(sat_fixpoint(f, SemanticsMode.STRICT, budget=1000).status.value)
"""
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["satisfiable"]

    def test_separating_formulas_match_strict_tables(self):
        # Strict and lax PINC differ on SEPARATING: its labels leave one
        # row per value of ab, inc(e; a) and inc(e; b) need 01 and 10, each
        # fits one side only, and then both sides need 11.  Draws rename the
        # variables, flip every literal (an equivalent formula) or one
        # label, and drop or add one atom.  The strict answer must match a
        # table over every subteam of the row space.  An added inclusion
        # atom multiplies the guesses, hence the draws' larger budget.
        def table_sat(f, mode, ev):
            team = Team(ev.domain, ev.rows)
            return build_sat_table(team, f, mode).bits[0] >> 1 != 0

        rng = random.Random(22)
        separated = 0
        for _ in range(100):
            a, b, c, d, e = rng.sample("abcdepqr", 5)
            flip = rng.random() < 0.5

            def lit(v, positive=True):
                return v if positive != flip else "!" + v

            top = [lit(c), lit(d), lit(e, False), f"inc({e}; {a})",
                   f"inc({e}; {b})"]
            if rng.random() < 0.25:
                k = rng.randrange(3)
                top[k] = top[k][1:] if top[k][0] == "!" else "!" + top[k]
            sides = [[lit(a), f"inc({c}; {b})"], [lit(b), f"inc({d}; {a})"]]
            part = rng.choice([top] + sides)
            roll = rng.random()
            if roll < 0.2:
                part.pop(rng.randrange(len(part)))
            elif roll < 0.4:
                x, y = rng.sample([a, b, c, d, e, "s"], 2)
                part.insert(rng.randrange(len(part) + 1), rng.choice(
                    [f"inc({x}; {y})", rng.choice(("", "!")) + x]))
            rng.shuffle(top)
            rng.shuffle(sides)
            split = " | ".join("(" + " & ".join(s) + ")" for s in sides)
            f = parse_formula(" & ".join(top) + f" & ({split})")
            ev = _row_space(f, STRICT)
            assert len(ev.rows) <= 16
            lax, strict = table_sat(f, LAX, ev), table_sat(f, STRICT, ev)
            got = sat_fixpoint(f, STRICT, budget=100_000)
            assert got.status is (SAT if strict else UNSAT), render_formula(f)
            if strict:
                assert_verified(got, f, STRICT)
            assert sat_fixpoint(f, LAX).status is (SAT if lax else UNSAT)
            separated += lax and not strict
        assert separated >= 20
        f = parse_formula(SEPARATING)
        assert sat_fixpoint(f, STRICT, budget=20_000).status is UNSAT
        assert_verified(sat_fixpoint(f, LAX), f, LAX)

    @pytest.mark.parametrize("text", [
        "((x4 | inc(x1; x1)) | (B & (inc(x1; x1) | (!x2 & "
        "inc(x2, x3; x2, x4)))))",
        "(inc(x4; x3) | (B & ((x4 | inc(x2; x3)) & (inc(x1, x3; x1, x4) "
        "| B))))",
    ])
    def test_strict_model_found_early(self, text):
        # Both once spent the whole default budget; the bounds of their
        # split children leave few guesses.
        r = sat_fixpoint(parse_formula(text), STRICT, budget=4000)
        assert r.witness.rows == ((0, 0, 0, 0),)

    def test_unlabelled_split_searches_its_bound(self):
        # A split at the root labels nothing, so the row space has 2^12
        # rows, but the left child's bound is one row and B's is empty.
        f = parse_formula(
            "(" + " & ".join(f"x{k}" for k in range(12)) + " & inc(x0; x1))"
            " | B")
        r = sat_fixpoint(f, STRICT, budget=100)
        assert r.witness.rows == ((1,) * 12,)

    def test_search_checks_only_inclusion_atoms(self, monkeypatch):
        # Seeds of a strict family, two literals prepended on odd seeds:
        # every answer is decided at budget 4000, and the search checks no
        # literal, constant, conjunction or split.
        checked = set()
        check_at = TeamEvaluator.check_at

        def spy(ev, i, mask):
            checked.add(type(ev.nodes[i]))
            return check_at(ev, i, mask)

        monkeypatch.setattr(TeamEvaluator, "check_at", spy)
        found = []
        for seed in range(60000, 60200):
            n = 3 + seed % 4
            f = random_formula(RandomFormulaConfig(
                logic=LogicKind.PINC, max_vars=n, max_splits=3 + seed % 2,
                max_nodes=13 + 6 * (seed % 3), seed=seed))
            if seed % 2:
                rng = random.Random(seed)
                lits = [rng.choice(("", "!")) + f"x{rng.randint(1, n)}"
                        for _ in range(2)]
                lits.append(f"({render_formula(f)})")
                f = parse_formula(" & ".join(lits))
            found.append((f, sat_fixpoint(f, STRICT, budget=4000)))
        assert checked == {Inc}
        monkeypatch.undo()
        for f, r in found:
            assert r.status is not EXHAUSTED, render_formula(f)
            if r.status is SAT:
                assert_verified(r, f, STRICT)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9), st.sampled_from([STRICT, LAX]),
           st.booleans())
    def test_matches_oracle(self, seed, mode, labelled):
        # Labelled: l1 & l2 & f over up to 4 variables, whose literals
        # shrink the fixpoint's row space but not sat_brute's.
        f = random_formula(RandomFormulaConfig(
            logic=LogicKind.PINC, max_vars=4 if labelled else 3, max_nodes=9,
            seed=seed, max_splits=2,
        ))
        if labelled:
            rng = random.Random(seed)
            lits = [rng.choice(("", "!")) + f"x{rng.randint(1, 4)}"
                    for _ in range(2)]
            f = parse_formula(" & ".join(lits) + f" & ({render_formula(f)})")
        expected = sat_brute(f, mode)
        got = sat_fixpoint(f, mode)
        assert got.status is expected.status
        if got.status is SAT:
            assert_verified(got, f, mode)


class TestSplitFree:
    def test_conflicting_propagation(self):
        assert sat_split_free(parse_formula("x & !y & inc(x; y)")).status \
            is UNSAT

    def test_free_variables_take_all_values(self):
        f = parse_formula("inc(x; y)")
        r = sat_split_free(f)
        assert r.witness.rows == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert_verified(r, f, STRICT)

    def test_propagated_label(self):
        f = parse_formula("x & inc(y; x)")
        r = sat_split_free(f)
        assert r.witness.rows == ((1, 1),)
        assert_verified(r, f, STRICT)

    def test_falsum_unsat(self):
        assert sat_split_free(parse_formula("x & B")).status is UNSAT

    def test_rejects_splits(self):
        with pytest.raises(EngineNotApplicableError):
            sat_split_free(parse_formula("inc(x; y) | x"))

    def test_rejects_other_logics(self):
        with pytest.raises(EngineNotApplicableError):
            sat_split_free(parse_formula("=(x; y)"))

    def test_witness_shape(self):
        # every labelled variable is constant in the witness and every
        # unlabelled variable takes both values somewhere
        f = parse_formula("x & inc(z; y) & y")  # labels x=1, y=1, then z=1
        r = sat_split_free(f)
        w = r.witness
        for var in ("x", "y", "z"):
            assert {row[w.index(var)] for row in w.rows} == {1}

        g = parse_formula("x & inc(x; y)")  # x labelled, y free
        w = sat_split_free(g).witness
        assert {row[w.index("x")] for row in w.rows} == {1}
        assert {row[w.index("y")] for row in w.rows} == {0, 1}

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_matches_oracle(self, seed):
        f = random_formula(RandomFormulaConfig(
            logic=LogicKind.PINC, max_vars=3, max_nodes=9, seed=seed,
            max_splits=0,
        ))
        expected = sat_brute(f, STRICT)
        got = sat_split_free(f)
        assert got.status is expected.status
        if got.status is SAT:
            assert_verified(got, f, STRICT)


def test_split_free_witness_is_union_of_models():
    # Split-free PINC is union closed, so the witness is the largest model:
    # the union of every team over VAR(f) that satisfies f.
    for seed in range(200):
        f = random_formula(RandomFormulaConfig(
            logic=LogicKind.PINC, max_vars=3, max_nodes=9, seed=seed,
            max_splits=0,
        ))
        vs = variables(f)
        rows = list(itertools.product((0, 1), repeat=len(vs)))
        union = set()
        for mask in range(1, 1 << len(rows)):
            team = Team(vs, tuple(r for j, r in enumerate(rows)
                                  if mask >> j & 1))
            if evaluate(team, f, STRICT):
                union.update(team.rows)
        got = sat_split_free(f)
        assert got.status is (SAT if union else UNSAT), seed
        if union:
            assert got.witness.rows == Team(vs, tuple(union)).rows, seed


def quadratic_prune(rows, atoms, vs):
    """Greatest-fixpoint pruning by comparing every row with every other
    row: the definition that :func:`sat_split_free` computes on one row
    mask."""
    index = {v: i for i, v in enumerate(vs)}
    coords = [([index[v] for v in a.xs], [index[v] for v in a.ys])
              for a in atoms]
    while rows:
        kept = []
        for row in rows:
            ok = True
            for xi, yi in coords:
                xcode = tuple(row[i] for i in xi)
                if not any(
                    xcode == tuple(other[i] for i in yi) for other in rows
                ):
                    ok = False
                    break
            if ok:
                kept.append(row)
        if len(kept) == len(rows):
            break
        rows = kept
    return rows


class TestSplitFreePruning:
    def test_overlapping_chains_match_quadratic_pruning(self):
        outcomes = set()
        for seed in range(36):
            rng = random.Random(seed)
            n = 4 + seed % 6
            names = [f"x{j}" for j in range(1, n + 1)]
            atoms = [Inc((names[j], names[j + 1]), (names[j + 1], names[j + 2]))
                     for j in range(n - 2)]
            for _ in range(rng.randint(0, 2)):
                k = rng.randint(1, 2)
                atoms.append(Inc(tuple(rng.choices(names, k=k)),
                                 tuple(rng.choices(names, k=k))))
            rng.shuffle(atoms)
            f = parse_formula(" & ".join(
                f"inc({', '.join(a.xs)}; {', '.join(a.ys)})" for a in atoms))
            vs = variables(f)
            assert len(vs) == n
            expected = quadratic_prune(
                list(itertools.product((0, 1), repeat=n)), atoms, vs)
            got = sat_split_free(f)
            if expected:
                assert got.status is SAT, seed
                assert got.witness.rows == Team(vs, tuple(expected)).rows, seed
            else:
                assert got.status is UNSAT, seed
            outcomes.add(len(expected) < 1 << n)
        assert outcomes == {True, False}

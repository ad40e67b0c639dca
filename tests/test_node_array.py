"""The node array, and formulas too deep or too wide for a recursive walk."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamlog import (
    And,
    Bot,
    Dep,
    Inc,
    Indep,
    LogicKind,
    Not,
    Or,
    Team,
    Top,
    VarRef,
    evaluate,
    formula_depth,
    formula_size,
    parse_formula,
    render_formula,
    subformulas,
    variables,
)
from teamlog.formulas import children, conjuncts, node_array
from teamlog.modelcheck import build_sat_table, mc_bottom_up
from teamlog.reductions import RandomFormulaConfig, dep_to_indep, random_formula
from teamlog.sat import (
    SatStatus,
    sat_brute,
    sat_fixpoint,
    sat_singleton,
    sat_split_free,
)
from teamlog.semantics import SemanticsMode, members

from conftest import (all_teams, reference_atom, reference_singleton,
                      subteam_mask, subteams)

STRICT = SemanticsMode.STRICT
LAX = SemanticsMode.LAX


@pytest.fixture
def default_recursion_limit():
    """Run the test under Python's default recursion limit."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


class TestNodeArray:
    def test_matches_subformulas_and_children(self):
        for seed in range(200):
            f = random_formula(RandomFormulaConfig(
                logic=list(LogicKind)[seed % 4],
                max_vars=4, max_nodes=3 + seed % 30, seed=seed))
            nodes, kids = node_array(f)
            assert len(nodes) == len(kids) == formula_size(f)
            assert all(a is b for a, b in zip(nodes, subformulas(f)))
            for i, g in enumerate(nodes):
                assert [nodes[k] for k in kids[i]] == list(children(g))
                assert all(nodes[k] is c for k, c in zip(kids[i], children(g)))
                if kids[i]:
                    assert kids[i][0] == i + 1

    def test_shared_object_gets_two_positions(self):
        x = Or(VarRef("a"), Not(VarRef("b")))
        nodes, kids = node_array(And(x, x))
        assert kids[0] == (1, 5)
        assert nodes[1] is nodes[5] is x
        assert kids[1] == (2, 3) and kids[5] == (6, 7)
        assert kids[3] == (4,) and kids[7] == (8,)

    def test_conjuncts_left_to_right(self):
        f = parse_formula("(a & (b | c)) & ((!d & T) & e)")
        nodes, kids = node_array(f)
        assert [render_formula(nodes[i]) for i in conjuncts(nodes, kids, 0)] \
            == ["a", "(b | c)", "!d", "T", "e"]
        assert conjuncts(*node_array(VarRef("a")), 0) == [0]


_LEAVES = {
    "PDL": [VarRef("x1"), Not(VarRef("x2")), Top(), Dep(("x1",), ("x3",))],
    "PINC": [VarRef("x1"), Bot(), Inc(("x1", "x2"), ("x3", "x1"))],
    "PIND": [Not(VarRef("x3")), Indep(("x1",), ("x2",), ())],
}


@st.composite
def deep_or_wide(draw):
    """Up to 3000 leaves joined by random connectives: a left chain, a
    right chain (deep parentheses) or a random shape.  Leaves are shared
    objects, so one object occurs many times."""
    leaves = _LEAVES[draw(st.sampled_from(sorted(_LEAVES)))]
    count = draw(st.integers(1, 3000))
    shape = draw(st.sampled_from(["left", "right", "random"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    stack = []

    def join():
        right, left = stack.pop(), stack.pop()
        stack.append(rng.choice((And, Or))(left, right))

    for _ in range(count):
        stack.append(rng.choice(leaves))
        while len(stack) > 1 and (shape == "left" or
                                  shape == "random" and rng.random() < 0.5):
            join()
    while len(stack) > 1:
        join()
    return stack[0]


class TestDeepAndWide:
    # Texts are compared, never ASTs: record ``==`` recurses.

    @settings(max_examples=40, deadline=None)
    @given(deep_or_wide())
    def test_render_parse_round_trip(self, f):
        text = render_formula(f)
        g = parse_formula(text)
        assert render_formula(g) == text
        assert formula_size(g) == formula_size(f)
        assert formula_depth(g) == formula_depth(f)

    @pytest.mark.parametrize("depth", [1100, 10_000])
    def test_deep_parentheses(self, default_recursion_limit, depth):
        f = parse_formula("(" * depth + "x1 & (x2 | !x3)" + ")" * depth)
        assert render_formula(f) == "(x1 & (x2 | !x3))"

    def test_ten_thousand_atom_chain(self, default_recursion_limit):
        cycle = ["x1", "!x2", "=(x3; x4)", "=(; x5)"]
        text = " & ".join(cycle[i % 4] for i in range(10_000))
        f = parse_formula(text)
        assert formula_size(f) == 9_999 + 10_000 + 2_500
        assert formula_depth(f) == 10_000
        rendered = render_formula(f)
        assert rendered == "(" * 9_999 + cycle[0] + "".join(
            f" & {cycle[i % 4]})" for i in range(1, 10_000))
        assert render_formula(parse_formula(rendered)) == rendered
        translated = render_formula(dep_to_indep(f))
        assert translated == rendered.replace("=(x3; x4)", "ind(x4; x4 | x3)") \
            .replace("=(; x5)", "ind(x5; x5 |)")

        # a conjunction holds iff each of its distinct conjuncts does
        distinct = [parse_formula(a) for a in cycle]
        domain = ("x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8")
        good = [(1, 0, x3, x3, 1, x6, x7, x8) for x3 in (0, 1)
                for x6 in (0, 1) for x7 in (0, 1) for x8 in (0, 1)]
        clash = (1, 0, 0, 1, 1, 1, 1, 1)  # x4 no longer a function of x3
        positive = (0, 0, 0, 0, 1, 1, 1, 1)  # x1 fails
        cases = [(Team(domain, tuple(good)), True),
                 (Team(domain, tuple(good[:15] + [clash])), False),
                 (Team(domain, tuple(good[:15] + [positive])), False)]
        for team, want in cases:
            assert all(reference_atom(team, a) for a in distinct) is want
            assert len(team) == 16
            assert evaluate(team, f, STRICT) is want
            assert evaluate(team, f, LAX) is want
        for team, want in [(Team(domain, tuple(good[:3])), True),
                           (Team(domain, tuple(good[:2] + [clash])), False)]:
            assert all(reference_atom(team, a) for a in distinct) is want
            assert mc_bottom_up(team, f, STRICT) is want
            assert mc_bottom_up(team, f, LAX) is want


_SHARED = [Top(), Bot(), VarRef("a"), Not(VarRef("b")), Dep(("a",), ("b",)),
           Inc(("a",), ("b",)), Indep(("a",), ("b",), ())]


class TestSharedSubformula:
    """``And(x, x)`` with one ``x`` object holds exactly where ``x`` does."""

    @pytest.mark.parametrize("x", _SHARED, ids=render_formula)
    def test_model_checking(self, x):
        f = And(x, x)
        left, right = node_array(f)[1][0]
        team = Team(("a", "b"), ((0, 0), (0, 1), (1, 0), (1, 1)))
        for mode in (STRICT, LAX):
            table = build_sat_table(team, f, mode)
            assert table.entries[left][1] == table.entries[right][1]
            root = members(table.bits[0])
            for mask, sub in enumerate(
                    subteam_mask(team, m) for m in range(1 << len(team))):
                want = reference_atom(sub, x)
                assert evaluate(sub, f, mode) is want
                assert mc_bottom_up(sub, f, mode) is want
                assert (mask in root) is want

    def test_shared_split(self):
        x = Or(VarRef("a"), Not(VarRef("b")))
        f = And(x, x)
        team = Team(("a", "b"), ((0, 0), (0, 1), (1, 0), (1, 1)))
        for sub in subteams(team):
            # a flat formula holds iff every row satisfies it classically
            want = all(a or not b for a, b in sub.rows)
            for mode in (STRICT, LAX):
                assert evaluate(sub, f, mode) is want
                assert mc_bottom_up(sub, f, mode) is want
        assert sat_singleton(f).witness.rows == reference_singleton(f).witness.rows

    @pytest.mark.parametrize("x", _SHARED, ids=render_formula)
    def test_satisfiability(self, x):
        f = And(x, x)
        vs = variables(f)
        satisfiable = any(reference_atom(t, x) for t in all_teams(vs) if len(t))
        want = SatStatus.SATISFIABLE if satisfiable else SatStatus.UNSATISFIABLE
        results = [sat_brute(f, mode) for mode in (STRICT, LAX)]
        if not isinstance(x, Inc):
            results.append(sat_singleton(f))
            assert results[-1].status is reference_singleton(f).status
        if not isinstance(x, (Dep, Indep)):
            results += [sat_fixpoint(f, mode) for mode in (STRICT, LAX)]
            results.append(sat_split_free(f))
        for r in results:
            assert r.status is want
            if r.witness is not None:
                assert reference_atom(r.witness, x)

    def test_translation(self):
        x = Dep(("a",), ("b",))
        assert render_formula(dep_to_indep(And(x, x))) == \
            "(ind(b; b | a) & ind(b; b | a))"

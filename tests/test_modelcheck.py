"""Bottom-up model checking against the recursive evaluator."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamlog import (
    And,
    Bot,
    EnumerationCapError,
    Indep,
    LogicKind,
    Not,
    Or,
    Team,
    Top,
    evaluate,
    mc,
    mc_bottom_up,
    parse_formula,
    variables,
)
from teamlog.modelcheck import SatSetTable, build_sat_table
from teamlog.reductions import (
    RandomFormulaConfig,
    SetSplittingInstance,
    random_formula,
    setsplit_to_pinc_mc,
)
from teamlog.semantics import SemanticsMode, TeamEvaluator, members
from teamlog.formulas import node_array, split_count, subformulas

from conftest import (all_teams, random_team, reference_atom,
                      reference_lax_max, subteam_mask)

STRICT = SemanticsMode.STRICT
LAX = SemanticsMode.LAX


def reference_table(team, f, mode):
    """Satisfying subteams per node, by evaluating every mask's subteam
    with the textbook atom semantics and joining splits pairwise; keyed
    by node identity."""
    all_masks = range(1 << len(team))
    sets = {}
    for node in reversed(subformulas(f)):
        if isinstance(node, And):
            masks = sets[id(node.left)] & sets[id(node.right)]
        elif isinstance(node, Or):
            left, right = sets[id(node.left)], sets[id(node.right)]
            masks = frozenset(m1 | m2 for m1 in left for m2 in right
                              if mode is LAX or m1 & m2 == 0)
        else:
            masks = frozenset(
                m for m in all_masks
                if reference_atom(subteam_mask(team, m), node)
            )
        sets[id(node)] = masks
    return sets


def assert_matches_reference(table, ref, *context):
    """Each position of ``table`` holds its node's reference masks, except
    the variable under a ``!``, which no table reads: that one is empty."""
    assert len(table.entries) == len(ref)
    for i, (node, masks) in enumerate(table.entries):
        negated = i > 0 and isinstance(table.nodes[i - 1], Not)
        want = frozenset() if negated else ref[id(node)]
        assert masks == want, (*context, node)


class TestBottomUp:
    def test_example_instance(self, example_team, example_formula):
        assert mc_bottom_up(example_team, example_formula, STRICT)
        assert mc_bottom_up(example_team, example_formula, LAX)

    def test_empty_team(self, example_formula):
        empty = Team(("x1", "x2", "x3", "x4"), ())
        assert mc_bottom_up(empty, example_formula, LAX)

    def test_unsplittable_reduction_instance(self):
        # a singleton base set cannot be split into two nonempty-meeting parts
        inst = SetSplittingInstance(("a1",), (frozenset(["a1"]),))
        team, phi = setsplit_to_pinc_mc(inst)
        assert not mc_bottom_up(team, phi, STRICT)

    def test_enumeration_cap(self):
        rows = tuple((i >> 4 & 1, i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1)
                     for i in range(17))
        t = Team(("a", "b", "c", "d", "e"), rows)
        with pytest.raises(EnumerationCapError):
            mc_bottom_up(t, parse_formula("a | b"), STRICT)

    def test_conjunction_table_is_subset_of_children(self, example_team,
                                                     example_formula):
        table = build_sat_table(example_team, example_formula, STRICT)
        kids = node_array(example_formula)[1]
        for i, node in enumerate(table.nodes):
            if isinstance(node, And):
                masks = set(members(table.bits[i]))
                assert masks <= set(members(table.bits[kids[i][0]]))
                assert masks <= set(members(table.bits[kids[i][1]]))

    def test_table_covers_every_node(self, example_team, example_formula):
        table = build_sat_table(example_team, example_formula, LAX)
        assert len(table.entries) == len(subformulas(example_formula))

    def test_builds_no_team(self, monkeypatch):
        domain = ("x1", "x2", "x3", "x4")
        cases = []
        for seed in range(40):
            f = random_formula(RandomFormulaConfig(
                logic=list(LogicKind)[seed % 4], max_vars=4, max_nodes=11,
                seed=seed,
            ))
            t = random_team(random.Random(seed), domain, max_rows=6, min_rows=6)
            cases.append((f, t))
        built = []
        monkeypatch.setattr(Team, "__post_init__", built.append)
        for f, t in cases:
            for mode in (STRICT, LAX):
                build_sat_table(t, f, mode)
        assert built == []

    def test_strict_table_only_disjoint_unions(self):
        # the full team satisfies this disjunction only through a cover
        # whose parts overlap, so it may appear in the lax table only
        f = parse_formula("inc(x2, x1; x2, x3) | inc(x1, x2; x3, x1)")
        t = Team(("x1", "x2", "x3"),
                 ((0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1)))
        full = (1 << len(t)) - 1
        strict_table = build_sat_table(t, f, STRICT)
        lax_table = build_sat_table(t, f, LAX)
        assert full not in members(strict_table.bits[0])
        assert full in members(lax_table.bits[0])


class TestTableOracle:
    def test_every_node_matches_reference(self):
        domain = ("x1", "x2", "x3", "x4")
        seen = set()
        checked = 0
        for seed in range(240):
            logic = list(LogicKind)[seed % 4]
            f = random_formula(RandomFormulaConfig(
                logic=logic, max_vars=4, max_nodes=11, max_arity=2, seed=seed
            ))
            rng = random.Random(seed)
            size = seed % 9
            t = random_team(rng, domain, max_rows=size, min_rows=size)
            for mode in (STRICT, LAX):
                table = build_sat_table(t, f, mode)
                assert_matches_reference(table, reference_table(t, f, mode),
                                         seed, mode, t.rows)
                checked += len(table.entries)
            for node in subformulas(f):
                seen.add(type(node))
                if isinstance(node, Indep) and node.zs:
                    seen.add("indep with z")
        assert {Top, Bot, Not, Or, "indep with z"} <= seen
        assert checked > 1000


_NESTED = {
    "pdl": "(x1 | =(x2; x3)) | (=(x1; x2) | !x4)",
    "pinc": "((inc(x1; x2) | inc(x3; x4)) | x3) & (x3 | inc(x2, x1; x4, x3))",
    "pind": "(ind(x1; x2 | x3) | (x1 | ind(x2; x3 | x4))) | B",
}


class TestLargeTableOracle:
    """Tables of 9 to 12 rows against the pairwise-product reference.
    ``T | T`` has the densest tables, so the largest joins; the others
    nest splits over atoms of each logic.  The reference costs seconds at
    12 rows, so each size runs a few of the formula and mode pairs."""

    @pytest.mark.parametrize("size, text, mode", [
        (9, "T | T", LAX), (9, _NESTED["pdl"], STRICT),
        (9, _NESTED["pinc"], LAX), (9, _NESTED["pind"], STRICT),
        (10, "T | T", STRICT), (10, _NESTED["pdl"], LAX),
        (10, _NESTED["pind"], LAX),
        (11, "T | T", LAX), (11, _NESTED["pinc"], STRICT),
        (12, "T | T", STRICT), (12, _NESTED["pind"], LAX),
    ])
    def test_every_node_matches_reference(self, size, text, mode):
        f = parse_formula(text)
        t = random_team(random.Random(size), ("x1", "x2", "x3", "x4"),
                        max_rows=size, min_rows=size)
        table = build_sat_table(t, f, mode)
        assert_matches_reference(table, reference_table(t, f, mode), t.rows)
        if text == "T | T":
            assert len(members(table.bits[0])) == 1 << size

    def test_mc_does_not_decode(self, example_team, example_formula,
                                monkeypatch):
        def refuse(self):
            raise AssertionError("mc_bottom_up decoded the table")
        monkeypatch.setattr(SatSetTable, "entries", property(refuse))
        for mode in (STRICT, LAX):
            assert mc_bottom_up(example_team, example_formula, mode)
            with pytest.raises(AssertionError):
                build_sat_table(example_team, example_formula, mode).entries


class TestPastTheCap:
    """Past 16 rows a union-closed instance (PL or PINC, lax or split-free)
    holds iff the team is its own largest lax model; every other one is
    refused, and within 16 rows the tables answer."""

    def test_union_closed_matches_reference(self):
        domain = tuple(f"x{k}" for k in range(1, 7))
        seen = set()
        for seed in range(600):
            rng = random.Random(seed)
            split_free = seed % 3 == 2
            f = random_formula(RandomFormulaConfig(
                logic=(LogicKind.PL, LogicKind.PINC)[seed % 2], max_vars=6,
                max_nodes=7 + seed % 24, max_arity=3, seed=seed,
                max_splits=0 if split_free else 1 + seed % 4))
            mode = (STRICT, LAX)[seed // 3 % 2] if split_free else LAX
            t = random_team(rng, domain, max_rows=64, min_rows=17)
            kept = reference_lax_max(t, f)
            holds = kept == frozenset(t.rows)
            assert mc_bottom_up(t, f, mode) is holds, (seed, mode)
            if len(kept) > 16 and not holds:
                model = Team(domain, tuple(sorted(kept)))
                assert mc_bottom_up(model, f, mode), (seed, mode)
                holds = True
            seen.add((mode, split_count(f) > 0, holds))
        assert seen >= {(LAX, True, True), (LAX, True, False),
                        (STRICT, False, True), (STRICT, False, False),
                        (LAX, False, True), (LAX, False, False)}

    @pytest.mark.parametrize("text, mode", [
        ("x1 | inc(x1; x2)", STRICT), ("x1 | x2", STRICT),
        ("=(x1; x2)", LAX), ("=(x1; x2) | x1", STRICT),
        ("ind(x1; x2 |)", LAX), ("ind(x1; x2 |) & x1", STRICT)])
    def test_others_are_refused(self, text, mode):
        t = random_team(random.Random(1), ("x1", "x2", "x3", "x4", "x5"),
                        max_rows=17, min_rows=17)
        with pytest.raises(EnumerationCapError):
            mc_bottom_up(t, parse_formula(text), mode)

    def test_tables_within_the_cap(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("max_model within the cap")
        monkeypatch.setattr(TeamEvaluator, "max_model", refuse)
        f = parse_formula("x1 | inc(x1; x2)")
        t = random_team(random.Random(2), ("x1", "x2", "x3", "x4", "x5"),
                        max_rows=16, min_rows=16)
        assert mc_bottom_up(t, f, LAX) is evaluate(t, f, LAX)


class TestDispatch:
    def test_recursive_matches_evaluate(self, example_team, example_formula):
        assert mc(example_team, example_formula, STRICT, algo="recursive") == \
            evaluate(example_team, example_formula, STRICT)

    def test_bottomup_matches(self, example_team, example_formula):
        assert mc(example_team, example_formula, STRICT, algo="bottomup") == \
            mc_bottom_up(example_team, example_formula, STRICT)

    def test_unknown_algo(self, example_team, example_formula):
        with pytest.raises(ValueError):
            mc(example_team, example_formula, STRICT, algo="magic")

    def test_default_answers_past_the_recursion_limit(self):
        # The default is the bottom-up table, which does not nest: x1
        # under 1100 splits, where the recursive evaluator nests per split.
        f = parse_formula("x1 | (" * 1100 + "x1" + ")" * 1100)
        team = Team(("x1",), ((1,),))
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert mc(team, f, STRICT) and mc(team, f, LAX)
        finally:
            sys.setrecursionlimit(old)


class TestSplitLoop:
    """``evaluate`` runs one split loop in both modes, which only lax lets
    grow back into the left part; its answers must be the root of the
    pairwise joins of :func:`reference_table`.  The random formulas never
    separate the modes on a whole team; the listed ones do."""

    TEXTS = ["x | y", "(x | !z) | (y | !x)", "=(x; y) | =(y; z)",
             "inc(y, x; y, z) | inc(x, y; z, x)", "ind(x; y | z) | (x & !y)",
             "(x | B) & (T | z)", "(inc(x; z) | x) | (inc(y; x) | !y)",
             "(=(x; y) | z) | (=(z; x) | !y)"]

    @staticmethod
    def answers(t, f, *context):
        """The (strict, lax) answers, each checked against the reference."""
        got = []
        for mode in (STRICT, LAX):
            want = (1 << len(t)) - 1 in reference_table(t, f, mode)[id(f)]
            assert evaluate(t, f, mode) is want, (*context, t.rows, mode)
            got.append(want)
        return tuple(got)

    def test_every_team_over_two_and_three_variables(self):
        seen = set()
        for text in self.TEXTS:
            f = parse_formula(text)
            for t in all_teams(tuple(sorted(variables(f)))):
                seen.add(self.answers(t, f, text))
        assert seen == {(False, False), (False, True), (True, True)}

    def test_random_teams(self):
        rng = random.Random(26)
        seen = set()
        for seed in range(300):
            f = random_formula(RandomFormulaConfig(
                logic=list(LogicKind)[seed % 4], max_vars=4, max_nodes=11,
                max_splits=1 + seed % 3, seed=seed))
            domain = tuple(sorted(set(variables(f)) | {"x1"}))
            seen.add(self.answers(random_team(rng, domain, max_rows=5), f, seed))
        assert seen >= {(False, False), (True, True)}


class TestOracleEquivalence:
    def test_exhaustive_two_variables(self):
        texts = ["x | y", "=(x; y) | !x", "inc(x; y) | (x & y)",
                 "ind(x; y |) | x", "(x | y) | =(; x)"]
        for text in texts:
            f = parse_formula(text)
            for t in all_teams(("x", "y")):
                for mode in (STRICT, LAX):
                    assert evaluate(t, f, mode) == mc_bottom_up(t, f, mode), (
                        text, t.rows, mode
                    )

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(list(LogicKind)), st.integers(0, 10 ** 9))
    def test_random_instances(self, logic, seed):
        rng = random.Random(seed)
        f = random_formula(RandomFormulaConfig(
            logic=logic, max_vars=4, max_nodes=9, seed=seed
        ))
        domain = tuple(sorted(set(variables(f)) | {"x1"}))
        t = random_team(rng, domain, max_rows=4)
        for mode in (STRICT, LAX):
            assert evaluate(t, f, mode) == mc_bottom_up(t, f, mode)

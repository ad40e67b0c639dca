"""Atom evaluation and recursive split semantics."""

import random

import pytest

from teamlog import (
    And,
    Bot,
    Dep,
    EngineNotApplicableError,
    EnumerationCapError,
    Inc,
    Indep,
    LogicKind,
    Not,
    Or,
    ResourceBoundError,
    Team,
    Top,
    UnknownVariableError,
    VarRef,
    evaluate,
    parse_formula,
)
from teamlog import semantics
from teamlog.semantics import SemanticsMode, TeamEvaluator, eval_atom, members
from teamlog.errors import ArityMismatchError
from teamlog.reductions import RandomFormulaConfig, random_formula

from conftest import (all_teams, random_team, reference_atom, subteam_mask,
                      subteams)

STRICT = SemanticsMode.STRICT
LAX = SemanticsMode.LAX
MODES = (STRICT, LAX)


def T(domain, *rows):
    return Team(tuple(domain), tuple(tuple(r) for r in rows))


class TestLiterals:
    def test_empty_team_vacuously_true(self):
        t = T(("x",))
        assert eval_atom(t, VarRef("x"))
        assert eval_atom(t, Not(VarRef("x")))

    def test_example_team_columns(self, example_team):
        assert eval_atom(example_team, VarRef("x3"))
        assert not eval_atom(example_team, VarRef("x1"))
        assert not eval_atom(example_team, Not(VarRef("x1")))

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            eval_atom(T(("x",), (1,)), VarRef("y"))


class TestDep:
    def test_singleton_always_true(self):
        t = T("xy", (1, 0))
        assert eval_atom(t, Dep(("x",), ("y",)))
        assert eval_atom(t, Dep((), ("x", "y")))

    def test_violating_pair(self):
        t = T("xy", (0, 0), (0, 1))
        assert not eval_atom(t, Dep(("x",), ("y",)))

    def test_functional_pair(self):
        t = T("xy", (0, 0), (1, 1))
        assert eval_atom(t, Dep(("x",), ("y",)))

    def test_empty_xs_is_constancy(self):
        assert eval_atom(T("xy", (0, 0), (1, 0)), Dep((), ("y",)))
        assert not eval_atom(T("xy", (0, 0), (0, 1)), Dep((), ("y",)))


class TestInc:
    def test_empty_team_true(self):
        assert eval_atom(T("xy"), Inc(("x",), ("y",)))

    def test_cross_witnesses(self):
        t = T("xy", (0, 1), (1, 0))
        assert eval_atom(t, Inc(("x",), ("y",)))

    def test_singleton_agreeing_row(self):
        assert eval_atom(T("xy", (1, 1)), Inc(("x",), ("y",)))
        assert not eval_atom(T("xy", (1, 0)), Inc(("x",), ("y",)))

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            eval_atom(T("xy", (0, 0)), Inc(("x", "y"), ("x",)))


class TestIndep:
    def test_singleton_trivially_true(self):
        t = T("xy", (1, 0))
        assert eval_atom(t, Indep(("x",), ("y",), ()))
        assert eval_atom(t, Indep(("x",), ("y",), ("x",)))

    def test_full_square_true(self):
        t = T("xy", (0, 0), (0, 1), (1, 0), (1, 1))
        assert eval_atom(t, Indep(("x",), ("y",), ()))

    def test_diagonal_false(self):
        t = T("xy", (0, 0), (1, 1))
        assert not eval_atom(t, Indep(("x",), ("y",), ()))

    def test_conditioning_restores_truth(self):
        # rows agree on z only within the pairs that already combine
        t = T("xyz", (0, 0, 0), (1, 1, 1))
        assert eval_atom(t, Indep(("x",), ("y",), ("z",)))


def random_atom(rng: random.Random, domain):
    """A literal, constant or dependency atom over ``domain``; tuples may
    be empty (except the x and y of an independence atom) and may repeat
    variables."""
    def tup(lo, hi):
        return tuple(rng.choice(domain) for _ in range(rng.randint(lo, hi)))

    kind = rng.randrange(7)
    if kind == 0:
        return Top()
    if kind == 1:
        return Bot()
    if kind == 2:
        return VarRef(rng.choice(domain))
    if kind == 3:
        return Not(VarRef(rng.choice(domain)))
    if kind == 4:
        return Dep(tup(0, 3), tup(1, 2))
    if kind == 5:
        xs = tup(0, 3)
        return Inc(xs, tuple(rng.choice(domain) for _ in xs))
    return Indep(tup(1, 2), tup(1, 2), tup(0, 2))


class TestAtomKernel:
    """The row-mask constraints of :meth:`TeamEvaluator._atom` against the
    textbook atom semantics, on every subteam."""

    def test_check_and_table_match_reference(self):
        domain = ("a", "b", "c", "d")
        rng = random.Random(2024)
        seen = set()
        checked = 0
        for _ in range(2000):
            atom = random_atom(rng, domain)
            size = rng.randint(0, 8)
            t = random_team(rng, domain, max_rows=size, min_rows=size)
            ev = TeamEvaluator(t.domain, t.rows, atom, STRICT)
            table = set(members(ev.atom_bits(0)))
            for m in range(1 << len(t)):
                expected = reference_atom(subteam_mask(t, m), atom)
                assert ev.check_at(0, m) is expected, (atom, t.rows, m)
                assert (m in table) is expected, (atom, t.rows, m)
                checked += 1
            assert eval_atom(t, atom) is reference_atom(t, atom), (atom, t.rows)
            seen.add(type(atom))
            xs = getattr(atom, "xs", None)
            if xs is not None and len(set(xs)) < len(xs):
                seen.add("repeated variable")
            if xs == () or getattr(atom, "zs", None) == ():
                seen.add("empty tuple")
        assert {Top, Bot, VarRef, Not, Dep, Inc, Indep,
                "repeated variable", "empty tuple"} <= seen
        assert checked > 50_000

    def test_all_empty_tuples_match_reference(self):
        # The random atoms above never leave every tuple of a value query
        # empty, as these do: ind(a; |) asks for the rows' () values.
        atoms = (Inc((), ()), Dep((), ()), Dep(("a",), ()), Indep((), (), ()),
                 Indep(("a",), (), ()), Indep((), ("b",), ()),
                 Indep(("a",), ("b",), ()))
        rng = random.Random(7)
        for atom in atoms:
            for size in range(5):
                t = random_team(rng, ("a", "b"), max_rows=size, min_rows=size)
                ev = TeamEvaluator(t.domain, t.rows, atom, STRICT)
                table = set(members(ev.atom_bits(0)))
                for m in range(1 << len(t)):
                    expected = reference_atom(subteam_mask(t, m), atom)
                    assert ev.check_at(0, m) is expected, (atom, t.rows, m)
                    assert (m in table) is expected, (atom, t.rows, m)

    def test_at_most_one_row_needs_no_dependence_constraint(self):
        for rows in ((), ((0, 1, 1),)):
            t = T("xyz", *rows)
            for atom in (Dep(("x",), ("y",)), Indep(("x",), ("y",), ("z",))):
                assert TeamEvaluator(t.domain, t.rows, atom, STRICT)._atom(atom) == []

    def test_non_atoms_raise_type_error(self):
        t = T("x", (1,))
        for bad in ("x", None, And(VarRef("x"), VarRef("y"))):
            with pytest.raises(TypeError):
                eval_atom(t, bad)


def test_value_masks_match_row_loop(monkeypatch):
    # Both regimes (one OR per row below max(32, 4 k 2^k) rows for k
    # variables, column ANDs from there on) against one OR per row, on
    # tuples with and without a repeated variable, as in inc(x, x; y, z).
    # Each column mask is built at most once per evaluator.
    columns = []
    column_ones = semantics._column_ones
    monkeypatch.setattr(semantics, "_column_ones", lambda rows, i: (
        columns.append(i) or column_ones(rows, i)))
    rng = random.Random(7)
    domain = tuple(f"x{j}" for j in range(11))
    for n in (0, 1, 2, 31, 32, 95, 96, 255, 256, 512, 2048):
        rows = rng.sample(range(2048), n)
        rows = [tuple(r >> (10 - j) & 1 for j in range(11)) for r in rows]
        ev = TeamEvaluator(domain, rows, Top(), STRICT)
        columns.clear()
        for k in range(6):
            for vs in (tuple(rng.sample(domain, k)),
                       tuple(rng.choices(domain[:3], k=k))):
                expected = {}
                for j, row in enumerate(rows):
                    key = tuple(row[domain.index(v)] for v in vs)
                    expected[key] = expected.get(key, 0) | 1 << j
                got = ev.value_masks(vs)
                assert list(got.items()) == list(expected.items()), (n, vs)
        assert len(columns) == len(set(columns)), n
    assert columns  # the column ANDs ran on 2048 rows


def test_atom_compiles_once_per_evaluator(monkeypatch):
    # atom_bits reads the constraints that check_at compiled
    f = parse_formula("=(x; y) & (x | =(y; x))")
    t = T("xy", (0, 0), (1, 1))
    compiled = []
    atom = TeamEvaluator._atom
    monkeypatch.setattr(TeamEvaluator, "_atom",
                        lambda self, node: compiled.append(node) or atom(self, node))
    ev = TeamEvaluator(t.domain, t.rows, f, STRICT)
    assert ev.check_at(0, 0b11)
    assert len(compiled) == 3
    for i, g in enumerate(ev.nodes):
        if type(g) in (VarRef, Dep):
            assert members(ev.atom_bits(i)) == [
                m for m in range(4) if ev.check_at(i, m)]
    assert len(compiled) == 3


class TestMaxModel:
    """max_model is the largest lax model inside a subteam: a model under
    the split semantics, holding every lax model inside that subteam."""

    def test_largest_lax_model(self):
        rng = random.Random(15)
        shapes = set()
        for seed in range(200):
            f = random_formula(RandomFormulaConfig(
                logic=rng.choice((LogicKind.PL, LogicKind.PINC)), max_vars=4,
                max_nodes=13, max_splits=3, seed=seed))
            team = random_team(rng, ("x1", "x2", "x3", "x4"), max_rows=10)
            ev = TeamEvaluator(team.domain, team.rows, f, LAX)
            models = [m for m in range(1 << len(team)) if ev.check_at(0, m)]
            for sub in ((1 << len(team)) - 1, rng.getrandbits(len(team))):
                got = ev.max_model(sub)
                assert evaluate(subteam_mask(team, got), f, LAX), (seed, sub)
                inside = [m for m in models if not m & ~sub]
                assert all(not m & ~got for m in inside), (seed, sub)
                assert got in inside, (seed, sub)
            shapes.update(type(g) for g in ev.nodes)
            shapes.update("& in |" for i, g in enumerate(ev.nodes)
                          if type(g) is Or and And in
                          {type(ev.nodes[k]) for k in ev.kids[i]})
        assert {Top, Bot, Inc, "& in |"} <= shapes

    def test_deep_formula_and_budget(self):
        # Each level visits its split and its x; the innermost !x ends it.
        depth = 3000
        f = parse_formula("(x | " * depth + "!x" + ")" * depth)
        ev = TeamEvaluator(("x",), [(0,), (1,)], f, LAX)
        assert ev.max_model(0b11) == 0b11
        assert ev.max_model(0b11, budget=2 * depth + 1) == 0b11
        with pytest.raises(ResourceBoundError):
            ev.max_model(0b11, budget=2 * depth)
        assert ev.max_model(0, budget=0) == 0  # the empty team visits nothing

    def test_conjunction_budget(self):
        # Over all 8 rows, the conjuncts prune in turn.  Visits: the & once;
        # then inc(x1; x2) and inc(x2; x3) keep all rows and !x3 drops the
        # x3 rows; inc(x1; x2) keeps them, inc(x2; x3) drops the x2 rows and
        # !x3 keeps the rest; inc(x1; x2) drops the x1 rows, and the other
        # two keep row 000: 1 + 9 visits.
        f = parse_formula("inc(x1; x2) & inc(x2; x3) & !x3")
        rows = [(v >> 2, v >> 1 & 1, v & 1) for v in range(8)]
        ev = TeamEvaluator(("x1", "x2", "x3"), rows, f, LAX)
        assert ev.max_model(0xFF) == 0b1
        assert ev.max_model(0xFF, budget=10) == 0b1
        with pytest.raises(ResourceBoundError):
            ev.max_model(0xFF, budget=9)

    def test_rejects_dependence_atoms(self):
        ev = TeamEvaluator(("x", "y"), [(0, 0), (0, 1)],
                           parse_formula("x | =(x; y)"), LAX)
        with pytest.raises(EngineNotApplicableError):
            ev.max_model(0b11)


class TestEvaluate:
    def test_example_formula_strict(self, example_team, example_formula):
        assert evaluate(example_team, example_formula, STRICT)
        assert evaluate(example_team, example_formula, LAX)

    def test_empty_team_satisfies_everything(self, example_formula):
        empty = T(("x1", "x2", "x3", "x4"))
        for mode in MODES:
            assert evaluate(empty, example_formula, mode)
            assert evaluate(empty, parse_formula("B"), mode)

    def test_failing_dependence(self):
        t = T("xy", (0, 0), (0, 1))
        assert not evaluate(t, parse_formula("=(x; y)"), LAX)

    def test_bot_only_on_empty_team(self):
        assert evaluate(T("x"), parse_formula("B"), STRICT)
        assert not evaluate(T("x", (0,)), parse_formula("B"), STRICT)

    def test_top_always(self):
        assert evaluate(T("x", (0,), (1,)), parse_formula("T"), STRICT)

    def test_strict_vs_lax_split_difference(self):
        # Inclusion atoms are not downward closed, so a cover that
        # shares rows between the disjuncts can succeed where every
        # partition fails.
        f = parse_formula("inc(x2, x1; x2, x3) | inc(x1, x2; x3, x1)")
        t = T(("x1", "x2", "x3"),
              (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1))
        assert evaluate(t, f, LAX)
        assert not evaluate(t, f, STRICT)

    def test_enumeration_cap(self):
        t = T("xyzwv", *[tuple(i >> j & 1 for j in range(5)) for i in range(17)])
        with pytest.raises(EnumerationCapError):
            evaluate(t, parse_formula("x | y"), STRICT, cap=16)
        # raising the cap permits the evaluation
        assert isinstance(evaluate(t, parse_formula("x | !x"), STRICT, cap=17), bool)

    def test_unknown_variable(self):
        t = T("x", (1,))
        with pytest.raises(UnknownVariableError):
            evaluate(t, parse_formula("y"), STRICT)

    @pytest.mark.parametrize("text, missing", [
        ("zeta | !b", "['b', 'zeta']"),
        ("=(c, x; a) & d", "['a', 'c']"),
        ("ind(q; x | p) & x", "['p', 'q']"),
        ("inc(x, e; d, x)", "['e']"),
        ("T | (x & !d)", None),
    ])
    def test_unknown_variables_named_in_sorted_order(self, text, missing):
        f = parse_formula(text)
        if missing is None:
            TeamEvaluator(("x", "d"), [(0, 1)], f, STRICT)
            return
        with pytest.raises(UnknownVariableError) as err:
            TeamEvaluator(("x", "d"), [(0, 1)], f, STRICT)
        assert str(err.value) == (
            f"variables {missing} not in team domain ('x', 'd')")


class TestSemanticLawsSmall:
    """Exhaustive desk-scale checks of the closure laws; the acceptance
    suite repeats them at larger random scale."""

    PL = ["x", "!x", "x & y", "x | y", "(x & !y) | (y & !x)", "T", "B"]
    PDL = ["=(x; y)", "=(; y)", "=(x; y) & x", "=(x; y) | y", "x | =(; y)"]
    PINC = ["inc(x; y)", "inc(x; y) & !x", "inc(x; y) | x", "inc(x, y; y, x)"]

    DOMAIN = ("x", "y")

    def test_flatness_of_pl(self):
        for text in self.PL:
            f = parse_formula(text)
            for t in all_teams(self.DOMAIN):
                for mode in MODES:
                    whole = evaluate(t, f, mode)
                    single = all(
                        evaluate(Team(t.domain, (row,)), f, mode) for row in t.rows
                    )
                    assert whole == single, (text, t.rows, mode)

    def test_downward_closure_of_pdl(self):
        for text in self.PL + self.PDL:
            f = parse_formula(text)
            for t in all_teams(self.DOMAIN):
                for mode in MODES:
                    if evaluate(t, f, mode):
                        for p in subteams(t):
                            assert evaluate(p, f, mode), (text, t.rows, p.rows)

    def test_lax_union_closure_of_pinc(self):
        for text in self.PL + self.PINC:
            f = parse_formula(text)
            sat = [t for t in all_teams(self.DOMAIN) if evaluate(t, f, LAX)]
            for a in sat:
                for b in sat:
                    union = Team(a.domain, set(a.rows) | set(b.rows))
                    assert evaluate(union, f, LAX), (text, a.rows, b.rows)

    def test_two_coherence_of_split_free_pdl(self):
        split_free = [s for s in self.PL + self.PDL if "|" not in s]
        for text in split_free:
            f = parse_formula(text)
            for t in all_teams(self.DOMAIN):
                for mode in MODES:
                    whole = evaluate(t, f, mode)
                    pairs = all(
                        evaluate(p, f, mode)
                        for p in subteams(t) if len(p) <= 2
                    )
                    assert whole == pairs, (text, t.rows, mode)

    def test_strict_implies_lax(self):
        for text in self.PL + self.PDL + self.PINC:
            f = parse_formula(text)
            for t in all_teams(self.DOMAIN):
                if evaluate(t, f, STRICT):
                    assert evaluate(t, f, LAX), (text, t.rows)

    def test_strict_equals_lax_on_pdl(self):
        for text in self.PL + self.PDL:
            f = parse_formula(text)
            for t in all_teams(self.DOMAIN):
                assert evaluate(t, f, STRICT) == evaluate(t, f, LAX), (
                    text, t.rows
                )

    def test_empty_team_universality(self):
        empty = T(self.DOMAIN)
        for text in self.PL + self.PDL + self.PINC:
            f = parse_formula(text)
            for mode in MODES:
                assert evaluate(empty, f, mode), text

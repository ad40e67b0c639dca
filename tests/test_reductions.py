"""Set-splitting reduction, atom translation and formula generation."""

import itertools

import pytest

from teamlog import (
    And,
    Dep,
    Inc,
    Indep,
    LogicKind,
    Not,
    Or,
    Team,
    TeamlogError,
    evaluate,
    mc_bottom_up,
    parse_formula,
    render_formula,
    variables,
)
from teamlog.errors import ResourceBoundError
from teamlog.formulas import atoms, split_count
from teamlog.reductions import (
    RandomFormulaConfig,
    SetSplittingInstance,
    dep_to_indep,
    random_formula,
    setsplit_brute,
    setsplit_to_pinc_mc,
)
from teamlog.semantics import SemanticsMode

from conftest import all_teams

STRICT = SemanticsMode.STRICT
LAX = SemanticsMode.LAX


class TestSetSplittingInstance:
    def test_member_outside_base_rejected(self):
        with pytest.raises(TeamlogError):
            SetSplittingInstance(("a",), (frozenset(["b"]),))

    def test_duplicate_element_rejected(self):
        with pytest.raises(TeamlogError):
            SetSplittingInstance(("a", "a"), ())

    def test_object_round_trip(self):
        inst = SetSplittingInstance(
            ("a", "b", "c"), (frozenset(["a", "b"]), frozenset(["c"]))
        )
        assert SetSplittingInstance.from_object(inst.to_object()) == inst


class TestBruteSplit:
    def test_two_elements_forced(self):
        inst = SetSplittingInstance(("a", "b"), (frozenset(["a", "b"]),))
        s1, s2 = setsplit_brute(inst)
        assert {s1, s2} == {frozenset(["a"]), frozenset(["b"])}

    def test_singleton_unsplittable(self):
        inst = SetSplittingInstance(("a",), (frozenset(["a"]),))
        assert setsplit_brute(inst) is None

    def test_triangle_family_unsplittable(self):
        # splitting all three pairs would 2-color a triangle
        inst = SetSplittingInstance(
            ("a", "b", "c"),
            (frozenset(["a", "b"]), frozenset(["b", "c"]), frozenset(["a", "c"])),
        )
        assert setsplit_brute(inst) is None

    def test_three_element_family_splittable(self):
        inst = SetSplittingInstance(
            ("a", "b", "c"),
            (frozenset(["a", "b"]), frozenset(["b", "c"]),
             frozenset(["a", "b", "c"])),
        )
        s = setsplit_brute(inst)
        assert s is not None
        s1, s2 = s
        assert s1 | s2 == {"a", "b", "c"} and not s1 & s2
        assert all(b & s1 and b & s2 for b in inst.sets)

    def test_size_bound(self):
        elems = tuple(f"a{i}" for i in range(21))
        with pytest.raises(ResourceBoundError):
            setsplit_brute(SetSplittingInstance(elems, ()))


class TestReduction:
    def test_shape_two_elements(self):
        inst = SetSplittingInstance(
            ("a1", "a2"), (frozenset(["a1", "a2"]),)
        )
        team, phi = setsplit_to_pinc_mc(inst)
        assert len(team) == 4  # one row per element + two sentinels
        assert len(team.domain) == 6  # p1 p2 q1 p_top p_c p_d
        assert mc_bottom_up(team, phi, STRICT)

    def test_unsplittable_instance_fails_mc(self):
        inst = SetSplittingInstance(("a1",), (frozenset(["a1"]),))
        team, phi = setsplit_to_pinc_mc(inst)
        assert not mc_bottom_up(team, phi, STRICT)

    def test_empty_family_splittable(self):
        inst = SetSplittingInstance(("a1",), ())
        team, phi = setsplit_to_pinc_mc(inst)
        assert phi == Or(Not(parse_formula("p_c")), Not(parse_formula("p_d")))
        assert mc_bottom_up(team, phi, STRICT)

    def test_formula_always_one_split_arity_one(self):
        import random

        rng = random.Random(1)
        for _ in range(30):
            k = rng.randint(1, 4)
            elems = tuple(f"a{i+1}" for i in range(k))
            fam = tuple(
                frozenset(e for e in elems if rng.random() < 0.5)
                for _ in range(rng.randint(0, 3))
            )
            _, phi = setsplit_to_pinc_mc(SetSplittingInstance(elems, fam))
            assert split_count(phi) == 1
            for a in atoms(phi):
                assert isinstance(a, Inc)
                assert len(a.xs) == 1

    def test_equivalence_exhaustive_small(self):
        for k in (1, 2, 3):
            elems = tuple(f"a{i+1}" for i in range(k))
            subsets = [frozenset(c) for r in range(k + 1)
                       for c in itertools.combinations(elems, r)]
            for fam_size in (0, 1, 2):
                for fam in itertools.combinations(subsets, fam_size):
                    inst = SetSplittingInstance(elems, fam)
                    team, phi = setsplit_to_pinc_mc(inst)
                    splittable = setsplit_brute(inst) is not None
                    assert splittable == mc_bottom_up(team, phi, STRICT), inst


class TestDepToIndep:
    def test_basic_atom(self):
        f = dep_to_indep(parse_formula("=(x; y)"))
        assert f == Indep(("y",), ("y",), ("x",))
        assert render_formula(f) == "ind(y; y | x)"

    def test_constancy_atom(self):
        f = dep_to_indep(parse_formula("=(; p)"))
        assert render_formula(f) == "ind(p; p |)"

    def test_pl_unchanged(self):
        f = parse_formula("(x & !y) | T")
        assert dep_to_indep(f) == f

    def test_rejects_other_logics(self):
        with pytest.raises(TeamlogError):
            dep_to_indep(parse_formula("inc(x; y)"))
        with pytest.raises(TeamlogError):
            dep_to_indep(parse_formula("ind(x; y |)"))

    def test_equivalence_on_all_two_variable_teams(self):
        dep_atoms = [Dep(xs, ys)
                     for xs in [(), ("x",), ("y",), ("x", "y")]
                     for ys in [("x",), ("y",), ("x", "y")]]
        for atom in dep_atoms:
            image = dep_to_indep(atom)
            for t in all_teams(("x", "y")):
                for mode in (STRICT, LAX):
                    assert evaluate(t, atom, mode) == evaluate(t, image, mode), (
                        render_formula(atom), t.rows, mode
                    )

    def test_equivalence_inside_formulas(self):
        texts = ["=(x; y) | !x", "(=(; y) & x) | y", "=(x; y) & =(y; x)"]
        for text in texts:
            f = parse_formula(text)
            g = dep_to_indep(f)
            for t in all_teams(("x", "y")):
                for mode in (STRICT, LAX):
                    assert evaluate(t, f, mode) == evaluate(t, g, mode)

    def test_image_arity_counts_distinct_variables(self):
        image = dep_to_indep(Dep(("x",), ("y", "z")))
        from teamlog.structure import parameters

        assert parameters(image).arity == 3


class TestRandomFormula:
    def test_seed_determinism(self):
        cfg = RandomFormulaConfig(logic=LogicKind.PINC, seed=42)
        assert random_formula(cfg) == random_formula(cfg)

    def test_logic_kind_respected(self):
        for logic in LogicKind:
            for seed in range(20):
                f = random_formula(RandomFormulaConfig(logic=logic, seed=seed))
                kinds = {type(a) for a in atoms(f)}
                allowed = {LogicKind.PL: set(), LogicKind.PDL: {Dep},
                           LogicKind.PINC: {Inc}, LogicKind.PIND: {Indep}}
                assert kinds <= allowed[logic]

    def test_bounds_respected(self):
        from teamlog.formulas import formula_size

        for seed in range(50):
            cfg = RandomFormulaConfig(logic=LogicKind.PDL, max_vars=3,
                                      max_nodes=7, max_arity=2, seed=seed)
            f = random_formula(cfg)
            assert formula_size(f) <= 7
            assert len(variables(f)) <= 3

    def test_minimal_budget_gives_atom(self):
        f = random_formula(RandomFormulaConfig(max_nodes=1, seed=3))
        assert not isinstance(f, (And, Or))

    def test_split_free_option(self):
        for seed in range(30):
            f = random_formula(RandomFormulaConfig(
                logic=LogicKind.PINC, seed=seed, max_splits=0,
                max_nodes=11,
            ))
            assert split_count(f) == 0

    def test_max_splits_option(self):
        for seed in range(30):
            f = random_formula(RandomFormulaConfig(
                logic=LogicKind.PINC, seed=seed, max_splits=2, max_nodes=13,
            ))
            assert split_count(f) <= 2

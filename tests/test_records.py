"""Value records: equality, hashing, immutability, repr and construction."""

import pytest

from teamlog import (
    And,
    Bot,
    Dep,
    Inc,
    Indep,
    Not,
    Or,
    RandomFormulaConfig,
    SatResult,
    SatStatus,
    SemanticsMode,
    SetSplittingInstance,
    Team,
    Top,
    VarRef,
    build_sat_table,
    parameters,
    parse_formula,
    parse_team,
    sat_singleton,
)
from teamlog import teams
from teamlog.structure import DecompositionCheck, TreeDecomposition
from teamlog.teams import team_from_object

X, Y = VarRef("x"), VarRef("y")
TEAM = Team(("x", "y"), ((1, 0), (0, 1)))
RECORDS = [
    Top(), Bot(), X, Not(X), And(X, Y), Or(X, Y), Dep(("x",), ("y",)),
    Inc(("x",), ("y",)), Indep(("x",), ("y",), ()), TEAM,
    SatResult(SatStatus.SATISFIABLE, TEAM),
    build_sat_table(TEAM, And(X, Y), SemanticsMode.STRICT),
    TreeDecomposition((frozenset({"x"}),), ()),
    DecompositionCheck(True, width=0), RandomFormulaConfig(seed=3),
    SetSplittingInstance(("a", "b"), (frozenset({"a"}),)),
    parameters(parse_formula("=(x; y) & x"), TEAM),
]


class TestEquality:
    def test_same_fields_other_type_differ(self):
        assert And(X, Y) != Or(X, Y)
        assert not And(X, Y) == Or(X, Y)
        assert Top() != Bot()
        assert Dep(("x",), ("y",)) != Inc(("x",), ("y",))

    def test_equal_records_hash_equal(self):
        for r in RECORDS:
            twin = type(r)(*(getattr(r, name) for name in r._fields))
            assert twin is not r and twin == r and hash(twin) == hash(r)
        assert len({And(X, Y), And(VarRef("x"), VarRef("y")), Or(X, Y)}) == 2

    def test_field_values_matter(self):
        assert And(X, Y) != And(Y, X)
        assert TEAM != Team(("x", "y"), ((1, 0),))
        assert X != "x" and X != ("x",)


class TestImmutable:
    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_assign_and_delete_raise(self, record):
        name = record._fields[0] if record._fields else "anything"
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.new_attribute = 1

    def test_dict_holds_exactly_the_fields(self):
        # A hot record's fields are its ``__init__``'s parameters.
        for r in RECORDS:
            getattr(r, "entries", None)  # a table decodes, caching nothing
            assert list(r.__dict__) == list(r._fields)
        assert TEAM._fields == ("domain", "rows")
        assert And._fields == ("left", "right") and Top._fields == ()


class TestRepr:
    def test_dataclass_style_text(self):
        assert repr(And(X, Y)) == \
            "And(left=VarRef(name='x'), right=VarRef(name='y'))"
        assert repr(Not(X)) == "Not(child=VarRef(name='x'))"
        assert repr(Top()) == "Top()"
        assert repr(Indep(("x",), (), ("z",))) == \
            "Indep(xs=('x',), ys=(), zs=('z',))"
        assert repr(TEAM) == "Team(domain=('x', 'y'), rows=((0, 1), (1, 0)))"
        assert repr(SatResult(SatStatus.UNSATISFIABLE)) == \
            "SatResult(status=<SatStatus.UNSATISFIABLE: 'unsatisfiable'>, " \
            "witness=None)"
        assert repr(DecompositionCheck(False, violation="bag graph is not a tree")) \
            == "DecompositionCheck(valid=False, width=None, " \
               "violation='bag graph is not a tree')"


class TestConstruction:
    def test_keywords_and_defaults(self):
        cfg = RandomFormulaConfig(max_vars=3, seed=7)
        assert (cfg.logic, cfg.max_vars, cfg.max_nodes, cfg.seed,
                cfg.max_splits) == (RandomFormulaConfig().logic, 3, 9, 7, None)
        assert DecompositionCheck(True, 2) == DecompositionCheck(valid=True, width=2)
        assert And(left=X, right=Y) == And(X, Y)
        assert SatResult(SatStatus.UNSATISFIABLE).witness is None

    @pytest.mark.parametrize("build", [
        lambda: RandomFormulaConfig(seeds=1),
        lambda: DecompositionCheck(True, valid=False),
        lambda: DecompositionCheck(True, 1, "v", "extra"),
        lambda: DecompositionCheck(width=1),
        lambda: And(X, Y, Y),
        lambda: And(X, middle=Y),
        lambda: Top(X),
    ])
    def test_bad_fields_raise_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_checks_still_run(self):
        with pytest.raises(ValueError):
            SatResult(SatStatus.UNSATISFIABLE, TEAM)
        with pytest.raises(Exception, match="outside base set"):
            SetSplittingInstance(("a",), (frozenset({"b"}),))

    def test_report_rebuilds_from_its_dict(self):
        r = parameters(parse_formula("=(x; y) & (x | y)"), TEAM, exact_tw=True)
        assert type(r)(**r.__dict__) == r
        bad = type(r)(**dict(r.__dict__, formula_size=r.formula_size + 1))
        assert bad != r and bad.formula_size == r.formula_size + 1


def test_patched_post_init_sees_every_team(monkeypatch):
    # The benchmark counts teams by patching ``Team.__post_init__``.
    seen = []
    post_init = teams.Team.__post_init__

    def counted(team):
        post_init(team)
        seen.append(team)

    monkeypatch.setattr(teams.Team, "__post_init__", counted)
    built = [Team(("x",), ((1,),)), parse_team("x y\n10\n"),
             team_from_object({"vars": ["x"], "rows": [[0]]}),
             sat_singleton(parse_formula("x & !y")).witness]
    assert seen == built and all(a is b for a, b in zip(seen, built))

"""Gaifman graphs, tree decompositions, treewidth and parameters."""

import random
import subprocess
import sys

import pytest

from teamlog import (
    ResourceBoundError,
    Team,
    TreeDecomposition,
    build_gaifman,
    parse_formula,
    parameters,
    to_dot,
    treewidth_exact,
    treewidth_upper,
    validate_decomposition,
    variables,
)
from teamlog import structure
from teamlog.reductions import RandomFormulaConfig, random_formula, LogicKind
from teamlog.structure import GaifmanGraph, decomposition_to_object

from conftest import (
    EXAMPLE_FORMULA_TEXT,
    EXAMPLE_TEAM_TEXT,
    child_env,
    random_team,
    reference_gaifman,
    reference_min_degree,
    reference_min_fill,
    reference_treewidth,
)


def path_graph(n):
    g = GaifmanGraph()
    for i in range(n):
        g.add_vertex(f"v{i}", "subformula", str(i))
    for i in range(n - 1):
        g.add_edge(f"v{i}", f"v{i+1}", "child")
    return g


def dep_chain(atoms, seed=0):
    """``=(x_i[, x_{i-1}]; x_{i+1})`` for i = 1..atoms, folded left into a
    conjunction ``atoms`` deep, over shuffled variable names."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(atoms + 1)]
    rng.shuffle(names)
    parts = []
    for i in range(atoms):
        xs = [names[i]] + ([names[i - 1]] if i and rng.random() < 0.5 else [])
        parts.append(f"=({', '.join(xs)}; {names[i + 1]})")
    return " & ".join(parts)


def graph_from_edges(n, edges, rng=None):
    """Vertices ``v0..v{n-1}``, inserted in shuffled order when ``rng`` is
    given, so that insertion order and names disagree."""
    names = [f"v{i}" for i in range(n)]
    if rng is not None:
        rng.shuffle(names)
    g = GaifmanGraph()
    for name in names:
        g.add_vertex(name, "subformula", name)
    for i, j in edges:
        g.add_edge(f"v{i}", f"v{j}", "child")
    return g


def structured_graphs(rng):
    """Graphs where many vertices tie on fill and degree, or that are
    empty, a single vertex, complete or disconnected."""
    yield graph_from_edges(0, [])
    yield graph_from_edges(1, [], rng)
    yield graph_from_edges(7, [], rng)
    for n in (2, 5, 9):
        yield graph_from_edges(n, [(i, j) for i in range(n) for j in range(i)], rng)
    for n in (3, 8, 13):
        yield graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)], rng)
    for w, h in ((3, 3), (4, 5)):
        yield graph_from_edges(w * h, [(r * w + c, r * w + c + 1) for r in range(h)
                                       for c in range(w - 1)]
                               + [(r * w + c, (r + 1) * w + c) for r in range(h - 1)
                                  for c in range(w)], rng)
    for a, b in ((2, 5), (3, 4)):
        yield graph_from_edges(a + b, [(i, a + j) for i in range(a)
                                       for j in range(b)], rng)
    for n, steps in ((10, (1, 3)), (12, (1, 2, 5))):
        yield graph_from_edges(n, [(i, (i + k) % n) for i in range(n)
                                   for k in steps], rng)
    # three cliques and a path, no edge between them
    yield graph_from_edges(14, [(i, j) for i in range(4) for j in range(i)]
                           + [(i, j) for i in range(4, 8) for j in range(4, i)]
                           + [(8, 9)] + [(i, i + 1) for i in range(10, 13)], rng)


def random_graph(rng, n, p):
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i)
                                if rng.random() < p], rng)


def wide_team(rng, f, rows):
    """A team of ``rows`` rows over the variables of ``f`` and seven more,
    so that even a formula of few variables gets many rows."""
    domain = tuple(sorted(set(variables(f)) | {f"pad{i}" for i in range(7)}))
    return random_team(rng, domain, max_rows=rows, min_rows=rows)


def same_graph(a, b):
    """Equal vertices, labels, tags and the insertion order of each."""
    assert list(a.info.items()) == list(b.info.items())
    assert list(a.adj) == list(b.adj)
    for u in a.adj:
        assert list(a.adj[u].items()) == list(b.adj[u].items()), u
    assert to_dot(a) == to_dot(b)


class TestGaifman:
    def test_example_formula_graph(self, example_formula):
        g = build_gaifman(example_formula)
        assert len(g) == 10
        assert ("var:x3", "var:x4") in g.edges()
        assert "DEP" in g.provenance("var:x3", "var:x4")

    def test_single_variable(self):
        g = build_gaifman(parse_formula("x"))
        assert len(g) == 1
        assert g.edges() == []

    def test_variable_occurrences_share_one_vertex(self):
        # x appears twice but the graph has one variable vertex
        g = build_gaifman(parse_formula("x & (x | y)"))
        names = [v for v in g.vertices() if v.startswith("var:")]
        assert sorted(names) == ["var:x", "var:y"]

    def test_team_constants_adjacent_to_all_variables(self, example_formula,
                                                      example_team):
        g = build_gaifman(example_formula, example_team)
        assert len(g) == 12
        for cid in ("team:0", "team:1"):
            for var in ("x1", "x2", "x3", "x4"):
                assert (min(cid, f"var:{var}"), max(cid, f"var:{var}")) \
                    in g.edges()

    def test_team_edge_provenance_reflects_row_values(self, example_formula,
                                                      example_team):
        g = build_gaifman(example_formula, example_team)
        # rows sort canonically: row 0 = 0011, row 1 = 1110
        assert g.provenance("team:0", "var:x1") == frozenset({"isFalse"})
        assert g.provenance("team:0", "var:x3") == frozenset({"isTrue"})
        assert g.provenance("team:1", "var:x1") == frozenset({"isTrue"})
        assert g.provenance("team:1", "var:x4") == frozenset({"isFalse"})

    def test_wide_atom_variable_clique(self):
        g = build_gaifman(parse_formula("ind(x; y | z)"))
        for a in ("x", "y", "z"):
            for b in ("x", "y", "z"):
                if a < b:
                    assert (f"var:{a}", f"var:{b}") in g.edges()


    def test_matches_recursive_walk(self):
        rng = random.Random(7)
        for seed in range(150):
            f = random_formula(RandomFormulaConfig(
                logic=rng.choice(list(LogicKind)), max_vars=rng.randint(1, 7),
                max_nodes=rng.randint(1, 40), seed=seed,
            ))
            team = wide_team(rng, f, rng.choice((4, 16, 128))) if seed % 3 else None
            same_graph(build_gaifman(f, team), reference_gaifman(f, team))

    def test_shared_subformula_gets_one_vertex_per_occurrence(self):
        x = parse_formula("=(x; y) | !y")
        g = build_gaifman(structure.And(x, x))
        assert [v for v in g.vertices() if v.startswith("sub:")] == [
            f"sub:{i}" for i in range(7)]

    def test_deep_formulas(self):
        # deeper than the default recursion limit allows a recursive walk
        text = "".join(f"(x{i} & " for i in range(1100)) + "y" + ")" * 1100
        g = build_gaifman(parse_formula(text))
        assert len(g) == 1100 + 1101
        g = build_gaifman(parse_formula(" & ".join(["x", "!y"] * 5000)))
        assert len(g) == 9999 + 5000 + 2
        assert len(g.edges()) == 9998 + 10000 + 5000


class TestValidator:
    def test_handmade_decomposition_of_example_graph(self, example_formula):
        g = build_gaifman(example_formula)
        # bags along the syntax tree; atom variables share a bag
        d = TreeDecomposition(
            (
                frozenset({"sub:5", "var:x2"}),
                frozenset({"sub:4", "var:x3", "var:x4"}),
                frozenset({"sub:0", "sub:1", "sub:3"}),
                frozenset({"sub:1", "sub:2", "var:x1"}),
                frozenset({"sub:3", "sub:4", "var:x3"}),
                frozenset({"sub:1", "sub:3", "var:x3"}),
                frozenset({"sub:1", "sub:3", "var:x1"}),
                frozenset({"sub:3", "sub:5", "var:x1"}),
                frozenset({"sub:5", "var:x1"}),
            ),
            ((0, 8), (1, 4), (2, 6), (3, 6), (4, 5), (5, 6), (6, 7), (7, 8)),
        )
        check = validate_decomposition(g, d)
        assert check.valid, check.violation
        assert check.width == 2

    def test_single_bag_always_valid(self, example_formula):
        g = build_gaifman(example_formula)
        d = TreeDecomposition((frozenset(g.vertices()),), ())
        check = validate_decomposition(g, d)
        assert check.valid
        assert check.width == len(g) - 1

    def test_missing_edge_bag_detected(self, example_formula):
        g = build_gaifman(example_formula)
        # cover all vertices but never put x3 and x4 together
        bags = tuple(frozenset({v}) for v in g.vertices())
        edges = tuple((i, i + 1) for i in range(len(bags) - 1))
        check = validate_decomposition(g, TreeDecomposition(bags, edges))
        assert not check.valid
        assert "not inside any bag" in check.violation

    def test_uncovered_vertex_detected(self, example_formula):
        g = build_gaifman(example_formula)
        d = TreeDecomposition((frozenset({"sub:0"}),), ())
        check = validate_decomposition(g, d)
        assert not check.valid
        assert "not covered" in check.violation

    def test_cycle_detected(self):
        g = path_graph(3)
        d = TreeDecomposition(
            (frozenset({"v0", "v1"}), frozenset({"v1", "v2"}),
             frozenset({"v0", "v2"})),
            ((0, 1), (1, 2), (0, 2)),
        )
        check = validate_decomposition(g, d)
        assert not check.valid
        assert "not a tree" in check.violation

    @pytest.mark.parametrize("bags, edges, valid", [
        # a self-loop is an edge, so one bag with one is not a tree
        (({"v0", "v1"},), ((0, 0),), False),
        # a repeated edge collapses into one
        (({"v0", "v1"}, {"v1"}), ((0, 1), (1, 0)), True),
        (({"v0", "v1"}, {"v1"}), ((0, 1), (1, 1)), False),
    ])
    def test_bag_graph_tree_test(self, bags, edges, valid):
        d = TreeDecomposition(tuple(map(frozenset, bags)), edges)
        check = validate_decomposition(path_graph(2), d)
        assert check.valid is valid
        if not valid:
            assert "not a tree" in check.violation

    @pytest.mark.parametrize("bags, edges, violation", [
        (({"v0", "v1"}, {"v1", "v2"}), ((0, 2),), "edge (0,2) out of range"),
        (({"v0", "v1"}, {"v1", "v2"}), ((-1, 0),), "edge (-1,0) out of range"),
        (({"v0", "v1"}, {"v1", "v2"}, {"v2"}), ((0, 1),),
         "bag graph is not a tree"),
        (({"v0"}, {"v1"}), ((0, 1),),
         "vertices not covered by any bag: ['v2']"),
        (({"v0", "v1"}, {"v2"}), ((0, 1),), "edge (v1,v2) not inside any bag"),
        (({"v0", "v1"}, {"v2"}, {"v1", "v2"}), ((0, 1), (1, 2)),
         "bags containing 'v1' are not connected"),
        # with several breaches, the first check in this order reports
        (({"v0"}, {"v1"}, {"v2"}), ((0, 1), (0, 3)), "edge (0,3) out of range"),
        (({"v0"}, {"v3"}, {"v2"}), ((0, 1),), "bag graph is not a tree"),
        (({"v0", "v3"}, {"v2"}), ((0, 1),),
         "vertices not covered by any bag: ['v1']"),
        (({"v0", "v1"}, {"v2"}, {"v1"}), ((0, 1), (1, 2)),
         "edge (v1,v2) not inside any bag"),
        (({"v0", "v1", "x"}, {"v1", "v2"}), ((0, 1),),
         "bag vertices not in the graph: ['x']"),
        (({"v0", "v1"}, {"v1", "v2", "x", "w"}), ((0, 1),),
         "bag vertices not in the graph: ['w', 'x']"),
        (({"v0", "x"}, {"v2"}), ((0, 1),),
         "vertices not covered by any bag: ['v1']"),
        # a bag of strays only: named before the bags of v0..v2 fall apart
        (({"v0", "v1", "v2"}, {"x"}, {"v0", "v1", "v2"}), ((0, 1), (1, 2)),
         "bag vertices not in the graph: ['x']"),
    ])
    def test_first_violation_reported(self, bags, edges, violation):
        d = TreeDecomposition(tuple(map(frozenset, bags)), edges)
        assert validate_decomposition(path_graph(3), d).violation == violation

    def test_disconnected_vertex_in_graph_order(self):
        # b..h all have disconnected bags; the first in vertex order is named,
        # whatever the hash seed
        code = """
from teamlog.structure import GaifmanGraph, TreeDecomposition, validate_decomposition
g = GaifmanGraph()
for v in "abcdefgh":
    g.add_vertex(v, "subformula", v)
for u, v in zip("abcdefg", "bcdefgh"):
    g.add_edge(u, v, "child")
whole = frozenset("abcdefgh")
d = TreeDecomposition((whole, frozenset("a"), whole), ((0, 1), (1, 2)))
print(validate_decomposition(g, d).violation)
"""
        for seed in ("1", "2"):
            proc = subprocess.run([sys.executable, "-c", code],
                                  env=child_env(PYTHONHASHSEED=seed),
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == "bags containing 'b' are not connected\n"

    def test_disconnected_occurrence_detected(self):
        g = path_graph(3)
        d = TreeDecomposition(
            (frozenset({"v0", "v1"}), frozenset({"v1", "v2"}),
             frozenset({"v0", "v2"})),
            ((0, 1), (1, 2)),
        )
        check = validate_decomposition(g, d)
        assert not check.valid
        assert "not connected" in check.violation


class TestTreewidth:
    def test_path_has_width_one(self):
        g = path_graph(5)
        for method in ("min_fill", "min_degree"):
            w, d = treewidth_upper(g, method=method)
            assert w == 1
            assert validate_decomposition(g, d).valid
        w, d = treewidth_exact(g)
        assert w == 1
        assert validate_decomposition(g, d).valid

    def test_example_formula_exact_width_two(self, example_formula):
        g = build_gaifman(example_formula)
        w, d = treewidth_exact(g)
        assert w == 2
        assert validate_decomposition(g, d).valid

    def test_upper_bounds_exact(self, example_formula):
        g = build_gaifman(example_formula)
        exact, _ = treewidth_exact(g)
        for method in ("min_fill", "min_degree"):
            upper, d = treewidth_upper(g, method=method)
            assert upper >= exact
            assert validate_decomposition(g, d).valid

    def test_vertex_cap(self, example_formula, example_team):
        g = build_gaifman(example_formula, example_team)  # 12 vertices
        with pytest.raises(ResourceBoundError):
            treewidth_exact(g, max_vertices=10)

    def test_empty_graph(self):
        g = GaifmanGraph()
        assert treewidth_exact(g) == (-1, TreeDecomposition((), ()))
        assert treewidth_upper(g)[0] == -1

    def test_exact_keeps_the_min_fill_decomposition(self, monkeypatch):
        # min-fill runs once; only a narrower order found by the search
        # is run through the elimination routine a second time
        rng = random.Random(13)
        graphs = [random_graph(rng, rng.randint(1, 14), rng.random())
                  for _ in range(100)]
        calls = []
        eliminate = structure._eliminate
        monkeypatch.setattr(structure, "_eliminate",
                            lambda *args: calls.append(args) or eliminate(*args))
        for g in graphs:
            min_fill = treewidth_upper(g)[1]
            calls.clear()
            width, decomp = treewidth_exact(g)
            if width == min_fill.width:
                assert len(calls) == 1 and decomp == min_fill
            else:
                assert len(calls) == 2

    def test_exact_matches_reference(self):
        rng = random.Random(28)
        graphs = [g for g in structured_graphs(rng) if len(g) <= 10]
        graphs += [random_graph(rng, rng.randint(0, 10), rng.random())
                   for _ in range(200)]
        for seed in range(100):
            f = random_formula(RandomFormulaConfig(
                logic=rng.choice(list(LogicKind)), max_vars=rng.randint(1, 4),
                max_nodes=rng.randint(1, 9), seed=seed,
            ))
            graphs += [g for g in (build_gaifman(f),
                                   build_gaifman(f, random_team(rng, variables(f))))
                       if len(g) <= 10]
        assert len(graphs) > 350
        for g in graphs:
            assert treewidth_exact(g)[0] == reference_treewidth(g.adj)
        # min-fill is optimal on all of those; on these two 9-vertex graphs
        # (every pair but the listed ones is an edge) it is one too wide
        for missing in ({(4, 2), (5, 2), (6, 2), (7, 3), (8, 0), (8, 7)},
                        {(1, 0), (5, 1), (6, 1), (6, 4), (7, 1), (7, 2),
                         (7, 6), (8, 0), (8, 1), (8, 3), (8, 5)}):
            g = graph_from_edges(9, [(i, j) for i in range(9) for j in range(i)
                                     if (i, j) not in missing], rng)
            width = reference_treewidth(g.adj)
            assert treewidth_exact(g)[0] == width == treewidth_upper(g)[0] - 1

    def test_random_graphs_heuristics_validate(self):
        rng = random.Random(12)
        for seed in range(30):
            f = random_formula(RandomFormulaConfig(
                logic=rng.choice(list(LogicKind)), max_vars=4,
                max_nodes=11, seed=seed,
            ))
            g = build_gaifman(f)
            exact = None
            if len(g) <= 16:
                exact, d = treewidth_exact(g)
                assert validate_decomposition(g, d).valid
            for method in ("min_fill", "min_degree"):
                w, d = treewidth_upper(g, method=method)
                assert validate_decomposition(g, d).valid
                if exact is not None:
                    assert w >= exact


class _HeuristicOracle:
    """A heuristic of ``treewidth_upper`` against a rescan of every vertex
    at each step: the same vertex choices, so the same decomposition."""

    method = reference = None

    def check(self, g):
        width, decomp = treewidth_upper(g, self.method)
        assert decomp == self.reference(g.adj)
        assert validate_decomposition(g, decomp).valid

    def test_structured_graphs(self):
        for seed in range(5):
            for g in structured_graphs(random.Random(seed)):
                self.check(g)

    def test_random_graphs(self):
        rng = random.Random(3)
        for _ in range(300):
            self.check(random_graph(rng, rng.randint(0, 30), rng.random()))

    def test_gaifman_graphs_with_teams(self):
        rng = random.Random(5)
        for seed in range(60):
            f = random_formula(RandomFormulaConfig(
                logic=rng.choice(list(LogicKind)), max_vars=rng.randint(2, 8),
                max_nodes=rng.randint(3, 40), seed=seed,
            ))
            self.check(build_gaifman(f))
            self.check(build_gaifman(f, wide_team(rng, f, rng.choice((16, 64, 128)))))

    def test_deep_chain(self):
        self.check(build_gaifman(parse_formula(dep_chain(1100))))


class TestMinFillOracle(_HeuristicOracle):
    method, reference = "min_fill", staticmethod(reference_min_fill)

    def test_exact_treewidth_keeps_its_answers(self, monkeypatch):
        # treewidth_exact starts its search from the min-fill width
        rng = random.Random(11)
        graphs = [random_graph(rng, rng.randint(1, 12), rng.random())
                  for _ in range(40)]
        graphs += [g for g in structured_graphs(rng) if len(g) <= 16]
        found = [treewidth_exact(g) for g in graphs]
        eliminate = structure._eliminate

        def rescanning(adj, method, order=None):
            if order is None and method == "min_fill":
                return reference_min_fill(adj)
            return eliminate(adj, method, order)

        monkeypatch.setattr(structure, "_eliminate", rescanning)
        assert [treewidth_exact(g) for g in graphs] == found


class TestMinDegreeOracle(_HeuristicOracle):
    method, reference = "min_degree", staticmethod(reference_min_degree)


def test_no_networkx_needed():
    # A None entry in sys.modules makes any import of networkx fail.
    code = f"""
import sys
sys.modules["networkx"] = None
from teamlog import (build_gaifman, parameters, parse_formula, parse_team,
                     to_dot, treewidth_exact, treewidth_upper)
f = parse_formula({EXAMPLE_FORMULA_TEXT!r})
team = parse_team({EXAMPLE_TEAM_TEXT!r})
assert parameters(f, team, exact_tw=True).formula_tw == 2
g = build_gaifman(f, team)
for method in ("min_fill", "min_degree"):
    assert treewidth_upper(g, method=method)[0] >= 2
assert treewidth_exact(g)[0] >= 2
assert to_dot(g).startswith("graph gaifman {{")
"""
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


class TestParameters:
    def test_example_instance(self, example_formula, example_team):
        report = parameters(example_formula, example_team, exact_tw=True)
        d = report.to_dict()
        assert d["formula_size"] == 10
        assert d["formula_depth"] == 3
        assert d["num_splits"] == 2
        assert d["num_variables"] == 4
        assert d["arity"] == 1
        assert d["teamsize"] == 2
        assert d["formula_tw"] == 2
        assert d["formula_tw_exact"] is True

    def test_constancy_atom_arity_zero(self):
        assert parameters(parse_formula("=(; y)")).arity == 0

    def test_verum_minimal_report(self):
        r = parameters(parse_formula("T"))
        assert r.formula_size == 1
        assert r.formula_depth == 0
        assert r.num_variables == 0
        assert r.num_splits == 0
        assert r.arity == 0

    def test_independence_arity_counts_distinct_variables(self):
        assert parameters(parse_formula("ind(x, y; y | z)")).arity == 3

    def test_team_free_report_omits_team_fields(self, example_formula):
        d = parameters(example_formula).to_dict()
        assert "teamsize" not in d
        assert "formula_team_tw" not in d

    def test_exact_cap_falls_back_to_heuristic(self, example_formula):
        # exact treewidth takes at most 16 vertices; each row adds one
        team = Team(("x1", "x2", "x3", "x4"),
                    tuple((i >> 2 & 1, i >> 1 & 1, i & 1, 0) for i in range(7)))
        assert len(build_gaifman(example_formula)) <= 16
        assert len(build_gaifman(example_formula, team)) > 16
        d = parameters(example_formula, team, exact_tw=True).to_dict()
        assert d["formula_tw_exact"] is True
        assert d["formula_team_tw_exact"] is False

    def test_team_rows_extend_the_formula_graph(self, monkeypatch):
        # parameters builds the formula graph once and adds the team rows
        # to it; the team treewidth is that of build_gaifman(f, team).
        built = []
        real = structure.build_gaifman
        monkeypatch.setattr(structure, "build_gaifman",
                            lambda *args: built.append(args) or real(*args))
        rng = random.Random(7)
        for seed in range(40):
            f = random_formula(RandomFormulaConfig(
                logic=LogicKind.PDL, max_vars=4, max_nodes=12, seed=seed))
            t = random_team(rng, variables(f), max_rows=6)
            built.clear()
            r = parameters(f, t, exact_tw=seed % 2 == 1)
            assert built == [(f,)], seed
            g = real(f, t)
            if r.formula_team_tw_exact:
                assert r.formula_team_tw == treewidth_exact(g)[0], seed
            else:
                assert r.formula_team_tw == treewidth_upper(g)[0], seed

    def test_report_keys_in_field_order(self, example_formula, example_team):
        names = list(structure.ParameterReport._fields)
        assert list(parameters(example_formula, example_team).to_dict()) == names
        assert list(parameters(example_formula).to_dict()) == names[:8]

    def test_parameter_inequalities(self):
        rng = random.Random(99)
        for seed in range(80):
            f = random_formula(RandomFormulaConfig(
                logic=LogicKind.PDL, max_vars=4, max_nodes=9, seed=seed,
            ))
            from teamlog.formulas import formula_size

            domain = variables(f)
            # size inequalities need the node count to dominate the
            # variable count; bare wide atoms are the one exception
            if not domain or len(domain) > formula_size(f):
                continue
            t = random_team(rng, domain, max_rows=1 << len(domain))
            r = parameters(f, t)
            assert r.teamsize <= 2 ** r.num_variables
            assert r.teamsize <= 2 ** r.formula_size
            assert r.formula_size <= 2 ** (2 * r.formula_depth)


class TestExport:
    def test_dot_output(self, example_formula):
        dot = to_dot(build_gaifman(example_formula))
        assert dot.startswith("graph gaifman {")
        assert dot.count(" -- ") == len(build_gaifman(example_formula).edges())
        assert 'label="=(x3; x4)"' in dot

    def test_decomposition_object(self, example_formula):
        g = build_gaifman(example_formula)
        w, d = treewidth_exact(g)
        obj = decomposition_to_object(d)
        assert obj["width"] == w == 2
        assert all(isinstance(b, list) for b in obj["bags"])
        assert all(len(e) == 2 for e in obj["edges"])

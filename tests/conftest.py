"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools
import os
import random
from pathlib import Path

import pytest

import teamlog
from teamlog import (
    Bot,
    Dep,
    Inc,
    Indep,
    Not,
    Team,
    Top,
    VarRef,
    evaluate,
    parse_formula,
    parse_team,
    variables,
)
from teamlog.formulas import And, Or, atom_variables, render_formula
from teamlog.sat import SatResult, SatStatus, _all_rows
from teamlog.semantics import SemanticsMode, TeamEvaluator
from teamlog.structure import GaifmanGraph, TreeDecomposition

# A nested-split PDL formula with a known shape: 10 AST nodes, depth 3,
# 2 splits, 4 variables, and Gaifman-graph treewidth exactly 2.
EXAMPLE_FORMULA_TEXT = "(x3 | !x1) & (=(x3; x4) | (x1 & x2))"
EXAMPLE_TEAM_TEXT = "x1 x2 x3 x4\n0011\n1110\n"


@pytest.fixture
def example_formula():
    return parse_formula(EXAMPLE_FORMULA_TEXT)


@pytest.fixture
def example_team():
    return parse_team(EXAMPLE_TEAM_TEXT)


def child_env(**overrides: str) -> dict:
    """Environment for a child interpreter that imports this ``teamlog``."""
    env = dict(os.environ, **overrides)
    source = str(Path(teamlog.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (source, env.get("PYTHONPATH")) if p)
    return env


def bits_row(value: int, width: int) -> tuple[int, ...]:
    """Row ``value`` rendered as a big-endian bit tuple of ``width``."""
    return tuple(value >> (width - 1 - j) & 1 for j in range(width))


def team_from_mask(domain: tuple[str, ...], mask: int) -> Team:
    """The subteam of all assignments over ``domain`` selected by ``mask``."""
    n = len(domain)
    rows = tuple(bits_row(i, n) for i in range(1 << n) if mask >> i & 1)
    return Team(domain, rows)


def subteam_mask(team: Team, mask: int) -> Team:
    """The subteam of ``team`` whose rows are the set bits of ``mask``."""
    return Team(team.domain,
                tuple(r for i, r in enumerate(team.rows) if mask >> i & 1))


def all_teams(domain: tuple[str, ...]):
    """Every team over ``domain``, the empty team included."""
    n = len(domain)
    for mask in range(1 << (1 << n)):
        yield team_from_mask(domain, mask)


def random_team(rng: random.Random, domain: tuple[str, ...],
                max_rows: int = 4, min_rows: int = 0) -> Team:
    n = len(domain)
    k = rng.randint(min_rows, min(max_rows, 1 << n))
    picks = rng.sample(range(1 << n), k)
    return Team(domain, tuple(bits_row(v, n) for v in picks))


def subteams(team: Team):
    """All subteams of ``team``, the empty team included."""
    for r in range(len(team.rows) + 1):
        for combo in itertools.combinations(team.rows, r):
            yield Team(team.domain, combo)


# ---------------------------------------------------------------------------
# Textbook atom semantics on a Team, independent of the row-mask kernel

def _codes(team: Team, vs) -> list[tuple[int, ...]]:
    idx = [team.index(v) for v in vs]
    return [tuple(row[i] for i in idx) for row in team.rows]


def _ref_dep(team: Team, xs, ys) -> bool:
    seen: dict[tuple, tuple] = {}
    for xc, yc in zip(_codes(team, xs), _codes(team, ys)):
        if seen.setdefault(xc, yc) != yc:
            return False
    return True


def _ref_indep(team: Team, xs, ys, zs) -> bool:
    xcodes = _codes(team, xs)
    ycodes = _codes(team, ys)
    groups: dict[tuple, list[int]] = {}
    for i, zc in enumerate(_codes(team, zs)):
        groups.setdefault(zc, []).append(i)
    for members in groups.values():
        pairs = {(xcodes[i], ycodes[i]) for i in members}
        xvals = {xcodes[i] for i in members}
        yvals = {ycodes[i] for i in members}
        if any((a, b) not in pairs for a in xvals for b in yvals):
            return False
    return True


def reference_atom(team: Team, atom) -> bool:
    """Evaluate a literal, constant or dependency atom from its definition."""
    if isinstance(atom, Top):
        return True
    if isinstance(atom, Bot):
        return len(team) == 0
    if isinstance(atom, (VarRef, Not)):
        var = atom.name if isinstance(atom, VarRef) else atom.child.name
        want = 1 if isinstance(atom, VarRef) else 0
        i = team.index(var)
        return all(row[i] == want for row in team.rows)
    if isinstance(atom, Dep):
        return _ref_dep(team, atom.xs, atom.ys)
    if isinstance(atom, Inc):
        return set(_codes(team, atom.xs)) <= set(_codes(team, atom.ys))
    if isinstance(atom, Indep):
        return _ref_indep(team, atom.xs, atom.ys, atom.zs)
    raise TypeError(f"not an atomic formula: {atom!r}")


def reference_lax_max(team: Team, f) -> frozenset:
    """The rows of the largest subteam of ``team`` that satisfies the PL or
    PINC formula ``f`` under lax semantics, from the definition: a literal
    keeps the rows it holds on; an inclusion atom drops the rows whose
    x-value no kept row has as y-value until none is left to drop; a split
    unites its sides' largest models; a conjunction passes the rows through
    both conjuncts until they change nothing."""
    def best(node, rows: frozenset) -> frozenset:
        if isinstance(node, Or):
            return best(node.left, rows) | best(node.right, rows)
        if isinstance(node, And):
            while True:
                kept = best(node.right, best(node.left, rows))
                if kept == rows:
                    return rows
                rows = kept
        if isinstance(node, Inc):
            xi = [team.index(v) for v in node.xs]
            yi = [team.index(v) for v in node.ys]
            while True:
                ys = {tuple(r[i] for i in yi) for r in rows}
                kept = frozenset(r for r in rows
                                 if tuple(r[i] for i in xi) in ys)
                if kept == rows:
                    return rows
                rows = kept
        if isinstance(node, (Dep, Indep)):
            raise TypeError(f"not union closed: {node!r}")
        return frozenset(r for r in rows
                         if reference_atom(Team(team.domain, (r,)), node))

    return best(f, frozenset(team.rows))


def reference_singleton(f) -> SatResult:
    """Singleton SAT by one evaluator call per assignment, in the binary
    order of ``_all_rows``: the first satisfying row is the witness."""
    vs = variables(f)
    for row in _all_rows(len(vs)):
        team = Team(vs, (row,))
        if evaluate(team, f, SemanticsMode.STRICT):
            return SatResult(SatStatus.SATISFIABLE, team)
    return SatResult(SatStatus.UNSATISFIABLE)


def reference_brute(f, mode: SemanticsMode, max_vars: int = 4,
                    budget: int = 2_000_000) -> SatResult:
    """SAT by one evaluator check per nonempty team over ``_all_rows``, in
    increasing mask order, one unit of ``budget`` each: the first
    satisfying mask is the witness."""
    vs = variables(f)
    if len(vs) > max_vars:
        return SatResult(SatStatus.RESOURCE_EXHAUSTED)
    rows = _all_rows(len(vs))
    ev = TeamEvaluator(vs, rows, f, mode)
    for mask in range(1, 1 << len(rows)):
        if mask > budget:
            return SatResult(SatStatus.RESOURCE_EXHAUSTED)
        if ev.check_at(0, mask):
            picked = (r for i, r in enumerate(rows) if mask >> i & 1)
            return SatResult(SatStatus.SATISFIABLE, Team(vs, tuple(picked)))
    return SatResult(SatStatus.UNSATISFIABLE)


# ---------------------------------------------------------------------------
# Structure references: the recursive Gaifman walk, and the rescanning
# min-fill and min-degree eliminations that the iterative builder and the
# heap of incremental keys replaced

def reference_gaifman(f, team=None) -> GaifmanGraph:
    """The Gaifman graph built by a recursive walk of the formula."""
    gg = GaifmanGraph()
    counter = [0]

    def var_vertex(name):
        vid = f"var:{name}"
        gg.add_vertex(vid, "variable", name)
        return vid

    def walk(node):
        if isinstance(node, VarRef):
            return var_vertex(node.name)
        vid = f"sub:{counter[0]}"
        counter[0] += 1
        if isinstance(node, (And, Or)):
            gg.add_vertex(vid, "subformula", "&" if isinstance(node, And) else "|")
            for child in (node.left, node.right):
                gg.add_edge(vid, walk(child), "child")
        elif isinstance(node, Not):
            gg.add_vertex(vid, "subformula", "!")
            gg.add_edge(vid, var_vertex(node.child.name), "child")
        else:
            gg.add_vertex(vid, "subformula", render_formula(node))
            if isinstance(node, (Dep, Inc, Indep)):
                used = atom_variables(node)
                for v in used:
                    gg.add_edge(vid, var_vertex(v), "DEP")
                for i, a in enumerate(used):
                    for b in used[i + 1:]:
                        gg.add_edge(var_vertex(a), var_vertex(b), "DEP")
        return vid

    walk(f)
    if team is not None:
        for i, row in enumerate(team.rows):
            cid = f"team:{i}"
            gg.add_vertex(cid, "team", f"c{i + 1}")
            for v in variables(f):
                value = row[team.index(v)]
                gg.add_edge(cid, var_vertex(v), "isTrue" if value else "isFalse")
    return gg


def reference_min_fill_vertex(adj: dict[str, set[str]]) -> str:
    """The vertex whose elimination adds the fewest fill edges.

    Vertices are scanned in stable ascending-degree order; a vertex's
    count stops once it reaches the best so far, and the first vertex of
    no fill is taken at once.  Counts are doubled, since each missing
    edge is seen from both of its ends.
    """
    best, best_fill = None, float("inf")
    for v in sorted(adj, key=lambda u: len(adj[u])):
        ns = adj[v]
        fill = 0
        for a in ns:
            fill += len(ns - adj[a]) - 1
            if fill >= best_fill:
                break
        else:
            if fill == 0:
                return v
            best, best_fill = v, fill
    return best


def reference_min_degree_vertex(adj: dict[str, set[str]]) -> str:
    """The vertex of least degree, the first inserted of those that tie."""
    return min(adj, key=lambda v: len(adj[v]))


def reference_elimination(adj: dict[str, set[str]], pick) -> TreeDecomposition:
    """The decomposition from eliminating, in turn, the vertex that
    ``pick`` chooses from the remaining graph.  A vertex's bag is itself
    plus its remaining neighbours; the bag's tree edge goes to the bag of
    the earliest-eliminated of those neighbours, or else to the last bag."""
    work = {v: set(ns) for v, ns in adj.items()}
    steps = []
    while work:
        v = pick(work)
        ns = work.pop(v)
        for a in ns:
            work[a] |= ns
            work[a] -= {a, v}
        steps.append((v, ns))
    pos = {v: i for i, (v, _) in enumerate(steps)}
    edges = tuple((i, min((pos[u] for u in ns), default=len(steps) - 1))
                  for i, (_, ns) in enumerate(steps[:-1]))
    return TreeDecomposition(tuple(frozenset(ns | {v}) for v, ns in steps),
                             edges)


def reference_min_fill(adj: dict[str, set[str]]) -> TreeDecomposition:
    """The min-fill decomposition, rescanning every vertex at each step."""
    return reference_elimination(adj, reference_min_fill_vertex)


def reference_min_degree(adj: dict[str, set[str]]) -> TreeDecomposition:
    """The min-degree decomposition, rescanning every vertex at each step."""
    return reference_elimination(adj, reference_min_degree_vertex)


def reference_treewidth(adj: dict[str, set[str]]) -> int:
    """Treewidth by the subset recurrence of Bodlaender, Fomin, Koster,
    Kratsch and Thilikos ("On exact algorithms for treewidth", ESA 2006).

    TW(S) = min over v in S of max(TW(S - v), |Q(S - v, v)|), with
    TW(empty) = -1, where Q(S, v) is the set of vertices outside S and v
    that v reaches by paths through S.  The treewidth is TW(V).  Vertex
    ``i`` is the ``i``-th key of ``adj`` and a set S is a bitmask.
    """
    index = {v: i for i, v in enumerate(adj)}
    nbrs = [[index[u] for u in ns] for ns in adj.values()]
    n = len(nbrs)

    def reached(s: int, v: int) -> int:  # |Q(s, v)|
        seen, stack, out = {v}, [v], 0
        while stack:
            for u in nbrs[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    if s >> u & 1:
                        stack.append(u)
                    else:
                        out += 1
        return out

    tw = [-1] * (1 << n)
    for s in range(1, 1 << n):
        tw[s] = min(max(tw[s & ~(1 << v)], reached(s & ~(1 << v), v))
                    for v in range(n) if s >> v & 1)
    return tw[-1]

"""Answer checks that do not share code with the engines they check.

* :func:`classical_sat` decides PL/PDL/PIND satisfiability by assignment
  search: these logics are downward closed with the empty-team property,
  so a formula is satisfiable iff some singleton team satisfies it, and
  on a singleton every dependence and independence atom holds.
* :func:`lax_max_team` computes the largest subteam satisfying a PINC
  formula under lax semantics, which is union closed.  A formula is
  lax-satisfiable iff the largest subteam of the full team is nonempty,
  and every strict model is a lax model.
* :func:`count_nodes` counts AST nodes from the formula text alone.
"""

from __future__ import annotations

import itertools
import re

from teamlog.formulas import And, Bot, Dep, Inc, Indep, Not, Or, Top, VarRef


def _classical(f, row: dict) -> bool:
    stack = [f]
    # Iterative post-order walk; ``values`` maps node ids to truth values.
    values: dict[int, bool] = {}
    while stack:
        node = stack[-1]
        if isinstance(node, (And, Or)):
            if id(node.left) not in values:
                stack.append(node.left)
                continue
            if id(node.right) not in values:
                stack.append(node.right)
                continue
            a, b = values[id(node.left)], values[id(node.right)]
            values[id(node)] = (a and b) if isinstance(node, And) else (a or b)
        elif isinstance(node, VarRef):
            values[id(node)] = row[node.name] == 1
        elif isinstance(node, Not):
            values[id(node)] = row[node.child.name] == 0
        elif isinstance(node, Bot):
            values[id(node)] = False
        elif isinstance(node, (Top, Dep, Indep)):
            values[id(node)] = True
        else:
            raise TypeError(f"classical check does not apply to {node!r}")
        stack.pop()
    return values[id(f)]


def classical_sat(f, names) -> bool:
    """Some assignment over ``names`` satisfies ``f`` read classically."""
    for bits in itertools.product((0, 1), repeat=len(names)):
        if _classical(f, dict(zip(names, bits))):
            return True
    return False


def lax_max_team(f, names, rows: frozenset) -> frozenset:
    """Largest subteam of ``rows`` (tuples over ``names``) satisfying ``f``
    under lax semantics; ``f`` is PL or PINC."""
    col = {v: i for i, v in enumerate(names)}

    def best(node, team: frozenset) -> frozenset:
        if isinstance(node, Top):
            return team
        if isinstance(node, Bot):
            return frozenset()
        if isinstance(node, VarRef):
            return frozenset(r for r in team if r[col[node.name]] == 1)
        if isinstance(node, Not):
            return frozenset(r for r in team if r[col[node.child.name]] == 0)
        if isinstance(node, Or):
            return best(node.left, team) | best(node.right, team)
        if isinstance(node, And):
            while True:
                smaller = best(node.right, best(node.left, team))
                if smaller == team:
                    return team
                team = smaller
        if isinstance(node, Inc):
            xi = [col[v] for v in node.xs]
            yi = [col[v] for v in node.ys]
            while True:
                ys = {tuple(r[i] for i in yi) for r in team}
                kept = frozenset(r for r in team
                                 if tuple(r[i] for i in xi) in ys)
                if kept == team:
                    return team
                team = kept
        raise TypeError(f"lax maximum does not apply to {node!r}")

    return best(f, rows)


def lax_sat(f, names) -> bool:
    full = frozenset(itertools.product((0, 1), repeat=len(names)))
    return bool(lax_max_team(f, names, full))


_TOKEN = re.compile(r"(=\(|inc\(|ind\()[^)]*\)|[A-Za-z_][A-Za-z0-9_]*|[!&|]")


def count_nodes(text: str) -> int:
    """AST node count: one per atom, variable, constant, ``!``, ``&``, ``|``."""
    return len(_TOKEN.findall(text))

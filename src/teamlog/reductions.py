"""Instance generators and translations between logics.

The set-splitting reduction targets strict-semantics model checking for
inclusion logic: a family of subsets is splittable exactly when the
generated (team, formula) pair model checks under strict splits.
"""

from __future__ import annotations

import random
from collections.abc import Mapping

from .errors import ResourceBoundError, TeamlogError
from .formulas import (
    And,
    Bot,
    Dep,
    Formula,
    Inc,
    Indep,
    LogicKind,
    Not,
    Or,
    Top,
    VarRef,
    formula_size,
    node_array,
)
from .records import Record, _set
from .teams import Team, _array

__all__ = [
    "SetSplittingInstance",
    "setsplit_brute",
    "setsplit_to_pinc_mc",
    "dep_to_indep",
    "random_formula",
    "RandomFormulaConfig",
]


class SetSplittingInstance(Record):
    """A family of subsets of a finite base set."""

    def __init__(self, elements: tuple[str, ...],
                 sets: tuple[frozenset[str], ...]):
        base = set(elements)
        if len(base) != len(elements):
            raise TeamlogError("duplicate element in base set")
        for block in sets:
            stray = block - base
            if stray:
                raise TeamlogError(f"set member(s) {sorted(stray)} outside base set")
        _set(self, "elements", elements)
        _set(self, "sets", sets)

    @classmethod
    def from_object(cls, obj: Mapping) -> "SetSplittingInstance":
        """Inverse of :meth:`to_object`.  ``elements`` and each block of
        ``sets`` must be arrays of strings, never a string's characters."""
        try:
            return cls(tuple(_array(obj["elements"], str)),
                       tuple(frozenset(_array(block, str))
                             for block in _array(obj["sets"], list)))
        except (KeyError, TypeError) as exc:
            raise TeamlogError(f"bad set-splitting object: {exc!r}") from exc

    def to_object(self) -> dict:
        return {
            "elements": list(self.elements),
            "sets": [sorted(block) for block in self.sets],
        }


def setsplit_brute(inst: SetSplittingInstance, max_elements: int = 20
                   ) -> tuple[frozenset[str], frozenset[str]] | None:
    """Exhaustively search for a partition meeting every subset on both sides."""
    k = len(inst.elements)
    if k > max_elements:
        raise ResourceBoundError(
            f"base set of size {k} exceeds the bound {max_elements}"
        )
    for mask in range(1 << k):
        s1 = frozenset(e for i, e in enumerate(inst.elements) if mask >> i & 1)
        s2 = frozenset(inst.elements) - s1
        if all(block & s1 and block & s2 for block in inst.sets):
            return s1, s2
    return None


def setsplit_to_pinc_mc(inst: SetSplittingInstance) -> tuple[Team, Formula]:
    """Reduce set splitting to strict model checking for inclusion logic.

    The team has one row per element plus two sentinel rows that pin
    the sides of the single split; each disjunct demands that the
    always-true marker value reappears in every subset-indicator
    column, i.e. that the side hits every subset.
    """
    k = len(inst.elements)
    n = len(inst.sets)
    p_vars = [f"p{i + 1}" for i in range(k)]
    q_vars = [f"q{j + 1}" for j in range(n)]
    domain = tuple(p_vars + q_vars + ["p_top", "p_c", "p_d"])

    def make_row(values: Mapping[str, int]) -> tuple[int, ...]:
        return tuple(values.get(v, 0) for v in domain)

    rows = []
    for i, e in enumerate(inst.elements):
        values = {p_vars[i]: 1, "p_top": 1}
        for j, block in enumerate(inst.sets):
            if e in block:
                values[q_vars[j]] = 1
        rows.append(make_row(values))
    rows.append(make_row({"p_c": 1, "p_top": 1}))
    rows.append(make_row({"p_d": 1, "p_top": 1}))
    team = Team(domain, tuple(rows))

    def side(sentinel: str) -> Formula:
        f: Formula = Not(VarRef(sentinel))
        for q in q_vars:
            f = And(f, Inc(("p_top",), (q,)))
        return f

    return team, Or(side("p_c"), side("p_d"))


def dep_to_indep(f: Formula) -> Formula:
    """Rewrite every dependence atom into its independence equivalent.

    ``=(x; y)`` states that y is a function of x, which is the same as
    y being independent of itself given x, so each atom becomes
    ``ind(y; y | x)``.  PL subformulas pass through unchanged.
    """
    nodes, kids = node_array(f)
    out = list(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        g = nodes[i]
        if isinstance(g, (And, Or)):
            out[i] = type(g)(out[kids[i][0]], out[kids[i][1]])
        elif isinstance(g, Dep):
            out[i] = Indep(g.ys, g.ys, g.xs)
        elif isinstance(g, (Inc, Indep)):
            raise TeamlogError(
                "dep_to_indep applies to PL and PDL formulas only"
            )
    return out[0]


class RandomFormulaConfig(Record):
    _fields = ("logic", "max_vars", "max_nodes", "max_arity", "seed",
               "max_splits")
    logic: LogicKind = LogicKind.PDL
    max_vars: int = 4
    max_nodes: int = 9
    max_arity: int = 2
    seed: int = 0
    max_splits: int | None = None


def random_formula(cfg: RandomFormulaConfig) -> Formula:
    """Seed-deterministic random formula within the configured bounds."""
    rng = random.Random(cfg.seed)
    names = [f"x{i + 1}" for i in range(max(1, cfg.max_vars))]
    splits_left = [cfg.max_splits if cfg.max_splits is not None else 10 ** 9]

    def vtuple(min_len: int = 0) -> tuple[str, ...]:
        length = rng.randint(min_len, max(min_len, cfg.max_arity))
        return tuple(rng.choice(names) for _ in range(length))

    def atom() -> Formula:
        choices = ["lit", "lit", "const"]
        if cfg.logic is not LogicKind.PL:
            choices.extend(["dep", "dep"])
        pick = rng.choice(choices)
        if pick == "const":
            return Top() if rng.random() < 0.5 else Bot()
        if pick == "lit":
            v = VarRef(rng.choice(names))
            return v if rng.random() < 0.5 else Not(v)
        if cfg.logic is LogicKind.PDL:
            return Dep(vtuple(), vtuple(min_len=1))
        if cfg.logic is LogicKind.PINC:
            xs = vtuple(min_len=1)
            ys = tuple(rng.choice(names) for _ in xs)
            return Inc(xs, ys)
        return Indep(vtuple(min_len=1), vtuple(min_len=1), vtuple())

    def build(budget: int) -> Formula:
        # a literal costs up to 2 nodes, a connective needs 1 + two children
        if budget < 4 or rng.random() < 0.3:
            f = atom()
            while formula_size(f) > budget:
                f = atom()
            return f
        can_split = splits_left[0] > 0
        use_or = can_split and rng.random() < 0.5
        if use_or:
            splits_left[0] -= 1
        left_budget = rng.randint(1, budget - 2)
        left = build(left_budget)
        right = build(budget - 1 - formula_size(left))
        return Or(left, right) if use_or else And(left, right)

    return build(max(1, cfg.max_nodes))

"""Satisfiability engines.

Four routes with very different scaling behaviour:

* :func:`sat_brute` enumerates every nonempty team over the formula's
  variables.  It is the reference oracle for the other engines.
* :func:`sat_singleton` searches single assignments, bit-parallel over
  blocks of them; complete for PL, PDL and PIND, whose formulas are
  satisfiable iff some singleton team satisfies them.
* :func:`sat_fixpoint` is a determinized backtracking search over the
  choice points of a nondeterministic fixpoint construction for PINC:
  guess small initial subteams per atom, then alternate bottom-up
  repair/union rounds with top-down copy/distribution rounds until the
  per-node teams stop growing.
* :func:`sat_split_free` decides disjunction-free PINC in polynomial
  time by propagating literal labels through inclusion atoms.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import EngineNotApplicableError, RepairError, ResourceBoundError
from .formulas import (
    And,
    Bot,
    Formula,
    Inc,
    LogicKind,
    Not,
    Or,
    Top,
    VarRef,
    logic_kind,
    subformulas,
    variables,
)
from .semantics import SemanticsMode, TeamEvaluator, _bits, eval_inc
from .teams import Team

__all__ = [
    "SatStatus",
    "SatResult",
    "sat_brute",
    "sat_singleton",
    "repair_inclusion",
    "sat_fixpoint",
    "sat_split_free",
    "DEFAULT_FIXPOINT_BUDGET",
]

DEFAULT_BRUTE_MAX_VARS = 4
DEFAULT_FIXPOINT_BUDGET = 2_000_000
#: sat_singleton evaluates 2**_BLOCK_BITS assignments per bit-parallel pass
_BLOCK_BITS = 12


class SatStatus(enum.Enum):
    SATISFIABLE = "satisfiable"
    UNSATISFIABLE = "unsatisfiable"
    RESOURCE_EXHAUSTED = "resource_exhausted"


@dataclass(frozen=True)
class SatResult:
    status: SatStatus
    witness: Optional[Team] = None

    def __post_init__(self):
        if self.witness is not None:
            if self.status is not SatStatus.SATISFIABLE:
                raise ValueError(f"a {self.status.value} result has no witness")
            if len(self.witness) == 0:
                raise ValueError("a satisfiability witness must be nonempty")


def _all_rows(n: int) -> list[tuple[int, ...]]:
    """All assignments over ``n`` variables, ordered as binary numbers."""
    return [
        tuple(i >> (n - 1 - j) & 1 for j in range(n)) for i in range(1 << n)
    ]


def _team(vs: tuple[str, ...], rows: list, mask: int) -> Team:
    """The team of the rows that ``mask`` selects."""
    return Team(vs, tuple(rows[i] for i in _bits(mask)))


class _Budget:
    def __init__(self, limit: int):
        self.left = limit

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise ResourceBoundError("search budget exhausted")


def sat_brute(f: Formula, mode: SemanticsMode,
              max_vars: int = DEFAULT_BRUTE_MAX_VARS,
              budget: int = DEFAULT_FIXPOINT_BUDGET) -> SatResult:
    """Enumerate all nonempty teams over VAR(f) in canonical order.

    Teams are subsets of the assignment list encoded as bitmasks and
    scanned in increasing mask order, so the returned witness is the
    satisfying team with the least mask.  Singletons do not all come
    first: mask 3 (two rows) precedes mask 4 (one row).  Each
    candidate team spends one unit of ``budget``.  No later candidate
    revisits a candidate's own mask, so the memo entries that the root
    and its conjuncts leave at that mask are dropped after each check;
    entries at proper submasks, left by splits, are kept for reuse.
    """
    vs = variables(f)
    if len(vs) > max_vars:
        return SatResult(SatStatus.RESOURCE_EXHAUSTED)
    rows = _all_rows(len(vs))
    ev = TeamEvaluator(vs, rows, f, mode)
    spine, stack = [], [f]
    while stack:
        g = stack.pop()
        spine.append(id(g))
        if isinstance(g, And):
            stack += [g.left, g.right]
    spent = _Budget(budget)
    try:
        for mask in range(1, 1 << len(rows)):
            spent.spend()
            if ev.check(f, mask):
                return SatResult(SatStatus.SATISFIABLE, _team(vs, rows, mask))
            for key in spine:
                ev.memo.pop((key, mask), None)
    except ResourceBoundError:
        return SatResult(SatStatus.RESOURCE_EXHAUSTED)
    return SatResult(SatStatus.UNSATISFIABLE)


def _periodic(k: int, width: int) -> int:
    """Bit ``i`` of the result is bit ``k`` of ``i``, for ``i < width``."""
    period = 1 << (k + 1)
    pattern = ((1 << (1 << k)) - 1) << (1 << k)
    return ((1 << width) - 1) // ((1 << period) - 1) * pattern


def sat_singleton(f: Formula,
                  budget: int = DEFAULT_FIXPOINT_BUDGET) -> SatResult:
    """Search satisfying singleton teams; complete for PL, PDL and PIND.

    Over a singleton team every dependence and independence atom holds
    and a split leaves one side empty, so the search is classical
    assignment search.  It runs bit-parallel over blocks of
    ``2**_BLOCK_BITS`` assignments in :func:`_all_rows` order: bit ``i``
    of a node's value says whether the block's ``i``-th assignment
    satisfies the node.  Within a block the trailing variables take
    periodic masks and the leading ones are constant.  The witness is the
    first satisfying assignment in that order.  Each assignment scanned
    spends one unit of ``budget``, so a witness is found exactly when it
    lies among the first ``budget`` assignments.
    """
    kind = logic_kind(f)
    if kind not in (LogicKind.PL, LogicKind.PDL, LogicKind.PIND):
        raise EngineNotApplicableError(
            f"singleton search is incomplete for {kind.value}; "
            "inclusion logic is not downward closed"
        )
    vs = variables(f)
    n = len(vs)
    low = min(n, _BLOCK_BITS)
    size = 1 << low
    full = (1 << size) - 1
    periodic = [_periodic(k, size) for k in range(low)]
    # variable vs[j] is bit n-1-j of an assignment's index in _all_rows
    shift = {v: n - 1 - j for j, v in enumerate(vs)}
    order = subformulas(f)[::-1]
    for base in range(0, 1 << n, size):
        left = budget - base
        if left <= 0:
            return SatResult(SatStatus.RESOURCE_EXHAUSTED)
        lit = {v: periodic[k] if k < low else full * (base >> k & 1)
               for v, k in shift.items()}
        val = {}
        for g in order:
            t = type(g)
            if t is VarRef:
                m = lit[g.name]
            elif t is Not:
                m = full ^ val[id(g.child)]
            elif t is And:
                m = val[id(g.left)] & val[id(g.right)]
            elif t is Or:
                m = val[id(g.left)] | val[id(g.right)]
            elif t is Bot:
                m = 0
            else:  # Top, Dep and Indep hold on every single row
                m = full
            val[id(g)] = m
        scanned = min(left, size)
        hits = val[id(f)] & ((1 << scanned) - 1)
        if hits:
            i = base + (hits & -hits).bit_length() - 1
            row = tuple(i >> k & 1 for k in shift.values())
            return SatResult(SatStatus.SATISFIABLE, Team(vs, (row,)))
        if scanned < size:
            return SatResult(SatStatus.RESOURCE_EXHAUSTED)
    return SatResult(SatStatus.UNSATISFIABLE)


def _mirrored(row: tuple, pairs) -> tuple:
    """``row`` with the value at each ``src`` position copied to ``dst``."""
    t = list(row)
    for src, dst in pairs:
        t[dst] = row[src]
    return tuple(t)


def repair_inclusion(team: Team, atom: Inc) -> Team:
    """Extend ``team`` to satisfy ``atom`` by mirroring each row's
    x-value into the y-positions; at most one row is added per input
    row, so the result never exceeds twice the input size.

    Raises :class:`RepairError` when the one-pass rule fails, which can
    only happen if the atom's tuples share variables.
    """
    if eval_inc(team, atom.xs, atom.ys):
        return team
    pairs = [(team.index(x), team.index(y)) for x, y in zip(atom.xs, atom.ys)]
    rows = set(team.rows) | {_mirrored(row, pairs) for row in team.rows}
    repaired = Team(team.domain, tuple(rows))
    if not eval_inc(repaired, atom.xs, atom.ys):
        raise RepairError(
            f"one-pass repair failed for inc atom with overlapping tuples "
            f"{atom.xs} / {atom.ys}"
        )
    return repaired


# ---------------------------------------------------------------------------
# Determinized fixpoint search for PINC

class _Reject(Exception):
    pass


class _Node:
    __slots__ = ("kind", "formula", "left", "right")

    def __init__(self, kind, formula, left=None, right=None):
        self.kind = kind  # "and" | "or" | "atom"
        self.formula = formula
        self.left = left
        self.right = right


def _build_nodes(f: Formula) -> list[_Node]:
    """Pre-order node list; negated literals are single atom nodes."""
    nodes: list[_Node] = []

    def walk(g: Formula) -> int:
        idx = len(nodes)
        if isinstance(g, (And, Or)):
            node = _Node("and" if isinstance(g, And) else "or", g)
            nodes.append(node)
            node.left = walk(g.left)
            node.right = walk(g.right)
        else:
            nodes.append(_Node("atom", g))
        return idx

    walk(f)
    return nodes


class _FixpointSearch:
    """Per-node states are row bitmasks over all assignments to VAR(f),
    and every atom check goes through one evaluator over those rows."""

    def __init__(self, f: Formula, mode: SemanticsMode, budget: _Budget,
                 repair_log: Optional[list]):
        self.mode = mode
        self.budget = budget
        self.repair_log = repair_log
        self.formula = f
        self.vars = variables(f)
        self.rows = _all_rows(len(self.vars))
        self.nodes = _build_nodes(f)
        self.ev = TeamEvaluator(self.vars, self.rows, f, mode)
        self._mirrors: dict[int, list[int]] = {}

    # -- initial guesses ----------------------------------------------------

    def _atom_candidates(self, atom: Formula) -> list[int]:
        if not isinstance(atom, Inc):
            # The empty team or one row that satisfies the literal.
            return [0] + [1 << i for i in range(len(self.rows))
                          if self.ev.check(atom, 1 << i)]
        # One row per y-value class: the bounded guesses the correctness
        # argument needs (at most 2^arity rows).
        picks = [[0] + [1 << i for i in _bits(ymask)]
                 for ymask in self.ev.value_masks(atom.ys).values()]
        cands = [sum(combo) for combo in itertools.product(*picks)]
        cands.sort(key=lambda m: (m.bit_count(), _bits(m)))
        return cands

    # -- rounds -------------------------------------------------------------

    def _mirror(self, atom: Inc) -> list[int]:
        """Per row, the index of the row with its x-value copied into the
        y-positions."""
        mirror = self._mirrors.get(id(atom))
        if mirror is None:
            index = {v: i for i, v in enumerate(self.vars)}
            pairs = [(index[x], index[y]) for x, y in zip(atom.xs, atom.ys)]
            position = {row: i for i, row in enumerate(self.rows)}
            mirror = [position[_mirrored(row, pairs)] for row in self.rows]
            self._mirrors[id(atom)] = mirror
        return mirror

    def _repair_atom(self, atom: Formula, rows: int) -> int:
        if not isinstance(atom, Inc):
            if not self.ev.check(atom, rows):
                raise _Reject
            return rows
        # One pass of the mirror rule, as in :func:`repair_inclusion`.
        repaired = rows
        if not self.ev.check(atom, rows):
            mirror = self._mirror(atom)
            for i in _bits(rows):
                repaired |= 1 << mirror[i]
            if not self.ev.check(atom, repaired):
                raise _Reject
        if self.repair_log is not None:
            self.repair_log.append((rows.bit_count(), repaired.bit_count()))
        return repaired

    def _bottom_up(self, state: tuple) -> tuple:
        self.budget.spend()
        new = list(state)
        for idx in range(len(self.nodes) - 1, -1, -1):
            node = self.nodes[idx]
            if node.kind == "atom":
                new[idx] = self._repair_atom(node.formula, new[idx])
            else:
                new[idx] = new[node.left] | new[node.right]
        return tuple(new)

    def _top_down(self, cur: tuple):
        """Yield all successor states for the distribution choices."""
        strict = self.mode is SemanticsMode.STRICT

        def walk(idx: int, new: list):
            node = self.nodes[idx]
            if node.kind == "atom":
                yield None
                return
            left, right = node.left, node.right
            if node.kind == "and":
                new[left] = new[idx]
                new[right] = new[idx]
                for _ in walk(left, new):
                    yield from walk(right, new)
                return
            # split-junction: route rows not yet on either side
            base_l, base_r = new[left], new[right]
            fresh = _bits(new[idx] & ~(base_l | base_r))
            options = ("l", "r") if strict else ("l", "r", "b")
            for combo in itertools.product(options, repeat=len(fresh)):
                self.budget.spend()
                add_l = sum(1 << row for row, o in zip(fresh, combo) if o != "r")
                add_r = sum(1 << row for row, o in zip(fresh, combo) if o != "l")
                new[left] = base_l | add_l
                new[right] = base_r | add_r
                if strict and new[left] & new[right]:
                    continue
                for _ in walk(left, new):
                    yield from walk(right, new)
            new[left], new[right] = base_l, base_r

        new = list(cur)
        for _ in walk(0, new):
            yield tuple(new)

    def run(self) -> Optional[int]:
        """The row mask of the first accepted fixpoint, or None."""
        atom_idxs = [i for i, n in enumerate(self.nodes) if n.kind == "atom"]
        candidate_lists = [
            self._atom_candidates(self.nodes[i].formula) for i in atom_idxs
        ]
        for combo in itertools.product(*candidate_lists):
            state = [0] * len(self.nodes)
            for i, guess in zip(atom_idxs, combo):
                state[i] = guess
            witness = self._search(tuple(state), set())
            if witness is not None:
                return witness
        return None

    def _search(self, state: tuple, seen: set) -> Optional[int]:
        try:
            cur = self._bottom_up(state)
        except _Reject:
            return None
        for new in self._top_down(cur):
            if new == cur:
                if cur[0] and self.ev.check(self.formula, cur[0]):
                    return cur[0]
                continue
            if new in seen:
                continue
            seen.add(new)
            witness = self._search(new, seen)
            if witness is not None:
                return witness
        return None


def sat_fixpoint(f: Formula, mode: SemanticsMode,
                 budget: int = DEFAULT_FIXPOINT_BUDGET,
                 repair_log: Optional[list] = None) -> SatResult:
    """Determinized fixpoint search for PINC satisfiability.

    Exhausts the initial-guess and split-distribution choices in
    canonical order (smaller guesses first), so the first accepted
    fixpoint is deterministic.  ``repair_log`` collects
    (before, after) team sizes for every inclusion repair.
    """
    kind = logic_kind(f)
    if kind not in (LogicKind.PL, LogicKind.PINC):
        raise EngineNotApplicableError(
            f"fixpoint search handles PINC (and plain PL), not {kind.value}"
        )
    search = _FixpointSearch(f, mode, _Budget(budget), repair_log)
    try:
        witness = search.run()
    except ResourceBoundError:
        return SatResult(SatStatus.RESOURCE_EXHAUSTED)
    if witness is None:
        return SatResult(SatStatus.UNSATISFIABLE)
    return SatResult(SatStatus.SATISFIABLE,
                     _team(search.vars, search.rows, witness))


# ---------------------------------------------------------------------------
# Labelling procedure for split-free PINC

def _conjuncts(f: Formula) -> list[Formula]:
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack.append(g.right)
            stack.append(g.left)
        else:
            out.append(g)
    return out


def sat_split_free(f: Formula, max_free_vars: int = 20) -> SatResult:
    """SAT for split-free PINC via label propagation plus pruning.

    Literals pin their variables; inclusion atoms propagate a label on
    a right-hand variable to the left-hand variable at the same
    position.  A variable labelled with both values means unsat.

    Otherwise every satisfying team lies inside the label-consistent
    full team, and split-free inclusion formulas are union closed, so
    the union of all satisfying teams is the greatest fixpoint of
    deleting rows whose x-value lacks a y-witness.  The formula is
    satisfiable iff that fixpoint is nonempty; the fixpoint is the
    witness.  (The extra pruning matters only for inclusion atoms
    whose tuples repeat or share variables; for disjoint single
    occurrences the label-consistent team is already satisfying.)
    """
    kind = logic_kind(f)
    if kind not in (LogicKind.PL, LogicKind.PINC):
        raise EngineNotApplicableError(
            f"the labelling procedure handles PINC (and plain PL), "
            f"not {kind.value}"
        )
    conjuncts = _conjuncts(f)
    if any(isinstance(g, Or) for g in conjuncts):
        raise EngineNotApplicableError(
            "the labelling procedure requires a split-free formula"
        )
    inc_atoms: list[Inc] = []
    labels: dict[str, int] = {}

    def label(v: str, c: int) -> bool:
        if labels.setdefault(v, c) != c:
            return False
        return True

    for g in conjuncts:
        if isinstance(g, Top):
            continue
        if isinstance(g, Bot):
            return SatResult(SatStatus.UNSATISFIABLE)
        if isinstance(g, VarRef):
            if not label(g.name, 1):
                return SatResult(SatStatus.UNSATISFIABLE)
        elif isinstance(g, Not):
            if not label(g.child.name, 0):
                return SatResult(SatStatus.UNSATISFIABLE)
        else:
            inc_atoms.append(g)

    # FIFO worklist over labelled variables; each propagation step
    # copies a label from a y-position to the matching x-position.
    queue = list(labels)
    while queue:
        v = queue.pop(0)
        c = labels[v]
        for atom in inc_atoms:
            for p, q in zip(atom.xs, atom.ys):
                if q == v:
                    if p not in labels:
                        labels[p] = c
                        queue.append(p)
                    elif labels[p] != c:
                        return SatResult(SatStatus.UNSATISFIABLE)

    vs = variables(f)
    free = [v for v in vs if v not in labels]
    if len(free) > max_free_vars:
        raise ResourceBoundError(
            f"witness would need 2^{len(free)} rows; cap is 2^{max_free_vars}"
        )
    rows = []
    for bits in itertools.product((0, 1), repeat=len(free)):
        free_vals = dict(zip(free, bits))
        rows.append(tuple(labels.get(v, free_vals.get(v)) for v in vs))

    # Greatest-fixpoint pruning: drop rows whose x-value has no
    # y-witness among the remaining rows, until stable.  Each round
    # collects every atom's y-values once, so it is linear in the rows.
    index = {v: i for i, v in enumerate(vs)}
    coords = [
        ([index[v] for v in atom.xs], [index[v] for v in atom.ys])
        for atom in inc_atoms
    ]
    while rows:
        witnessed = [
            (xi, {tuple(row[i] for i in yi) for row in rows})
            for xi, yi in coords
        ]
        kept = [
            row for row in rows
            if all(tuple(row[i] for i in xi) in ycodes
                   for xi, ycodes in witnessed)
        ]
        if len(kept) == len(rows):
            break
        rows = kept
    if not rows:
        return SatResult(SatStatus.UNSATISFIABLE)
    return SatResult(SatStatus.SATISFIABLE, Team(vs, tuple(rows)))

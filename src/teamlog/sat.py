"""Satisfiability engines.

Four routes with very different scaling behaviour:

* :func:`sat_brute` reads the least satisfying team off bottom-up tables
  over the first 1, 2, 4, 8 and 16 assignments; the reference oracle.
* :func:`sat_singleton` searches single assignments, bit-parallel over
  blocks of them; complete for PL, PDL and PIND, whose formulas are
  satisfiable iff some singleton team satisfies them.
* :func:`sat_fixpoint` and :func:`sat_split_free` share one row space,
  the assignments that agree with the literal labels of the top-level
  conjuncts as inclusion atoms propagate them, and take the largest lax
  model in it.  That decides lax mode, split-free input, and strict mode
  when it is empty.  Otherwise strict :func:`sat_fixpoint` searches,
  depth first inside the greatest lax labelling, for the strict
  labelling that one root row generates: each split sends each row to
  one side, and each inclusion atom adds one row with the needed
  y-value.
"""

from __future__ import annotations

import enum
import itertools

from .errors import EngineNotApplicableError, ResourceBoundError
from .formulas import (
    And,
    Bot,
    Formula,
    Inc,
    LogicKind,
    Not,
    Or,
    VarRef,
    conjuncts,
    is_split_free,
    logic_kind,
    node_array,
    variable_names,
    variables,
)
from .modelcheck import build_sat_table
from .records import Record, _set
from .semantics import (DEFAULT_ENUMERATION_CAP, SemanticsMode, TeamEvaluator,
                        lattice, members)
from .teams import Team

__all__ = [
    "SatStatus",
    "SatResult",
    "sat_brute",
    "sat_singleton",
    "sat_fixpoint",
    "sat_split_free",
    "DEFAULT_FIXPOINT_BUDGET",
]

DEFAULT_BRUTE_MAX_VARS = 4
#: the label-consistent row space holds at most 2**MAX_FREE_VARS rows
MAX_FREE_VARS = 20
DEFAULT_FIXPOINT_BUDGET = 2_000_000
#: sat_singleton evaluates 2**_BLOCK_BITS assignments per bit-parallel pass
_BLOCK_BITS = 12


class SatStatus(enum.Enum):
    SATISFIABLE = "satisfiable"
    UNSATISFIABLE = "unsatisfiable"
    RESOURCE_EXHAUSTED = "resource_exhausted"


class SatResult(Record):
    def __init__(self, status: SatStatus, witness: Team | None = None):
        if witness is not None:
            if status is not SatStatus.SATISFIABLE:
                raise ValueError(f"a {status.value} result has no witness")
            if len(witness) == 0:
                raise ValueError("a satisfiability witness must be nonempty")
        _set(self, "status", status)
        _set(self, "witness", witness)


def _all_rows(n: int, count: int | None = None) -> list[tuple[int, ...]]:
    """The first ``count`` (default all) assignments over ``n`` variables,
    ordered as binary numbers."""
    return list(itertools.islice(itertools.product((0, 1), repeat=n), count))


def _team(vs: tuple[str, ...], rows: list, mask: int) -> Team:
    """The team of the rows that ``mask`` selects."""
    return Team(vs, tuple(map(rows.__getitem__, members(mask))))


def sat_brute(f: Formula, mode: SemanticsMode,
              max_vars: int = DEFAULT_BRUTE_MAX_VARS,
              budget: int = DEFAULT_FIXPOINT_BUDGET) -> SatResult:
    """The satisfying team over VAR(f) with the least mask.

    Teams are subsets of the assignment list encoded as bitmasks.  The
    root of :func:`~teamlog.modelcheck.build_sat_table` over the first
    ``k`` assignments holds every mask below ``2**k``; ``k`` doubles from
    1 to 16, the enumeration cap, so past 4 variables a formula with no
    model among the first 16 assignments is RESOURCE_EXHAUSTED.  Each
    candidate team up to the answer spends one unit of ``budget``, as in
    a scan in increasing mask order (mask 3 precedes mask 4).
    """
    vs = variables(f)
    if len(vs) > max_vars:
        return SatResult(SatStatus.RESOURCE_EXHAUSTED)
    rows = _all_rows(len(vs), DEFAULT_ENUMERATION_CAP)
    for k in (1, 2, 4, 8, 16):  # returns at k == len(rows) at the latest
        root = build_sat_table(Team(vs, tuple(rows[:k])), f, mode).bits[0]
        found = root >> 1  # bit m - 1 for each nonempty satisfying mask m
        least = (found & -found).bit_length()  # 0 if there is none
        if 0 < least <= budget:
            return SatResult(SatStatus.SATISFIABLE, _team(vs, rows, least))
        # here any model found exceeds the budget, so budget < 2**k
        if k == 1 << len(vs) and budget >= (1 << k) - 1:
            return SatResult(SatStatus.UNSATISFIABLE)
        if k == len(rows) or budget < 1 << k:
            return SatResult(SatStatus.RESOURCE_EXHAUSTED)


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
    full, without = lattice(low)
    periodic = [full ^ w for w in without]  # bit i of entry k: bit k of i
    # variable vs[j] is bit n-1-j of an assignment's index in _all_rows
    shift = {v: n - 1 - j for j, v in enumerate(vs)}
    nodes, kids = node_array(f)
    val = [0] * len(nodes)
    for base in range(0, 1 << n, size):
        left = budget - base
        if left <= 0:
            return SatResult(SatStatus.RESOURCE_EXHAUSTED)
        lit = {v: periodic[k] if k < low else full * (base >> k & 1)
               for v, k in shift.items()}
        for i in range(len(nodes) - 1, -1, -1):
            g = nodes[i]
            t = type(g)
            if t is VarRef:
                m = lit[g.name]
            elif t is Not:
                m = full ^ val[i + 1]
            elif t is And:
                m = val[kids[i][0]] & val[kids[i][1]]
            elif t is Or:
                m = val[kids[i][0]] | val[kids[i][1]]
            elif t is Bot:
                m = 0
            else:  # Top, Dep and Indep hold on every single row
                m = full
            val[i] = m
        scanned = min(left, size)
        hits = val[0] & ((1 << scanned) - 1)
        if hits:
            i = base + (hits & -hits).bit_length() - 1
            row = tuple(i >> k & 1 for k in shift.values())
            return SatResult(SatStatus.SATISFIABLE, Team(vs, (row,)))
        if scanned < size:
            return SatResult(SatStatus.RESOURCE_EXHAUSTED)
    return SatResult(SatStatus.UNSATISFIABLE)


# ---------------------------------------------------------------------------
# Strict PINC: the labelling that one root row generates

def _lows(mask: int):
    """The set bits of ``mask`` as one-bit masks, lowest first, lazily."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _generate(ev: TeamEvaluator, bound: list[int], budget: int,
              repair_log: list | None) -> int:
    """The root mask of the first strict labelling inside ``bound`` that a
    depth-first generation finds, or 0 if there is none.

    A state holds one row mask per position of ``ev``'s node array; the
    variable after a ``!`` stays empty.  Each row of ``bound[0]``, lowest
    first, seeds a state.  A state is closed under the rules that need no
    choice: a conjunction's rows go to both kids, and a kid's rows to its
    parent.  It is dead if a row leaves its position's bound or both kids
    of a split hold the same row; rows only accumulate, so neither can be
    undone.  Otherwise the first open choice in pre-order makes the
    successors, one at a time: a split's lowest row that neither kid
    holds goes to a kid whose bound holds it, left first; an inclusion
    atom that meets a constraint's ``a`` and misses its ``c`` takes one
    row of ``c`` inside its bound, lowest first.  A state with no open
    choice is a strict labelling.  Each state spends one unit of
    ``budget``; :class:`ResourceBoundError` says it ran out.  Each
    inclusion choice logs ``(k, k + 1)`` to ``repair_log``: the atom's
    rows before and after it takes one.

    The search keeps one state and a trail of the rows it gave, undone
    on backtracking, so a path of ``d`` choices costs the rows it adds,
    not ``d`` copies of the state.  A choice closed in a state opens
    again only if its own rows grow, so the scan for the next open choice
    starts at the current one or at the first chooser that grew.
    """
    nodes, kids = ev.nodes, ev.kids
    parent = [-1] * len(nodes)
    for i in ev.live:
        for k in kids[i] if len(kids[i]) == 2 else ():
            parent[k] = i
    choosers = [i for i in ev.live if type(nodes[i]) in (Or, Inc)]
    rank = {i: at for at, i in enumerate(choosers)}
    state = [0] * len(nodes)
    trail = []  # (position, row) for each row given, in order

    def add(i: int, low: int) -> bool:
        """Give row ``low`` to position ``i`` and close; False if dead."""
        todo = [i]
        for j in todo:
            if state[j] & low:
                continue
            if not bound[j] & low:
                return False
            state[j] |= low
            trail.append((j, low))
            p = parent[j]
            if p >= 0:
                if type(nodes[p]) is Or:
                    left, right = kids[p]
                    if state[left] & state[right]:
                        return False
                todo.append(p)
            if type(nodes[j]) is And:
                todo += kids[j]
        return True

    def choice(start: int):
        """The chooser index and (position, row) successors of the first
        open choice from chooser ``start`` on, or None if there is none."""
        for at in range(start, len(choosers)):
            i = choosers[at]
            m = state[i]
            if type(nodes[i]) is Or:
                left, right = kids[i]
                free = m & ~(state[left] | state[right])
                if free:
                    low = free & -free
                    return at, iter([(k, low) for k in (left, right)
                                     if bound[k] & low])
                continue
            for a, _, c in ev.constraints(i):
                if m & a and not m & c:
                    if repair_log is not None:
                        repair_log.append((m.bit_count(), m.bit_count() + 1))
                    return at, ((i, low) for low in _lows(c & bound[i]))
        return None

    # (trail length, chooser index, successors) per open choice
    stack = [(0, 0, ((0, low) for low in _lows(bound[0])))]
    while stack:
        mark, at, successors = stack[-1]
        for j, low in trail[mark:]:  # undo the previous successor
            state[j] ^= low
        del trail[mark:]
        step = next(successors, None)
        if step is None:
            stack.pop()
            continue
        budget -= 1
        if budget < 0:
            raise ResourceBoundError("search budget exhausted")
        if add(*step):
            found = choice(min([at] + [rank[j] for j, _ in trail[mark:]
                                       if j in rank]))
            if found is None:
                return state[0]
            stack.append((len(trail), *found))
    return 0


def _row_space(f: Formula, mode: SemanticsMode) -> TeamEvaluator | None:
    """An evaluator over the assignments to VAR(f) that agree with the
    labels, in :func:`_all_rows` order; None if the labels clash.

    A top-level literal labels its variable; a top-level inclusion atom
    carries a label on a right-hand variable to the left-hand variable at
    the same position.  Every model, lax or strict, satisfies each
    top-level conjunct and so lies in these rows.  More than
    ``2**MAX_FREE_VARS`` of them raise :class:`ResourceBoundError` before
    any is built.
    """
    nodes, kids = node_array(f)
    parts = [nodes[i] for i in conjuncts(nodes, kids, 0)]
    labels: dict[str, int] = {}
    for g in parts:
        if isinstance(g, VarRef):
            v, c = g.name, 1
        elif isinstance(g, Not):
            v, c = g.child.name, 0
        elif isinstance(g, Bot):
            return None
        else:
            continue
        if labels.setdefault(v, c) != c:
            return None
    # A FIFO worklist over the labelled variables.
    inc_atoms = [g for g in parts if isinstance(g, Inc)]
    queue = list(labels)
    for v in queue:
        for atom in inc_atoms:
            for p, q in zip(atom.xs, atom.ys):
                if q == v:
                    if p not in labels:
                        queue.append(p)
                    if labels.setdefault(p, labels[v]) != labels[v]:
                        return None
    vs = tuple(sorted(variable_names(nodes)))
    k = len(vs) - len(labels)  # the unlabelled variables
    if k > MAX_FREE_VARS:
        raise ResourceBoundError(
            f"the labels leave 2^{k} rows; cap is 2^{MAX_FREE_VARS}")
    # The free variables count in binary, the first one highest.
    rows = itertools.product(*[(labels[v],) if v in labels else (0, 1)
                               for v in vs])
    return TeamEvaluator(vs, rows, f, mode)


def _fixpoint(f: Formula, mode: SemanticsMode, budget: int | None,
              repair_log: list | None) -> SatResult:
    """:func:`sat_fixpoint` and :func:`sat_split_free`, for PL and PINC."""
    kind = logic_kind(f)
    if kind not in (LogicKind.PL, LogicKind.PINC):
        raise EngineNotApplicableError(
            f"the fixpoint engines handle PINC and PL, not {kind.value}")
    ev = _row_space(f, mode)
    if ev is None:
        return SatResult(SatStatus.UNSATISFIABLE)
    try:
        bound = ev.lax_labelling((1 << len(ev.rows)) - 1, budget)
        found = bound[0]
        if found and mode is SemanticsMode.STRICT:
            found = _generate(ev, bound, budget, repair_log)
    except ResourceBoundError:
        return SatResult(SatStatus.RESOURCE_EXHAUSTED)
    if not found:
        return SatResult(SatStatus.UNSATISFIABLE)
    return SatResult(SatStatus.SATISFIABLE, _team(ev.domain, ev.rows, found))


def sat_fixpoint(f: Formula, mode: SemanticsMode,
                 budget: int = DEFAULT_FIXPOINT_BUDGET,
                 repair_log: list | None = None) -> SatResult:
    """PINC satisfiability: a greatest fixpoint, then (strict) a search.

    :meth:`TeamEvaluator.lax_labelling` takes the greatest lax labelling
    of the row space of :func:`_row_space`, on ``budget`` units; running
    out means :attr:`SatStatus.RESOURCE_EXHAUSTED`.  Its root is the
    largest lax model.  Empty, that model means unsatisfiable in both
    modes (every strict model is a lax model); in lax mode a nonempty one
    is the witness.  Otherwise strict mode runs :func:`_generate` inside
    the labelling, on ``budget`` units of its own, one per state.  Every
    strict model holds the strict labelling that one of its root rows
    generates, so the search is complete; its choices come in a fixed
    order, so the witness is deterministic.  ``repair_log`` collects
    (before, after) team sizes for every inclusion choice.
    """
    return _fixpoint(f, mode, budget, repair_log)


def sat_split_free(f: Formula) -> SatResult:
    """SAT for split-free PINC in polynomial time: the largest model in
    the row space of :func:`_row_space`, with no budget.  Split-free PINC
    is union closed, so that model is the union of all models, strict and
    lax alike; it is the witness.
    """
    if not is_split_free(f):
        raise EngineNotApplicableError(
            "the labelling procedure requires a split-free formula"
        )
    return _fixpoint(f, SemanticsMode.LAX, None, None)

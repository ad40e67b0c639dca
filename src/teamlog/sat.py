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
  when it is empty.  Otherwise strict :func:`sat_fixpoint` runs, inside
  it, a determinized backtracking search over the choice points of a
  nondeterministic fixpoint construction: guess a root row and small
  subteams per inclusion atom, then alternate bottom-up repair/union
  rounds with top-down copy/routing rounds until the teams stop growing.
"""

from __future__ import annotations

import bisect
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
                        _bits, lattice, members)
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
# Determinized fixpoint search for PINC

class _Reject(Exception):
    pass


def _walk_guesses(classes: list[int], bound: int):
    """Yield the masks of at most one row of ``bound`` per class mask, by
    size, then by ascending row list.  Each size is a depth first walk on
    masks alone: a state picks the lowest row it may and leaves open only
    the rows above it, both for the pick's next level and for its siblings."""
    yield 0
    for size in range(1, sum(1 for c in classes if c & bound) + 1):
        stack = [(bound, 0, 0)]  # the rows still open, the rows picked, classes
        while stack:
            open_, mask, used = stack.pop()
            rows = open_ & ~used
            if rows:
                low = rows & -rows
                above = open_ & -(low << 1)
                stack.append((above, mask, used))
                if mask.bit_count() + 1 == size:
                    yield mask | low
                else:
                    for c in classes:
                        if c & low:
                            stack.append((above, mask | low, used | c))
                            break


class _FixpointSearch:
    """The strict-mode search.  States hold a row bitmask over the rows of
    ``ev`` per position of its node array; a negated literal is one atom,
    so the variable position after a negation stays empty.  Splits route
    each row one way only.  Each node's rows stay in its bound: ``top`` at
    the root, the parent's bound below a conjunction, and below a split
    the child's largest lax model in the split's bound, which holds every
    strict labelling.  Rows only accumulate and reach the root, so a state
    that leaves a bound or gives a row to both sides of a split is dead,
    and a fixpoint is a strict labelling.
    Only the root (one row) and the inclusion atoms guess: the rows that
    one root row generates in a strict labelling form a strict labelling.
    Nothing is kept per row: a guesser keeps its class masks, and each
    mirror is looked up when a row is repaired."""

    def __init__(self, ev: TeamEvaluator, budget: int,
                 repair_log: list | None, top: int):
        self.budget = _Budget(budget)
        self.repair_log = repair_log
        self.ev = ev
        nodes, kids = ev.nodes, ev.kids
        self.bound = [top] * len(nodes)
        for i, t in enumerate(map(type, nodes)):
            for k in kids[i] if t is And or t is Or else ():
                self.bound[k] = (self.bound[i] if t is And else
                                 ev.max_model(self.bound[i], budget, k))
        self.live = [i for i in range(len(nodes))
                     if not (i and type(nodes[i - 1]) is Not)]
        self.guessers = [i for i in self.live
                         if i == 0 or isinstance(nodes[i], Inc)]
        self._classes: dict[int, list[int]] = {}

    # -- initial guesses ----------------------------------------------------

    def _candidates(self, i: int):
        """The initial guesses of the root or inclusion atom at position
        ``i``, by size, then by ascending row list, walked afresh each time
        over its class masks cut to its bound, the only list it keeps."""
        classes = self._classes.get(i)
        if classes is None:
            # At most one row per y-value class: the bounded guesses the
            # correctness argument needs (at most 2^arity rows).  Any other
            # root has no y-variables, so it guesses one row or none.
            atom = self.ev.nodes[i]
            ys = atom.ys if isinstance(atom, Inc) else ()
            classes = self._classes[i] = [
                c & self.bound[i] for c in self.ev.value_masks(ys).values()
                if c & self.bound[i]]
        return _walk_guesses(classes, self.bound[i])

    # -- rounds -------------------------------------------------------------

    def _mirror(self, i: int, r: int) -> int:
        """The index of row ``r`` with the x-value of the inclusion atom at
        position ``i`` copied into the y-positions; one past the last row,
        in no bound, if that row lies outside the row space.  Found by
        bisection, so ``ev.rows`` must be sorted, as :func:`_row_space`
        builds them (:func:`_all_rows` order)."""
        atom, index, rows = self.ev.nodes[i], self.ev._index, self.ev.rows
        mirror = list(rows[r])
        for x, y in zip(atom.xs, atom.ys):
            mirror[index[y]] = rows[r][index[x]]
        mirror = tuple(mirror)
        k = bisect.bisect_left(rows, mirror)
        return k if k < len(rows) and rows[k] == mirror else len(rows)

    def _repair_atom(self, i: int, rows: int) -> int:
        # One pass of the mirror rule: each row of an inclusion atom joins
        # its mirror, the row with its x-value copied into the y-positions.
        # That satisfies the atom unless its tuples share variables, hence
        # the re-check.  A literal holds on every subset of its bound.
        inc = isinstance(self.ev.nodes[i], Inc)
        repaired = rows
        if inc and not self.ev.check_at(i, rows):
            for r in _bits(rows):
                repaired |= 1 << self._mirror(i, r)
        if repaired & ~self.bound[i] or (
                inc and not self.ev.check_at(i, repaired)):
            raise _Reject
        if inc and self.repair_log is not None:
            self.repair_log.append((rows.bit_count(), repaired.bit_count()))
        return repaired

    def _bottom_up(self, state: tuple) -> tuple:
        self.budget.spend()
        new = list(state)
        for i in reversed(self.live):
            kids = self.ev.kids[i]
            if len(kids) == 2:
                if new[kids[0]] & new[kids[1]] and type(self.ev.nodes[i]) is Or:
                    raise _Reject  # sides only grow, so never a partition
                new[i] |= new[kids[0]] | new[kids[1]]
            else:
                new[i] = self._repair_atom(i, new[i])
        return tuple(new)

    def _routes(self, cur: tuple, new: list, s: int):
        """Route the rows at split ``s`` that neither child holds in
        ``cur`` left or right, one budget unit a try."""
        left, right = self.ev.kids[s]
        base_l, base_r = cur[left], cur[right]
        fresh = _bits(new[s] & ~(base_l | base_r))
        for combo in itertools.product((False, True), repeat=len(fresh)):
            self.budget.spend()
            add_l = sum(1 << row for row, o in zip(fresh, combo) if not o)
            add_r = sum(1 << row for row, o in zip(fresh, combo) if o)
            new[left], new[right] = base_l | add_l, base_r | add_r
            yield True

    def _top_down(self, cur: tuple):
        """Yield all successor states: an odometer over the splits in
        pre-order, the earliest outermost.  After a split chooses, the
        conjunctions up to the next split copy their rows to both kids."""
        nodes, kids = self.ev.nodes, self.ev.kids
        new = list(cur)
        routes = []
        pos = 0
        while True:
            while pos < len(nodes) and type(nodes[pos]) is not Or:
                if type(nodes[pos]) is And:
                    new[kids[pos][0]] = new[kids[pos][1]] = new[pos]
                pos += 1
            if pos == len(nodes):
                yield tuple(new)
            else:
                routes.append((pos, self._routes(cur, new, pos)))
            while routes and not next(routes[-1][1], False):
                routes.pop()
            if not routes:
                return
            pos = routes[-1][0] + 1

    def run(self) -> int | None:
        """The row mask of the first accepted fixpoint, or None.  The
        guesses turn as an odometer, the root slowest; a wheel that runs
        out restarts its generator and turns the one before it."""
        guessers = self.guessers
        wheels = [self._candidates(i) for i in guessers]
        state = [0] * len(self.ev.nodes)
        for i, wheel in zip(guessers, wheels):
            state[i] = next(wheel)
        while True:
            witness = self._search(tuple(state))
            if witness is not None:
                return witness
            for k in range(len(guessers) - 1, -1, -1):
                guess = next(wheels[k], None)
                if guess is not None:
                    state[guessers[k]] = guess
                    break
                wheels[k] = self._candidates(guessers[k])
                state[guessers[k]] = next(wheels[k])
            else:
                return None

    def _search(self, state: tuple) -> int | None:
        """Depth first, each state expanded once, on a stack of iterators."""
        seen = set()
        stack = [(None, iter((state,)))]
        while stack:
            cur, successors = stack[-1]
            new = next(successors, None)
            if new is None:
                stack.pop()
            elif new == cur:
                if cur[0]:
                    return cur[0]
            elif new not in seen:
                seen.add(new)
                try:
                    nxt = self._bottom_up(new)
                except _Reject:
                    continue
                stack.append((nxt, self._top_down(nxt)))
        return None


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
        found = ev.max_model((1 << len(ev.rows)) - 1, budget)
        if found and mode is SemanticsMode.STRICT:
            found = _FixpointSearch(ev, budget, repair_log, found).run()
    except ResourceBoundError:
        return SatResult(SatStatus.RESOURCE_EXHAUSTED)
    if not found:
        return SatResult(SatStatus.UNSATISFIABLE)
    return SatResult(SatStatus.SATISFIABLE, _team(ev.domain, ev.rows, found))


def sat_fixpoint(f: Formula, mode: SemanticsMode,
                 budget: int = DEFAULT_FIXPOINT_BUDGET,
                 repair_log: list | None = None) -> SatResult:
    """PINC satisfiability: a greatest fixpoint, then (strict) a search.

    :meth:`TeamEvaluator.max_model` takes the largest lax model in the
    row space of :func:`_row_space`, on ``budget`` units; running out
    means :attr:`SatStatus.RESOURCE_EXHAUSTED`.  Empty, that model means
    unsatisfiable in both modes (every strict model is a lax model); in
    lax mode a nonempty one is the witness.  Otherwise strict mode runs
    the determinized search inside it, on ``budget`` units, after one more
    largest lax model per split child, each on ``budget`` units: it
    exhausts the initial-guess and split-distribution choices in canonical
    order (smaller guesses first), so the first fixpoint is deterministic.
    ``repair_log`` collects (before, after) team sizes for every
    inclusion repair.
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

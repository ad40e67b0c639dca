"""Team satisfaction: atom evaluation and the split semantics."""

from __future__ import annotations

import enum
import itertools
import math
import operator

from .errors import (EngineNotApplicableError, EnumerationCapError,
                     ResourceBoundError, UnknownVariableError)
from .formulas import (
    And,
    Bot,
    Dep,
    Formula,
    Inc,
    Indep,
    Not,
    Or,
    Top,
    VarRef,
    conjuncts,
    node_array,
    variable_names,
)
from .teams import Team

__all__ = [
    "SemanticsMode",
    "DEFAULT_ENUMERATION_CAP",
    "eval_atom",
    "evaluate",
]

DEFAULT_ENUMERATION_CAP = 16
_DIGITS = bytes.maketrans(b"\0\1", b"01")  # row bits as base-2 digits
_BITS = bytes.maketrans(b"01", b"\0\1")  # base-2 digits as bits
# Below this many rows, one shift or OR per row beats the linear-time
# column masks of :func:`_column_ones` and :meth:`TeamEvaluator.value_masks`
# (measured on CPython 3.11 with 1- and 2-variable tuples: they cross
# between 16 and 32 rows).
_SHORT = 32


class SemanticsMode(enum.Enum):
    """Split discipline: strict splits partition the team, lax splits cover it."""

    STRICT = "strict"
    LAX = "lax"


def eval_atom(team: Team, atom: Formula) -> bool:
    """Evaluate a literal, constant or dependency atom against a team."""
    if not isinstance(atom, (Top, Bot, VarRef, Not, Dep, Inc, Indep)):
        raise TypeError(f"not an atomic formula: {atom!r}")
    ev = TeamEvaluator(team.domain, team.rows, atom, SemanticsMode.STRICT)
    return ev.check_at(0, (1 << len(team.rows)) - 1)


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def members(bits: int) -> list[int]:
    """:func:`_bits` in time linear in the length of ``bits``."""
    digits = bin(bits)[:1:-1].encode().translate(_BITS)  # lowest bit first
    return list(itertools.compress(range(len(digits)), digits))


def _column_ones(rows: list, i: int) -> int:
    """The bitmask of the rows whose position ``i`` holds 1.  From
    :data:`_SHORT` rows on, in linear time: the column read as one
    base-2 numeral."""
    if len(rows) < _SHORT:
        return sum(1 << j for j, row in enumerate(rows) if row[i])
    column = bytes(map(operator.itemgetter(i), reversed(rows)))
    return int(column.translate(_DIGITS), 2)


_LATTICES: dict[int, tuple[int, tuple[int, ...]]] = {}


def lattice(n: int) -> tuple[int, tuple[int, ...]]:
    """The subteams of ``n`` rows as the bits of one int, bit ``m`` for the
    subteam with row bitmask ``m``: ``(all of them, (those without row j
    for each j < n))``, built once per ``n``."""
    lat = _LATTICES.get(n)
    if lat is None:
        full = (1 << (1 << n)) - 1
        # full // (2^k + 1) repeats k set bits, then k clear ones (k = 2^j)
        lat = _LATTICES[n] = (full, tuple(full // ((1 << (1 << j)) + 1)
                                          for j in range(n)))
    return lat


class TeamEvaluator:
    """Evaluator over subteams of a fixed row set.

    Subteams are bitmasks over the row order; results are memoized per
    (position in :func:`node_array`, mask) so repeated queries (split
    enumeration, the fixpoint search's re-checks) stay cheap.  A
    conjunction loops over its :func:`conjuncts`, so only splits nest
    calls.  Atoms compile, by :meth:`_atom`, to row-mask constraints.
    """

    def __init__(self, domain: tuple[str, ...], rows, formula: Formula,
                 mode: SemanticsMode):
        self.domain = domain
        self.rows = list(rows)
        self.mode = mode
        self.nodes, self.kids = node_array(formula)
        self.memo: dict[tuple[int, int], bool] = {}
        self._constraints: list = [None] * len(self.nodes)
        self._conjuncts: list = [None] * len(self.nodes)
        self._columns: dict[str, int] = {}
        missing = sorted(variable_names(self.nodes).difference(domain))
        if missing:
            raise UnknownVariableError(
                f"variables {missing} not in team domain {domain}"
            )
        self._index = {v: i for i, v in enumerate(domain)}

    def value_masks(self, vs) -> dict[tuple, int]:
        """Row bitmask of each value the rows take on the variables ``vs``,
        in order of first occurrence.

        One OR per row costs O(rows^2 / 64) word operations, as each OR
        copies the value's growing mask.  Each value's mask is also the AND
        of one column mask or its complement per variable: the values are
        narrowed one variable at a time, keeping the nonempty masks, at
        most ``2 * 2^k`` ANDs per variable for ``k = len(vs)``.  A value's
        lowest row is its first occurrence, which orders them.  Measured,
        the ANDs win from ``4 * k * 2^k`` rows (and :data:`_SHORT`) on;
        below that, and so for wide tuples, the rows are ORed in one by one.
        """
        n = len(self.rows)
        if n < _SHORT or n < len(vs) << len(vs) + 2:
            columns = [[row[self._index[v]] for row in self.rows] for v in vs]
            out: dict[tuple, int] = {}
            for j, key in enumerate(zip(*columns) if vs else [()] * n):
                out[key] = out.get(key, 0) | 1 << j
            return out
        out = {(): (1 << n) - 1}
        for v in vs:
            ones = self._ones(v)
            out = {key + (bit,): part for key, mask in out.items()
                   for bit, part in enumerate((mask & ~ones, mask & ones))
                   if part}
        return dict(sorted(out.items(), key=lambda item: item[1] & -item[1]))

    def _ones(self, v: str) -> int:
        """:func:`_column_ones` of the variable ``v``, found once."""
        ones = self._columns.get(v)
        if ones is None:
            ones = self._columns[v] = _column_ones(self.rows, self._index[v])
        return ones

    def constraints(self, i: int) -> list[tuple[int, int, int]]:
        """:meth:`_atom` of the node at position ``i``, compiled once."""
        cons = self._constraints[i]
        if cons is None:
            cons = self._constraints[i] = self._atom(self.nodes[i])
        return cons

    def _atom(self, node: Formula) -> list[tuple[int, int, int]]:
        """The atom ``node`` as row-mask constraints ``(a, b, c)``: a
        subteam that meets both ``a`` and ``b`` must meet ``c``.  The only
        per-kind atom semantics."""
        full = (1 << len(self.rows)) - 1
        if isinstance(node, (Top, Bot, VarRef, Not)):
            # The rows the literal or constant rejects.
            if isinstance(node, Top):
                bad = 0
            elif isinstance(node, Bot):
                bad = full
            else:
                name = node.name if isinstance(node, VarRef) else node.child.name
                ones = self._ones(name)
                bad = full ^ ones if isinstance(node, VarRef) else ones
            cons = [(bad, bad, 0)] if bad else []
        elif isinstance(node, Dep):
            # No row of y-class w inside x-class v next to a row of v
            # outside w.
            k = len(node.xs)
            xycls = self.value_masks(node.xs + node.ys)
            xcls: dict[tuple, int] = {}
            for key, w in xycls.items():
                xcls[key[:k]] = xcls.get(key[:k], 0) | w
            cons = [(w, xcls[key[:k]] & ~w, 0) for key, w in xycls.items()
                    if w != xcls[key[:k]]]
        elif isinstance(node, Inc):
            # Meeting X_v means meeting Y_v.
            ycls = self.value_masks(node.ys)
            cons = []
            for value, xmask in self.value_masks(node.xs).items():
                ymask = ycls.get(value, 0)
                if xmask & ~ymask:
                    cons.append((xmask, xmask, ymask))
        elif isinstance(node, Indep):
            # Inside a z-class, meeting the x-value rows A_a and the
            # y-value rows B_b means meeting their common rows.
            k = len(node.zs)
            bcls: dict[tuple, list[int]] = {}
            for key, bmask in self.value_masks(node.zs + node.ys).items():
                bcls.setdefault(key[:k], []).append(bmask)
            cons = []
            for key, amask in self.value_masks(node.zs + node.xs).items():
                for bmask in bcls[key[:k]]:
                    both = amask & bmask
                    if both != amask and both != bmask:
                        cons.append((amask, bmask, both))
        else:
            raise TypeError(f"not an atomic formula: {node!r}")
        return cons

    def atom_bits(self, i: int) -> int:
        """The subteams that satisfy the atom at position ``i``, as a
        :func:`lattice` int: all but those that, for some constraint, meet
        ``a`` and ``b`` and avoid ``c``."""
        cons = self.constraints(i)
        full, without = lattice(len(self.rows))
        avoid = {}  # row mask -> the subteams that share no row with it
        for rows in {x for con in cons for x in con}:
            out = full
            for j in _bits(rows):
                out &= without[j]
            avoid[rows] = out
        bad = 0
        for a, b, c in cons:
            bad |= (full ^ avoid[a]) & (full ^ avoid[b]) & avoid[c]
        return full ^ bad

    def _conjuncts_at(self, i: int) -> list[int]:
        """:func:`conjuncts` of the node at position ``i``, found once."""
        conj = self._conjuncts[i]
        if conj is None:
            conj = self._conjuncts[i] = conjuncts(self.nodes, self.kids, i)
        return conj

    def max_model(self, mask: int, budget: int | None = None,
                  i: int = 0) -> int:
        """The largest subteam of ``mask`` that satisfies the PL or PINC
        node at position ``i`` under lax semantics, whatever :attr:`mode` says.

        Lax PINC is union closed, so that subteam exists: a greatest
        fixpoint.  An atom drops the ``a`` of each constraint while the
        subteam meets ``a`` and misses ``c``; a split or conjunction is a
        :meth:`_max_walk` on one stack.  Each visit of a node with a
        nonempty subteam spends one unit of ``budget`` (no limit if
        ``None``); :class:`ResourceBoundError` says it ran out.
        """
        nodes = self.nodes
        left = math.inf if budget is None else budget
        stack = []
        while True:
            if mask:  # the empty team satisfies every node
                left -= 1
                if left < 0:
                    raise ResourceBoundError("max_model budget exhausted")
                t = type(nodes[i])
                if t is And or t is Or:
                    send = self._max_walk(i, mask).send
                    stack.append(send)
                    i, mask = send(None)
                    continue
                if t is Dep or t is Indep:
                    raise EngineNotApplicableError(
                        "max_model needs a union-closed (PL or PINC) formula")
                cons = self.constraints(i)
                before = None
                while mask != before:
                    before = mask
                    for a, _, c in cons:
                        if mask & a and not mask & c:
                            mask &= ~a
            while stack:  # hand ``mask`` back until a walk asks again
                try:
                    i, mask = stack[-1](mask)
                    break
                except StopIteration as done:
                    stack.pop()
                    mask = done.value
            else:
                return mask

    def _max_walk(self, i: int, mask: int):
        """:meth:`max_model` of the split or conjunction at ``i``: yields
        each ``(kid, subteam)`` call and is sent the kid's answer.  A split
        unites its kids' answers, skipping the right kid when the left keeps
        all of ``mask``.  A conjunction cycles through its :func:`conjuncts`
        until each leaves the subteam unchanged; an answer is its conjunct's
        own fixpoint, so after a change only the others are asked again."""
        if type(self.nodes[i]) is Or:
            left, right = self.kids[i]
            got = yield left, mask
            if got != mask:
                got |= yield right, mask
            return got
        conj = self._conjuncts_at(i)
        k, quiet = 0, len(conj)
        while quiet and mask:
            got = yield conj[k], mask
            quiet = quiet - 1 if got == mask else len(conj) - 1
            k, mask = (k + 1) % len(conj), got
        return mask

    def check_at(self, i: int, mask: int) -> bool:
        """Whether the subteam ``mask`` satisfies the node at position ``i``."""
        key = (i, mask)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        t = type(self.nodes[i])
        result = True
        if t is And:
            result = all(self.check_at(j, mask) for j in self._conjuncts_at(i))
        elif t is Or:
            result = self._check_split(i, mask)
        else:
            for a, b, c in self.constraints(i):
                if mask & a and mask & b and not mask & c:
                    result = False
                    break
        self.memo[key] = result
        return result

    def _check_split(self, i: int, mask: int) -> bool:
        # Enumerate left parts as submasks of the team; the right part is
        # the complement, which lax (a cover, not a partition) lets grow
        # back into the left part.  Empty parts are allowed.
        left, right = self.kids[i]
        lax = self.mode is SemanticsMode.LAX
        sub = mask
        while True:
            if self.check_at(left, sub):
                rest = mask ^ sub
                extra = sub if lax else 0
                while True:
                    if self.check_at(right, rest | extra):
                        return True
                    if extra == 0:
                        break
                    extra = (extra - 1) & sub
            if sub == 0:
                return False
            sub = (sub - 1) & mask


def evaluate(team: Team, f: Formula, mode: SemanticsMode,
             cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """Team satisfaction under the given split semantics.

    Raises :class:`EnumerationCapError` when the team exceeds ``cap``:
    split enumeration is exponential in the team size.
    """
    if len(team) > cap:
        raise EnumerationCapError(
            f"team of size {len(team)} exceeds the enumeration cap {cap}"
        )
    ev = TeamEvaluator(team.domain, team.rows, f, mode)
    return ev.check_at(0, (1 << len(team.rows)) - 1)

"""Team satisfaction: atom evaluation and the recursive split semantics."""

from __future__ import annotations

import enum

from .errors import ArityMismatchError, EnumerationCapError, UnknownVariableError
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
    variables,
)
from .teams import Team

__all__ = [
    "SemanticsMode",
    "DEFAULT_ENUMERATION_CAP",
    "eval_literal",
    "eval_dep",
    "eval_inc",
    "eval_indep",
    "eval_atom",
    "evaluate",
]

DEFAULT_ENUMERATION_CAP = 16


class SemanticsMode(enum.Enum):
    """Split discipline: strict splits partition the team, lax splits cover it."""

    STRICT = "strict"
    LAX = "lax"


def eval_literal(team: Team, var: str, positive: bool = True) -> bool:
    """True iff every row maps ``var`` to 1 (positive) / 0 (negative)."""
    i = team.index(var)
    want = 1 if positive else 0
    return all(row[i] == want for row in team.rows)


def _codes(team: Team, vs) -> list[tuple[int, ...]]:
    idx = [team.index(v) for v in vs]
    return [tuple(row[i] for i in idx) for row in team.rows]


def eval_dep(team: Team, xs, ys) -> bool:
    """True iff all row pairs agreeing on ``xs`` agree on ``ys``."""
    xcodes = _codes(team, xs)
    ycodes = _codes(team, ys)
    seen: dict[tuple, tuple] = {}
    for xc, yc in zip(xcodes, ycodes):
        if seen.setdefault(xc, yc) != yc:
            return False
    return True


def eval_inc(team: Team, xs, ys) -> bool:
    """True iff every row's ``xs``-value occurs as some row's ``ys``-value."""
    if len(xs) != len(ys):
        raise ArityMismatchError(
            f"inclusion atom requires equal tuple lengths, got {len(xs)} and {len(ys)}"
        )
    return set(_codes(team, xs)) <= set(_codes(team, ys))


def eval_indep(team: Team, xs, ys, zs) -> bool:
    """True iff rows agreeing on ``zs`` recombine freely on ``xs`` vs ``ys``."""
    xcodes = _codes(team, xs)
    ycodes = _codes(team, ys)
    zcodes = _codes(team, zs)
    groups: dict[tuple, list[int]] = {}
    for i, zc in enumerate(zcodes):
        groups.setdefault(zc, []).append(i)
    for members in groups.values():
        pairs = {(xcodes[i], ycodes[i]) for i in members}
        xvals = {xcodes[i] for i in members}
        yvals = {ycodes[i] for i in members}
        if any((a, b) not in pairs for a in xvals for b in yvals):
            return False
    return True


def eval_atom(team: Team, atom: Formula) -> bool:
    """Evaluate a literal, constant or dependency atom against a team."""
    if isinstance(atom, Top):
        return True
    if isinstance(atom, Bot):
        return len(team) == 0
    if isinstance(atom, VarRef):
        return eval_literal(team, atom.name, positive=True)
    if isinstance(atom, Not):
        return eval_literal(team, atom.child.name, positive=False)
    if isinstance(atom, Dep):
        return eval_dep(team, atom.xs, atom.ys)
    if isinstance(atom, Inc):
        return eval_inc(team, atom.xs, atom.ys)
    if isinstance(atom, Indep):
        return eval_indep(team, atom.xs, atom.ys, atom.zs)
    raise TypeError(f"not an atomic formula: {atom!r}")


def _submasks(mask: int) -> list[int]:
    """Every submask of ``mask``, the empty mask first."""
    out = [0]
    while mask:
        low = mask & -mask
        out += [m | low for m in out]
        mask ^= low
    return out


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _class_masks(codes, rows) -> dict[tuple, int]:
    """Row bitmask of each value that ``codes`` takes on ``rows``."""
    out: dict[tuple, int] = {}
    for j in rows:
        out[codes[j]] = out.get(codes[j], 0) | 1 << j
    return out


class TeamEvaluator:
    """Recursive evaluator over subteams of a fixed row set.

    Subteams are bitmasks over the row order; results are memoized per
    (node, mask) so repeated queries (split enumeration, SAT scans over
    many candidate teams) stay cheap.  :meth:`atom_table` gives all
    satisfying subteams of an atom at once, from the same per-row atom
    data, for the bottom-up tables.
    """

    def __init__(self, domain: tuple[str, ...], rows, formula: Formula,
                 mode: SemanticsMode):
        self.domain = domain
        self.rows = list(rows)
        self.formula = formula
        self.mode = mode
        self.memo: dict[tuple[int, int], bool] = {}
        self._atom_data: dict[int, tuple] = {}
        missing = [v for v in variables(formula) if v not in domain]
        if missing:
            raise UnknownVariableError(
                f"variables {missing} not in team domain {domain}"
            )
        self._index = {v: i for i, v in enumerate(domain)}

    def _col(self, vs) -> list[tuple[int, ...]]:
        idx = [self._index[v] for v in vs]
        return [tuple(row[i] for i in idx) for row in self.rows]

    def _atom(self, node: Formula):
        data = self._atom_data.get(id(node))
        if data is not None:
            return data
        if isinstance(node, VarRef):
            i = self._index[node.name]
            bad = sum(1 << j for j, row in enumerate(self.rows) if row[i] != 1)
            data = ("lit", bad)
        elif isinstance(node, Not):
            i = self._index[node.child.name]
            bad = sum(1 << j for j, row in enumerate(self.rows) if row[i] != 0)
            data = ("lit", bad)
        elif isinstance(node, Dep):
            data = ("dep", self._col(node.xs), self._col(node.ys))
        elif isinstance(node, Inc):
            data = ("inc", self._col(node.xs), self._col(node.ys))
        elif isinstance(node, Indep):
            data = ("ind", self._col(node.xs), self._col(node.ys),
                    self._col(node.zs))
        else:
            raise TypeError(f"not an atomic formula: {node!r}")
        self._atom_data[id(node)] = data
        return data

    def _check_atom(self, node: Formula, mask: int) -> bool:
        data = self._atom(node)
        tag = data[0]
        if tag == "lit":
            return mask & data[1] == 0
        members = []
        m = mask
        while m:
            low = m & -m
            members.append(low.bit_length() - 1)
            m ^= low
        if tag == "dep":
            _, xc, yc = data
            seen: dict[tuple, tuple] = {}
            for i in members:
                if seen.setdefault(xc[i], yc[i]) != yc[i]:
                    return False
            return True
        if tag == "inc":
            _, xc, yc = data
            return {xc[i] for i in members} <= {yc[i] for i in members}
        _, xc, yc, zc = data
        groups: dict[tuple, list[int]] = {}
        for i in members:
            groups.setdefault(zc[i], []).append(i)
        for grp in groups.values():
            pairs = {(xc[i], yc[i]) for i in grp}
            xv = {xc[i] for i in grp}
            yv = {yc[i] for i in grp}
            if any((a, b) not in pairs for a in xv for b in yv):
                return False
        return True

    def atom_table(self, node: Formula) -> frozenset[int]:
        """Every subteam of the row set, as a bitmask, that satisfies the
        atom ``node`` (a literal, constant or dependency atom).

        Each atom kind is decided on row masks per atom value, so the
        cost follows the number of masks and atom values, with no loop
        over the rows of each mask.
        """
        full = (1 << len(self.rows)) - 1
        if isinstance(node, Top):
            return frozenset(range(full + 1))
        if isinstance(node, Bot):
            return frozenset([0])
        data = self._atom(node)
        tag = data[0]
        if tag == "lit":
            return frozenset(_submasks(full & ~data[1]))
        rows = range(len(self.rows))
        if tag == "dep":
            # Within one x-class every row must share its y-value: pick
            # nothing, or a nonempty part of one y-class, per x-class.
            _, xc, yc = data
            masks = [0]
            for xmask in _class_masks(xc, rows).values():
                options = [0]
                for ymask in _class_masks(yc, _bits(xmask)).values():
                    options += _submasks(ymask)[1:]
                masks = [m | o for m in masks for o in options]
            return frozenset(masks)
        if tag == "inc":
            # m satisfies the atom iff m meets Y_v wherever it meets X_v.
            _, xc, yc = data
            ycls = _class_masks(yc, rows)
            allowed = full
            needs = []
            for value, xmask in _class_masks(xc, rows).items():
                ymask = ycls.get(value, 0)
                if not ymask:
                    allowed &= ~xmask
                elif xmask & ~ymask:
                    needs.append((xmask, ymask))
            masks = _submasks(allowed)
            for xmask, ymask in needs:
                masks = [m for m in masks if not m & xmask or m & ymask]
            return frozenset(masks)
        # Independence: in each z-class, a mask that meets the rows with
        # x-value a and the rows with y-value b must meet their common rows.
        _, xc, yc, zc = data
        xyc = list(zip(xc, yc))
        needs = []
        for zmask in _class_masks(zc, rows).values():
            members = _bits(zmask)
            xycls = _class_masks(xyc, members)
            ycls = _class_masks(yc, members)
            for a, amask in _class_masks(xc, members).items():
                for b, bmask in ycls.items():
                    both = xycls.get((a, b), 0)
                    if both != amask and both != bmask:
                        needs.append((amask, bmask, both))
        masks = _submasks(full)
        for amask, bmask, both in needs:
            masks = [m for m in masks if not (m & amask and m & bmask) or m & both]
        return frozenset(masks)

    def check(self, node: Formula, mask: int) -> bool:
        key = (id(node), mask)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        if isinstance(node, Top):
            result = True
        elif isinstance(node, Bot):
            result = mask == 0
        elif isinstance(node, And):
            result = self.check(node.left, mask) and self.check(node.right, mask)
        elif isinstance(node, Or):
            result = self._check_split(node, mask)
        else:
            result = self._check_atom(node, mask)
        self.memo[key] = result
        return result

    def _check_split(self, node: Or, mask: int) -> bool:
        # Enumerate left parts as submasks of the team; strict fixes the
        # right part to the complement, lax lets it grow back into the
        # left part.  Empty parts are allowed.
        sub = mask
        while True:
            if self.check(node.left, sub):
                rest = mask ^ sub
                if self.mode is SemanticsMode.STRICT:
                    if self.check(node.right, rest):
                        return True
                else:
                    extra = sub
                    while True:
                        if self.check(node.right, rest | extra):
                            return True
                        if extra == 0:
                            break
                        extra = (extra - 1) & sub
            if sub == 0:
                return False
            sub = (sub - 1) & mask


def evaluate(team: Team, f: Formula, mode: SemanticsMode,
             cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """Recursive team satisfaction under the given split semantics.

    Raises :class:`EnumerationCapError` when the team exceeds ``cap``:
    split enumeration is exponential in the team size.
    """
    if len(team) > cap:
        raise EnumerationCapError(
            f"team of size {len(team)} exceeds the enumeration cap {cap}"
        )
    ev = TeamEvaluator(team.domain, team.rows, f, mode)
    return ev.check(f, (1 << len(team.rows)) - 1)

"""Bottom-up model checking over satisfying-subteam tables.

Subteams of the input team are bitmasks over its canonical row order,
and a node's table is one int over the subteam lattice (see
:func:`~teamlog.semantics.lattice`), so a conjunction is one ``&`` and a
split a walk of shifts and masks.  For a fixed team size the work is
linear in the formula: the paper's FPT algorithm for team size.
"""

from __future__ import annotations

from .errors import EnumerationCapError
from .formulas import (And, Formula, LogicKind, Not, Or, is_split_free,
                       logic_kind)
from .records import Record, _set
from .semantics import (DEFAULT_ENUMERATION_CAP, SemanticsMode, TeamEvaluator,
                        evaluate, lattice, members)
# Re-exported: the benchmark's tracer tests look eval_atom up on this module.
from .semantics import eval_atom  # noqa: F401
from .teams import Team

__all__ = ["SatSetTable", "build_sat_table", "mc_bottom_up", "mc"]


class SatSetTable(Record):
    """Per-node satisfying subteams, by position: bit ``m`` of ``bits[i]``
    is set iff the subteam with row bitmask ``m`` satisfies ``nodes[i]``
    (``0`` for the variable under a ``!``, which no table reads).  The
    sets of masks are decoded only when asked for."""

    def __init__(self, nodes: tuple[Formula, ...], bits: tuple[int, ...]):
        _set(self, "nodes", nodes)
        _set(self, "bits", bits)

    @property
    def entries(self) -> tuple[tuple[Formula, frozenset[int]], ...]:
        """``(node, satisfying row bitmasks)`` by position."""
        return tuple((n, frozenset(members(b)))
                     for n, b in zip(self.nodes, self.bits))


def _join(without: tuple[int, ...], left: int, right: int, strict: bool) -> int:
    """The unions ``m | r`` of a left subteam ``m`` and a right one ``r``,
    disjoint ones only when ``strict``.  Per ``m`` of the sparser side the
    other side is cut (strict) or projected (lax) to the rows outside
    ``m``, so ``<< m`` adds ``m`` to all of it.  The ``m`` are walked as a
    trie, highest row first, so masks with equal high rows share cuts."""
    if left.bit_count() > right.bit_count():
        left, right = right, left
    out = 0
    # (rows still open, m's rows so far, the members of ``left`` with
    # those rows shifted out, ``right`` cut to the rows outside m)
    stack = [(len(without), 0, left, right)] if left else []
    while stack:
        j, m, q, part = stack.pop()
        if j == 0:
            out |= part << m
            continue
        j -= 1
        bit = 1 << j
        low, high = q & (1 << bit) - 1, q >> bit
        if low:
            stack.append((j, m, low, part))
        if high:
            kept = part & without[j]
            part = kept if strict else kept | (part ^ kept) >> bit
            if part:
                stack.append((j, m | bit, high, part))
    return out


def build_sat_table(team: Team, f: Formula, mode: SemanticsMode) -> SatSetTable:
    """Leaf-to-root satisfying-subteam sets for every node of ``f``."""
    if len(team) > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(f"team of size {len(team)} exceeds the "
                                  f"enumeration cap {DEFAULT_ENUMERATION_CAP}")
    ev = TeamEvaluator(team.domain, team.rows, f, mode)
    without = lattice(len(team))[1]
    strict = mode is SemanticsMode.STRICT
    bits = [0] * len(ev.nodes)
    for i in range(len(bits) - 1, -1, -1):
        t = type(ev.nodes[i])
        if t is And:
            bits[i] = bits[ev.kids[i][0]] & bits[ev.kids[i][1]]
        elif t is Or:
            bits[i] = _join(without, bits[ev.kids[i][0]], bits[ev.kids[i][1]],
                            strict)
        elif i == 0 or type(ev.nodes[i - 1]) is not Not:
            bits[i] = ev.atom_bits(i)
    return SatSetTable(tuple(ev.nodes), tuple(bits))


def mc_bottom_up(team: Team, f: Formula, mode: SemanticsMode) -> bool:
    """Model check by table construction; agrees with :func:`evaluate`.
    Past the enumeration cap, a union-closed formula (PL or PINC, lax or
    split-free) holds iff the team is its own largest lax model; any
    other raises :class:`EnumerationCapError`."""
    full = (1 << len(team)) - 1
    if (len(team) > DEFAULT_ENUMERATION_CAP
            and logic_kind(f) in (LogicKind.PL, LogicKind.PINC)
            and (mode is SemanticsMode.LAX or is_split_free(f))):
        ev = TeamEvaluator(team.domain, team.rows, f, mode)
        return ev.max_model(full) == full
    return build_sat_table(team, f, mode).bits[0] >> full & 1 == 1


def mc(team: Team, f: Formula, mode: SemanticsMode, algo: str = "bottomup") -> bool:
    """Dispatch between the bottom-up table and the recursive evaluator."""
    if algo == "recursive":
        return evaluate(team, f, mode)
    if algo == "bottomup":
        return mc_bottom_up(team, f, mode)
    raise ValueError(f"unknown model-checking algorithm {algo!r}")

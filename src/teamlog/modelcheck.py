"""Bottom-up model checking over satisfying-subteam tables.

Subteams of the input team are bitmasks over its canonical row order,
so disjointness and union of subteams are single word operations.  For
a fixed team size the table has boundedly many entries per node and the
overall work is linear in the formula, which is what makes this route
scale where the recursive split enumeration does not.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EnumerationCapError
from .formulas import And, Formula, Or
from .semantics import DEFAULT_ENUMERATION_CAP, SemanticsMode, TeamEvaluator, evaluate
# Re-exported: the benchmark's tracer tests look eval_atom up on this module.
from .semantics import eval_atom  # noqa: F401
from .teams import Team

__all__ = ["SatSetTable", "build_sat_table", "mc_bottom_up", "mc"]


@dataclass(frozen=True)
class SatSetTable:
    """Per-node sets of satisfying subteams, as row bitmasks, by position."""

    team: Team
    entries: tuple[tuple[Formula, frozenset[int]], ...]

    def masks_for(self, node: Formula) -> frozenset[int]:
        for n, masks in self.entries:
            if n is node:
                return masks
        raise KeyError(f"node not in table: {node!r}")


def build_sat_table(team: Team, f: Formula, mode: SemanticsMode,
                    cap: int = DEFAULT_ENUMERATION_CAP) -> SatSetTable:
    """Leaf-to-root satisfying-subteam sets for every node of ``f``."""
    if len(team) > cap:
        raise EnumerationCapError(
            f"team of size {len(team)} exceeds the enumeration cap {cap}"
        )
    ev = TeamEvaluator(team.domain, team.rows, f, mode)
    sets: list = [None] * len(ev.nodes)
    for i in range(len(sets) - 1, -1, -1):
        node = ev.nodes[i]
        if not isinstance(node, (And, Or)):
            masks = ev.atom_table(node)
        elif isinstance(node, And):
            masks = sets[ev.kids[i][0]] & sets[ev.kids[i][1]]
        else:
            left, right = sets[ev.kids[i][0]], sets[ev.kids[i][1]]
            if mode is SemanticsMode.STRICT:
                masks = frozenset(
                    m1 | m2 for m1 in left for m2 in right if m1 & m2 == 0
                )
            else:
                masks = frozenset(m1 | m2 for m1 in left for m2 in right)
        sets[i] = masks
    return SatSetTable(team, tuple(zip(ev.nodes, sets)))


def mc_bottom_up(team: Team, f: Formula, mode: SemanticsMode,
                 cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """Model check by table construction; agrees with :func:`evaluate`."""
    table = build_sat_table(team, f, mode, cap)
    full = (1 << len(team)) - 1
    return full in table.entries[0][1]


def mc(team: Team, f: Formula, mode: SemanticsMode, algo: str = "recursive",
       cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """Dispatch between the recursive evaluator and the bottom-up table."""
    if algo == "recursive":
        return evaluate(team, f, mode, cap)
    if algo == "bottomup":
        return mc_bottom_up(team, f, mode, cap)
    raise ValueError(f"unknown model-checking algorithm {algo!r}")

"""Bottom-up model checking over satisfying-subteam tables.

Subteams of the input team are bitmasks over its canonical row order,
so disjointness and union of subteams are single word operations.  For
a fixed team size the table has boundedly many entries per node and the
overall work is linear in the formula, which is what makes this route
scale where the recursive split enumeration does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EnumerationCapError
from .formulas import And, Formula, Or, subformulas
from .semantics import DEFAULT_ENUMERATION_CAP, SemanticsMode, TeamEvaluator, evaluate
# Re-exported: the benchmark's tracer tests look eval_atom up on this module.
from .semantics import eval_atom  # noqa: F401
from .teams import Team

__all__ = ["SatSetTable", "build_sat_table", "mc_bottom_up", "mc"]


@dataclass(frozen=True)
class SatSetTable:
    """Per-node sets of satisfying subteams, as row bitmasks."""

    team: Team
    entries: tuple[tuple[Formula, frozenset[int]], ...]
    _by_node: dict[int, frozenset[int]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_by_node", {id(n): masks for n, masks in self.entries})

    def masks_for(self, node: Formula) -> frozenset[int]:
        try:
            return self._by_node[id(node)]
        except KeyError:
            raise KeyError(f"node not in table: {node!r}") from None


def build_sat_table(team: Team, f: Formula, mode: SemanticsMode,
                    cap: int = DEFAULT_ENUMERATION_CAP) -> SatSetTable:
    """Leaf-to-root satisfying-subteam sets for every node of ``f``."""
    if len(team) > cap:
        raise EnumerationCapError(
            f"team of size {len(team)} exceeds the enumeration cap {cap}"
        )
    ev = TeamEvaluator(team.domain, team.rows, f, mode)
    nodes = subformulas(f)
    sets: dict[int, frozenset[int]] = {}
    for node in reversed(nodes):
        if isinstance(node, And):
            masks = sets[id(node.left)] & sets[id(node.right)]
        elif isinstance(node, Or):
            left, right = sets[id(node.left)], sets[id(node.right)]
            if mode is SemanticsMode.STRICT:
                masks = frozenset(
                    m1 | m2 for m1 in left for m2 in right if m1 & m2 == 0
                )
            else:
                masks = frozenset(m1 | m2 for m1 in left for m2 in right)
        else:
            masks = ev.atom_table(node)
        sets[id(node)] = masks
    return SatSetTable(team, tuple((n, sets[id(n)]) for n in nodes))


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

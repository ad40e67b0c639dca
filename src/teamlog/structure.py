"""Syntax-structure graphs, tree decompositions and instance parameters.

The Gaifman graph has one vertex per subformula occurrence, one vertex
per variable (leaf occurrences of a variable are identified with its
single vertex), and one vertex per team row when a team is part of the
instance.  Edges carry provenance tags: ``child`` for the immediate
subformula relation, ``DEP`` for atom/variable co-occurrence, and
``isTrue``/``isFalse`` for row-to-variable incidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Optional

from .errors import ResourceBoundError, UnknownVariableError
from .formulas import (
    And,
    Dep,
    Formula,
    Inc,
    Indep,
    Not,
    Or,
    VarRef,
    atom_variables,
    atoms,
    formula_depth,
    formula_size,
    render_formula,
    split_count,
    variables,
)
from .teams import Team

__all__ = [
    "GaifmanGraph",
    "TreeDecomposition",
    "DecompositionCheck",
    "ParameterReport",
    "build_gaifman",
    "validate_decomposition",
    "treewidth_upper",
    "treewidth_exact",
    "parameters",
    "to_dot",
    "decomposition_to_object",
]

_DEP_ATOMS = (Dep, Inc, Indep)


class GaifmanGraph:
    """Undirected graph: ``adj`` maps each vertex to its neighbours and
    each neighbour to its edge's tags; ``info`` maps it to (kind, label)."""

    def __init__(self):
        self.adj: dict[str, dict[str, set[str]]] = {}
        self.info: dict[str, tuple[str, str]] = {}

    def add_vertex(self, vid: str, kind: str, label: str) -> None:
        if vid not in self.adj:
            self.adj[vid] = {}
            self.info[vid] = (kind, label)

    def add_edge(self, u: str, v: str, tag: str) -> None:
        if u == v:
            return
        tags = self.adj.setdefault(u, {}).get(v)
        if tags is None:
            tags = set()
            self.adj[u][v] = tags
            self.adj.setdefault(v, {})[u] = tags
        tags.add(tag)

    def vertices(self) -> list[str]:
        return list(self.adj)

    def edges(self) -> list[tuple[str, str]]:
        seen = set()
        out = []
        for u, nbrs in self.adj.items():
            seen.add(u)
            out += [(u, v) if u < v else (v, u) for v in nbrs if v not in seen]
        return out

    def label(self, vid: str) -> str:
        return self.info[vid][1]

    def provenance(self, u: str, v: str) -> frozenset[str]:
        return frozenset(self.adj[u][v])

    def __len__(self) -> int:
        return len(self.adj)


def build_gaifman(f: Formula, team: Optional[Team] = None) -> GaifmanGraph:
    """Gaifman graph of the syntax structure of ``f`` (and optionally a team)."""
    if team is not None:
        missing = [v for v in variables(f) if v not in team.domain]
        if missing:
            raise UnknownVariableError(
                f"variables {missing} not in team domain {team.domain}"
            )
    gg = GaifmanGraph()
    counter = [0]

    def var_vertex(name: str) -> str:
        vid = f"var:{name}"
        gg.add_vertex(vid, "variable", name)
        return vid

    def walk(node: Formula) -> str:
        if isinstance(node, VarRef):
            return var_vertex(node.name)
        idx = counter[0]
        counter[0] += 1
        vid = f"sub:{idx}"
        if isinstance(node, And):
            gg.add_vertex(vid, "subformula", "&")
            for child in (node.left, node.right):
                gg.add_edge(vid, walk(child), "child")
        elif isinstance(node, Or):
            gg.add_vertex(vid, "subformula", "|")
            for child in (node.left, node.right):
                gg.add_edge(vid, walk(child), "child")
        elif isinstance(node, Not):
            gg.add_vertex(vid, "subformula", "!")
            gg.add_edge(vid, var_vertex(node.child.name), "child")
        else:
            gg.add_vertex(vid, "subformula", render_formula(node))
            if isinstance(node, _DEP_ATOMS):
                used = atom_variables(node)
                for v in used:
                    gg.add_edge(vid, var_vertex(v), "DEP")
                # All of an atom's variables must share a decomposition
                # bag, so they form a clique.
                for i, a in enumerate(used):
                    for b in used[i + 1:]:
                        gg.add_edge(var_vertex(a), var_vertex(b), "DEP")
        return vid

    walk(f)
    if team is not None:
        fvars = variables(f)
        for i, row in enumerate(team.rows):
            cid = f"team:{i}"
            gg.add_vertex(cid, "team", f"c{i + 1}")
            for v in fvars:
                value = row[team.index(v)]
                gg.add_edge(cid, var_vertex(v), "isTrue" if value else "isFalse")
    return gg


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[frozenset[str], ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        if not self.bags:
            return -1
        return max(len(b) for b in self.bags) - 1


@dataclass(frozen=True)
class DecompositionCheck:
    valid: bool
    width: Optional[int] = None
    violation: Optional[str] = None


def validate_decomposition(g: GaifmanGraph, d: TreeDecomposition) -> DecompositionCheck:
    """Check the three tree-decomposition conditions; report the first breach."""
    bags = d.bags
    n = len(bags)
    adjacency = [set() for _ in range(n)]
    for i, j in d.edges:
        if not (0 <= i < n and 0 <= j < n):
            return DecompositionCheck(False, violation=f"edge ({i},{j}) out of range")
        adjacency[i].add(j)
        adjacency[j].add(i)
    # A tree on n bags has n - 1 distinct undirected edges and is connected;
    # repeated edges collapse, and a self-loop counts as an edge.
    distinct = {frozenset(e) for e in d.edges}
    if n and (len(distinct) != n - 1 or not _connected(adjacency, set(range(n)))):
        return DecompositionCheck(False, violation="bag graph is not a tree")
    covered = set().union(*bags) if bags else set()
    vertices = set(g.vertices())
    if covered != vertices:
        missing = sorted(vertices - covered)
        return DecompositionCheck(
            False, violation=f"vertices not covered by any bag: {missing}"
        )
    for u, v in g.edges():
        if not any(u in b and v in b for b in bags):
            return DecompositionCheck(
                False, violation=f"edge ({u},{v}) not inside any bag"
            )
    for v in vertices:
        if not _connected(adjacency, {i for i, b in enumerate(bags) if v in b}):
            return DecompositionCheck(
                False, violation=f"bags containing {v!r} are not connected"
            )
    return DecompositionCheck(True, width=d.width)


def _connected(adjacency: list[set[int]], nodes: set[int]) -> bool:
    """Whether the nonempty ``nodes`` induce a connected subgraph."""
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        for j in adjacency[stack.pop()]:
            if j in nodes and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(nodes)


def _min_fill_vertex(adj: dict[str, set[str]]) -> str:
    """The vertex whose elimination adds the fewest fill edges.

    Vertices are scanned in stable ascending-degree order; a vertex's
    count stops once it reaches the best so far, and the first vertex of
    no fill is taken at once.  Counts are doubled, since each missing
    edge is seen from both of its ends.
    """
    best, best_fill = None, float("inf")
    for v in sorted(adj, key=lambda u: len(adj[u])):
        ns = adj[v]
        fill = 0
        for a in ns:
            fill += len(ns - adj[a]) - 1
            if fill >= best_fill:
                break
        else:
            if fill == 0:
                return v
            best, best_fill = v, fill
    return best


def _eliminate(adj: dict, method: str, order: Optional[list[str]] = None
               ) -> TreeDecomposition:
    """Tree decomposition from eliminating the vertices of ``adj`` in turn.

    The next vertex is the next one of ``order`` when that is given, or
    else the one of least fill (``min_fill``) or of least degree with ties
    broken by insertion order (``min_degree``).  A vertex's bag is itself
    plus its remaining neighbours; the bag's tree edge goes to the bag of
    the earliest-eliminated of those neighbours, and a bag with none (the
    last of a connected component) is attached to the final bag.
    """
    work = {v: set(ns) for v, ns in adj.items()}
    if order is not None:
        pending = iter(order)
        pick = lambda touched: next(pending)
    elif method == "min_fill":
        pick = lambda touched: _min_fill_vertex(work)
    elif method == "min_degree":
        index = {v: i for i, v in enumerate(work)}
        heap = [(len(ns), index[v], v) for v, ns in work.items()]
        heapify(heap)

        def pick(touched):
            for a in touched:
                heappush(heap, (len(work[a]), index[a], a))
            while True:
                degree, _, v = heappop(heap)
                if v in work and len(work[v]) == degree:
                    return v
    else:
        raise ValueError(f"unknown treewidth heuristic {method!r}")
    steps = []
    ns = set()
    while work:
        v = pick(ns)
        ns = work.pop(v)
        for a in ns:
            work[a] |= ns
            work[a] -= {a, v}
        steps.append((v, ns))
    pos = {v: i for i, (v, _) in enumerate(steps)}
    last = len(steps) - 1
    edges = tuple((i, min((pos[u] for u in ns), default=last))
                  for i, (_, ns) in enumerate(steps[:-1]))
    return TreeDecomposition(tuple(frozenset(ns | {v}) for v, ns in steps), edges)


def treewidth_upper(g: GaifmanGraph, method: str = "min_fill"
                    ) -> tuple[int, TreeDecomposition]:
    """Heuristic elimination-ordering upper bound with a valid decomposition."""
    decomp = _eliminate(g.adj, method)
    return decomp.width, decomp


def treewidth_exact(g: GaifmanGraph, max_vertices: int = 16
                    ) -> tuple[int, TreeDecomposition]:
    """Exact treewidth by branch-and-bound over elimination orders."""
    n = len(g)
    if n > max_vertices:
        raise ResourceBoundError(
            f"graph has {n} vertices; exact treewidth capped at {max_vertices}"
        )
    best = {"width": _eliminate(g.adj, "min_fill").width, "order": None}
    visited: dict[frozenset[str], int] = {}

    def search(adj: dict[str, set[str]], current_max: int, order: list[str]):
        if current_max >= best["width"]:
            return
        if not adj:
            best["width"] = current_max
            best["order"] = list(order)
            return
        if len(adj) - 1 <= current_max:
            best["width"] = current_max
            best["order"] = order + sorted(adj)
            return
        # min degree is a treewidth lower bound for the remaining graph
        if max(current_max, min(len(ns) for ns in adj.values())) >= best["width"]:
            return
        key = frozenset(adj)
        prev = visited.get(key)
        if prev is not None and prev <= current_max:
            return
        visited[key] = current_max

        def branch(v):
            # eliminate v in place, search on, then undo the elimination
            ns = adj.pop(v)
            added = []
            for a in ns:
                adj[a].discard(v)
                for b in ns:
                    if b != a and b not in adj[a]:
                        adj[a].add(b)
                        added.append((a, b))
            order.append(v)
            search(adj, max(current_max, len(ns)), order)
            order.pop()
            for a, b in added:
                adj[a].discard(b)
            for a in ns:
                adj[a].add(v)
            adj[v] = ns

        # a simplicial vertex is always safe to eliminate first
        for v in list(adj):
            ns = adj[v]
            if all(b in adj[a] for a in ns for b in ns if a != b):
                branch(v)
                return
        for v in sorted(adj, key=lambda u: (len(adj[u]), u)):
            if max(current_max, len(adj[v])) < best["width"]:
                branch(v)

    search({v: set(ns) for v, ns in g.adj.items()}, 0, [])
    decomp = _eliminate(g.adj, "min_fill", best["order"])
    return decomp.width, decomp


@dataclass(frozen=True)
class ParameterReport:
    """The eight instance parameterisations."""

    formula_size: int
    formula_depth: int
    num_variables: int
    num_splits: int
    arity: int
    formula_tw: int
    formula_tw_exact: bool
    formula_tw_method: str
    teamsize: Optional[int] = None
    formula_team_tw: Optional[int] = None
    formula_team_tw_exact: Optional[bool] = None

    def to_dict(self) -> dict:
        out = {
            "formula_size": self.formula_size,
            "formula_depth": self.formula_depth,
            "num_variables": self.num_variables,
            "num_splits": self.num_splits,
            "arity": self.arity,
            "formula_tw": self.formula_tw,
            "formula_tw_exact": self.formula_tw_exact,
            "formula_tw_method": self.formula_tw_method,
        }
        if self.teamsize is not None:
            out["teamsize"] = self.teamsize
            out["formula_team_tw"] = self.formula_team_tw
            out["formula_team_tw_exact"] = self.formula_team_tw_exact
        return out


def _atom_arity(atom: Formula) -> int:
    if isinstance(atom, (Dep, Inc)):
        return len(atom.xs)
    return len(atom_variables(atom))


def parameters(f: Formula, team: Optional[Team] = None, exact_tw: bool = False,
               method: str = "min_fill", exact_cap: int = 16) -> ParameterReport:
    """Extract all parameterisations of an instance.

    Treewidths come from the elimination heuristic unless ``exact_tw``
    is set; when the exact computation would exceed ``exact_cap``
    vertices it silently falls back to the heuristic bound, with the
    ``*_exact`` flags recording which one was used.
    """
    arity = max((_atom_arity(a) for a in atoms(f)), default=0)

    def tw(graph: GaifmanGraph) -> tuple[int, bool]:
        if exact_tw:
            try:
                width, _ = treewidth_exact(graph, max_vertices=exact_cap)
                return width, True
            except ResourceBoundError:
                pass
        width, _ = treewidth_upper(graph, method=method)
        return width, False

    ftw, ftw_exact = tw(build_gaifman(f))
    report = {
        "formula_size": formula_size(f),
        "formula_depth": formula_depth(f),
        "num_variables": len(variables(f)),
        "num_splits": split_count(f),
        "arity": arity,
        "formula_tw": ftw,
        "formula_tw_exact": ftw_exact,
        "formula_tw_method": "exact" if ftw_exact else method,
    }
    if team is not None:
        ttw, ttw_exact = tw(build_gaifman(f, team))
        report.update(
            teamsize=len(team),
            formula_team_tw=ttw,
            formula_team_tw_exact=ttw_exact,
        )
    return ParameterReport(**report)


def to_dot(g: GaifmanGraph) -> str:
    """Graphviz DOT text with vertex labels and edge provenance."""
    lines = ["graph gaifman {"]
    for vid in g.vertices():
        label = g.label(vid).replace('"', '\\"')
        lines.append(f'  "{vid}" [label="{label}", kind="{g.info[vid][0]}"];')
    for u, v in g.edges():
        tags = ",".join(sorted(g.provenance(u, v)))
        lines.append(f'  "{u}" -- "{v}" [provenance="{tags}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def decomposition_to_object(d: TreeDecomposition) -> dict:
    return {
        "bags": [sorted(b) for b in d.bags],
        "edges": [list(e) for e in d.edges],
        "width": d.width,
    }

"""Syntax-structure graphs, tree decompositions and instance parameters.

The Gaifman graph has one vertex per subformula occurrence, one vertex
per variable (leaf occurrences of a variable are identified with its
single vertex), and one vertex per team row when a team is part of the
instance.  Edges carry provenance tags: ``child`` for the immediate
subformula relation, ``DEP`` for atom/variable co-occurrence, and
``isTrue``/``isFalse`` for row-to-variable incidence.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

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
    node_array,
    node_depth,
    render_formula,
    variable_names,
    variables,
)
from .records import Record, _set
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
    each neighbour to its edge's tags; ``info`` maps it to (kind, label).

    Both directions of an edge hold one frozen tag set, and edges with
    equal tags share one, so a graph holds a handful of tag sets however
    many edges it has.
    """

    def __init__(self):
        self.adj: dict[str, dict[str, frozenset[str]]] = {}
        self.info: dict[str, tuple[str, str]] = {}
        self._tag_sets: dict[frozenset[str], frozenset[str]] = {}

    def _tags(self, *names: str) -> frozenset[str]:
        """The graph's shared tag set holding ``names``."""
        key = frozenset(names)
        return self._tag_sets.setdefault(key, key)

    def add_vertex(self, vid: str, kind: str, label: str) -> None:
        if vid not in self.adj:
            self.adj[vid] = {}
            self.info[vid] = (kind, label)

    def add_edge(self, u: str, v: str, tag: str) -> None:
        if u == v:
            return
        adj = self.adj
        nbrs = adj.setdefault(u, {})
        tags = nbrs.get(v, ())
        if tag not in tags:
            nbrs[v] = adj.setdefault(v, {})[u] = self._tags(tag, *tags)

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
        return self.adj[u][v]

    def __len__(self) -> int:
        return len(self.adj)


def build_gaifman(f: Formula, team: Team | None = None) -> GaifmanGraph:
    """Gaifman graph of the syntax structure of ``f`` (and optionally a team)."""
    gg = GaifmanGraph()
    add_vertex, add_edge = gg.add_vertex, gg.add_edge
    # Pre-order by an explicit stack.  Vertices are added when reached and
    # a ``child`` edge once the child's subtree is done, so vertices and
    # each vertex's neighbours keep the order of a recursive walk.
    nodes, kids = node_array(f)
    count = 0
    todo: list = [(0, None)]
    while todo:
        i, up = todo.pop()
        if type(i) is str:  # (child, parent) with the child's subtree done
            add_edge(up, i, "child")
            continue
        node = nodes[i]
        t = type(node)
        if t is VarRef:
            vid = "var:" + node.name
            add_vertex(vid, "variable", node.name)
        else:
            vid = f"sub:{count}"
            count += 1
            label = ("&" if t is And else "|" if t is Or else "!" if t is Not
                     else render_formula(node))
            add_vertex(vid, "subformula", label)
            if t in _DEP_ATOMS:
                used = atom_variables(node)
                for v in used:
                    add_vertex("var:" + v, "variable", v)
                    add_edge(vid, "var:" + v, "DEP")
                # All of an atom's variables must share a decomposition
                # bag, so they form a clique.
                for j, a in enumerate(used):
                    for b in used[j + 1:]:
                        add_edge("var:" + a, "var:" + b, "DEP")
        if up is not None:
            todo.append((vid, up))
        for k in reversed(kids[i]):
            todo.append((k, vid))
    if team is not None:
        _add_team(gg, variables(f), team)
    return gg


def _add_team(gg: GaifmanGraph, fvars: tuple[str, ...], team: Team) -> None:
    """Join a new vertex per team row to each variable ``fvars`` of ``gg``."""
    missing = [v for v in fvars if v not in team.domain]
    if missing:
        raise UnknownVariableError(
            f"variables {missing} not in team domain {team.domain}"
        )
    # Every row vertex is new and every variable vertex exists, so each
    # row's edges go straight into both adjacency dicts.
    adj = gg.adj
    columns = [(f"var:{v}", adj[f"var:{v}"], team.index(v)) for v in fvars]
    by_value = (gg._tags("isFalse"), gg._tags("isTrue"))
    for i, row in enumerate(team.rows):
        cid = f"team:{i}"
        gg.add_vertex(cid, "team", f"c{i + 1}")
        row_adj = adj[cid]
        for vid, var_adj, j in columns:
            row_adj[vid] = var_adj[cid] = by_value[row[j]]


class TreeDecomposition(Record):
    def __init__(self, bags: tuple[frozenset[str], ...],
                 edges: tuple[tuple[int, int], ...]):
        _set(self, "bags", bags)
        _set(self, "edges", edges)

    @property
    def width(self) -> int:
        if not self.bags:
            return -1
        return max(len(b) for b in self.bags) - 1


class DecompositionCheck(Record):
    _fields = ("valid", "width", "violation")
    width: int | None = None
    violation: str | None = None


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
    holding: dict[str, set[int]] = {}  # vertex -> the bags that hold it
    for i, bag in enumerate(bags):
        for v in bag:
            holding.setdefault(v, set()).add(i)
    order = g.vertices()
    vertices = set(order)
    for what, odd in (("vertices not covered by any bag", vertices - holding.keys()),
                      ("bag vertices not in the graph", holding.keys() - vertices)):
        if odd:
            return DecompositionCheck(False, violation=f"{what}: {sorted(odd)}")
    for u, v in g.edges():
        if holding[u].isdisjoint(holding[v]):
            return DecompositionCheck(
                False, violation=f"edge ({u},{v}) not inside any bag"
            )
    for v in order:
        if not _connected(adjacency, holding[v]):
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
        for j in adjacency[stack.pop()] & nodes:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(nodes)


def _eliminate_with_fill(work: list[set[int]], fill: list[int], v: int,
                         ns: set[int]) -> set[int]:
    """Eliminate ``v``, whose neighbours are ``ns``, keeping ``fill``
    exact; return the vertices whose fill or degree moved.

    Dropping ``v`` from a neighbour ``a`` removes the missing edges from
    ``v`` to the rest of ``a``'s neighbourhood.  A fill edge ``ab`` adds
    one missing edge from ``b`` to each neighbour of ``a`` outside
    ``b``'s neighbourhood (and the same for ``a``), and completes one for
    each common neighbour of ``a`` and ``b``.  When ``v`` has no fill,
    ``ns`` is already a clique and no intersection is needed.
    """
    if fill[v] == 0:
        rest = len(ns) - 1
        for a in ns:
            wa = work[a]
            wa.discard(v)
            fill[a] -= len(wa) - rest
        return ns
    for a in ns:
        wa = work[a]
        wa.discard(v)
        fill[a] -= len(wa) - len(wa & ns)
    touched = set(ns)
    for a in ns:
        wa = work[a]
        for b in ns - wa:
            if b == a:
                continue
            wb = work[b]
            common = wa & wb
            fill[a] += len(wa) - len(common)
            fill[b] += len(wb) - len(common)
            for w in common:
                fill[w] -= 1
            touched |= common
            wa.add(b)
            wb.add(a)
    return touched


def _eliminate(adj: dict, method: str, order: list[str] | None = None
               ) -> TreeDecomposition:
    """Tree decomposition from eliminating the vertices of ``adj`` in turn.

    The next vertex is the next one of ``order`` when that is given, or
    else the one of least fill (``min_fill``) or of least degree
    (``min_degree``), with ties broken by least degree and then by
    insertion order.  Vertex ``i`` is the ``i``-th key of ``adj``, and
    all choices are made on these ints.  A heuristic pops a heap of int
    keys, ``(fill * n + degree) * n + i`` or ``degree * n + i`` on ``n``
    vertices, which order as the tuples ``(fill, degree, i)`` and
    ``(degree, i)``.  ``key[i]`` is vertex ``i``'s current key (-1 once it
    is gone): a moved key is pushed afresh, a popped key that is not
    current is skipped, and the heap is cut down to the current keys once
    it holds more than twice as many keys as vertices remain.  Fill is
    counted with one intersection per edge and then kept exact by
    :func:`_eliminate_with_fill`.

    A vertex's bag is itself plus its remaining neighbours; the bag's tree
    edge goes to the bag of the earliest-eliminated of those neighbours,
    and a bag with none (the last of a connected component) is attached
    to the final bag.
    """
    names = list(adj)
    n = len(names)
    label = {v: i for i, v in enumerate(names)}
    work = [{label[u] for u in ns} for ns in adj.values()]
    steps: list[tuple[int, set[int]]] = []
    if order is not None:
        for v in map(label.__getitem__, order):
            ns = work[v]
            for a in ns:
                wa = work[a]
                wa |= ns
                wa.discard(a)
                wa.discard(v)
            steps.append((v, ns))
    else:
        fill = None
        if method == "min_fill":
            # Twice a vertex's fill is d(d - 1) less the number of common
            # neighbours summed over its d edges.
            common = [0] * n
            for u, wu in enumerate(work):
                for v in wu:
                    if v > u:
                        c = len(wu & work[v])
                        common[u] += c
                        common[v] += c
            fill = [(len(ns) * (len(ns) - 1) - c) // 2
                    for ns, c in zip(work, common)]
            nn = n * n
            key = [fill[v] * nn + len(ns) * n + v for v, ns in enumerate(work)]
        elif method == "min_degree":
            key = [len(ns) * n + v for v, ns in enumerate(work)]
        else:
            raise ValueError(f"unknown treewidth heuristic {method!r}")
        heap = key[:]
        heapify(heap)
        for left in range(n - 1, -1, -1):
            k = heappop(heap)
            while key[k % n] != k:
                k = heappop(heap)
            v = k % n
            key[v] = -1
            ns = work[v]
            if fill is None:
                for a in ns:
                    wa = work[a]
                    wa |= ns
                    wa.discard(a)
                    wa.discard(v)
                    k = len(wa) * n + a
                    if key[a] != k:
                        key[a] = k
                        heappush(heap, k)
            else:
                for a in _eliminate_with_fill(work, fill, v, ns):
                    k = fill[a] * nn + len(work[a]) * n + a
                    if key[a] != k:
                        key[a] = k
                        heappush(heap, k)
            steps.append((v, ns))
            if len(heap) > 2 * left:
                heap = [k for k in heap if key[k % n] == k]
                heapify(heap)
    pos = [0] * n
    for i, (v, _) in enumerate(steps):
        pos[v] = i
    edges = tuple((i, min(map(pos.__getitem__, ns), default=n - 1))
                  for i, (_, ns) in enumerate(steps[:-1]))
    # A bag built from a set is a third smaller than one built from a list.
    bags = tuple(frozenset({names[v], *map(names.__getitem__, ns)})
                 for v, ns in steps)
    return TreeDecomposition(bags, edges)


def treewidth_upper(g: GaifmanGraph, method: str = "min_fill"
                    ) -> tuple[int, TreeDecomposition]:
    """Heuristic elimination-ordering upper bound with a valid decomposition."""
    decomp = _eliminate(g.adj, method)
    return decomp.width, decomp


def treewidth_exact(g: GaifmanGraph, max_vertices: int = 16
                    ) -> tuple[int, TreeDecomposition]:
    """Exact treewidth by branch-and-bound over elimination orders.

    The search starts from the min-fill decomposition and keeps it unless
    it finds a narrower order.  It pops states from one stack: the bitmask
    of the vertices left (vertex ``i`` is the ``i``-th key of ``g.adj``),
    their neighbourhood bitmasks, the width and the order so far.  A child
    copies the neighbourhoods, so nothing is undone, and the vertices left
    are the memo key: the graph they span does not depend on the order.
    """
    n = len(g)
    if n > max_vertices:
        raise ResourceBoundError(
            f"graph has {n} vertices; exact treewidth capped at {max_vertices}"
        )
    decomp = _eliminate(g.adj, "min_fill")
    best, best_order = decomp.width, None
    names = list(g.adj)
    visited: dict[int, int] = {}  # vertices left -> least width seen
    stack = [((1 << n) - 1, [sum(1 << names.index(u) for u in ns)
                             for ns in g.adj.values()], 0, [])]
    while stack:
        left, nbrs, width, order = stack.pop()
        if width >= best or visited.get(left, n) <= width:
            continue
        rest = [v for v in range(n) if left >> v & 1]
        if len(rest) - 1 <= width:  # what is left fits in one bag
            best, best_order = width, order + sorted(names[v] for v in rest)
            continue
        degree = {v: nbrs[v].bit_count() for v in rest}
        # min degree is a treewidth lower bound for the remaining graph
        if min(degree.values()) >= best:
            continue
        visited[left] = width
        # a simplicial vertex is always safe to eliminate first; otherwise
        # push by falling (degree, name), so the least pops first
        for v in rest:
            if all(nbrs[v] & ~nbrs[a] == 1 << a for a in rest if nbrs[v] >> a & 1):
                picks = [v]
                break
        else:
            picks = sorted((v for v in rest if degree[v] < best),
                           key=lambda v: (degree[v], names[v]), reverse=True)
        for v in picks:
            ns = nbrs[v]
            child = [(m | ns) & ~(1 << a | 1 << v) if ns >> a & 1 else m
                     for a, m in enumerate(nbrs)]
            stack.append((left & ~(1 << v), child, max(width, degree[v]),
                          order + [names[v]]))
    if best_order is not None:  # narrower than min-fill
        decomp = _eliminate(g.adj, "min_fill", best_order)
    return decomp.width, decomp


class ParameterReport(Record):
    """The eight instance parameterisations."""

    _fields = ("formula_size", "formula_depth", "num_variables", "num_splits",
               "arity", "formula_tw", "formula_tw_exact", "formula_tw_method",
               "teamsize", "formula_team_tw", "formula_team_tw_exact")
    teamsize: int | None = None
    formula_team_tw: int | None = None
    formula_team_tw_exact: bool | None = None

    def to_dict(self) -> dict:
        """The fields in order, without those that are None."""
        return {k: v for k, v in self.__dict__.items() if v is not None}


def _atom_arity(atom: Formula) -> int:
    if isinstance(atom, (Dep, Inc)):
        return len(atom.xs)
    return len(atom_variables(atom))


def parameters(f: Formula, team: Team | None = None,
               exact_tw: bool = False) -> ParameterReport:
    """Extract all parameterisations of an instance.

    Treewidths come from the min-fill heuristic unless ``exact_tw`` is
    set; when the exact computation would exceed its default of 16
    vertices it silently falls back to the heuristic bound, with the
    ``*_exact`` flags recording which one was used.
    """
    nodes, kids = node_array(f)
    arity = max((_atom_arity(g) for g in nodes if type(g) in _DEP_ATOMS),
                default=0)

    def tw(graph: GaifmanGraph) -> tuple[int, bool]:
        if exact_tw:
            try:
                width, _ = treewidth_exact(graph)
                return width, True
            except ResourceBoundError:
                pass
        width, _ = treewidth_upper(graph)
        return width, False

    graph = build_gaifman(f)
    ftw, ftw_exact = tw(graph)
    fvars = tuple(sorted(variable_names(nodes)))
    report = {
        "formula_size": len(nodes),
        "formula_depth": node_depth(kids),
        "num_variables": len(fvars),
        "num_splits": sum(type(g) is Or for g in nodes),
        "arity": arity,
        "formula_tw": ftw,
        "formula_tw_exact": ftw_exact,
        "formula_tw_method": "exact" if ftw_exact else "min_fill",
    }
    if team is not None:
        _add_team(graph, fvars, team)
        ttw, ttw_exact = tw(graph)
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

"""Formula AST for propositional team logics.

The AST mirrors the syntax tree: negation is its own node whose only
child is a variable reference, so a negative literal contributes two
nodes to the formula size, and connective chains in the surface syntax
fold left-associatively into binary nodes.
"""

from __future__ import annotations

import enum
import re

from .errors import ArityMismatchError, FormulaSyntaxError, MixedAtomsError
from .records import Record, _set

__all__ = [
    "LogicKind",
    "Top",
    "Bot",
    "VarRef",
    "Not",
    "And",
    "Or",
    "Dep",
    "Inc",
    "Indep",
    "Formula",
    "VarTuple",
    "parse_formula",
    "render_formula",
    "subformulas",
    "node_array",
    "conjuncts",
    "children",
    "atoms",
    "variables",
    "formula_size",
    "formula_depth",
    "split_count",
    "logic_kind",
    "is_split_free",
]

VAR_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: An ordered tuple of variable names.  Order is significant and
#: duplicates are permitted; semantics operations treat positions
#: independently.
VarTuple = tuple[str, ...]


class LogicKind(enum.Enum):
    PL = "PL"
    PDL = "PDL"
    PINC = "PINC"
    PIND = "PIND"


class Top(Record):
    pass


class Bot(Record):
    pass


class VarRef(Record):
    def __init__(self, name: str):
        _set(self, "name", name)


class Not(Record):
    # Atomic negation only: the child is always a variable reference.
    def __init__(self, child: VarRef):
        _set(self, "child", child)


class And(Record):
    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)


class Or(Record):
    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)


class Dep(Record):
    def __init__(self, xs: VarTuple, ys: VarTuple):
        _set(self, "xs", xs)
        _set(self, "ys", ys)


class Inc(Record):
    def __init__(self, xs: VarTuple, ys: VarTuple):
        if len(xs) != len(ys):
            raise ArityMismatchError(
                f"inclusion atom requires equal tuple lengths, "
                f"got {len(xs)} and {len(ys)}"
            )
        _set(self, "xs", xs)
        _set(self, "ys", ys)


class Indep(Record):
    def __init__(self, xs: VarTuple, ys: VarTuple, zs: VarTuple):
        _set(self, "xs", xs)
        _set(self, "ys", ys)
        _set(self, "zs", zs)


Formula = Top | Bot | VarRef | Not | And | Or | Dep | Inc | Indep

_ATOM_KINDS = {Dep: LogicKind.PDL, Inc: LogicKind.PINC, Indep: LogicKind.PIND}


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (And, Or)):
        return (f.left, f.right)
    if isinstance(f, Not):
        return (f.child,)
    return ()


def subformulas(f: Formula) -> list[Formula]:
    """All AST nodes of ``f`` in pre-order, including ``f`` itself."""
    out = []
    stack = [f]
    while stack:
        node = stack.pop()
        out.append(node)
        t = type(node)
        if t is And or t is Or:
            stack += (node.right, node.left)
        elif t is Not:
            stack.append(node.child)
    return out


def node_array(f: Formula) -> tuple[list[Formula], list[tuple[int, ...]]]:
    """The nodes of ``f`` in :func:`subformulas` order, one position per
    occurrence, and ``kids[i]``, the positions of node ``i``'s children:
    the left one right after it, the right one after the left subtree."""
    nodes = subformulas(f)
    n = len(nodes)
    size = [1] * n
    kids: list[tuple[int, ...]] = [()] * n
    for i in range(n - 1, -1, -1):
        t = type(nodes[i])
        if t is And or t is Or:
            right = i + 1 + size[i + 1]
            kids[i] = (i + 1, right)
            size[i] = 1 + size[i + 1] + size[right]
        elif t is Not:
            kids[i] = (i + 1,)
            size[i] = 2
    return nodes, kids


def conjuncts(nodes: list[Formula], kids: list[tuple[int, ...]],
              i: int) -> list[int]:
    """Positions of the non-conjunctions reached from node ``i`` through
    conjunctions only, left to right (``[i]`` for a non-conjunction)."""
    out = []
    stack = [i]
    while stack:
        j = stack.pop()
        if type(nodes[j]) is And:
            stack += reversed(kids[j])
        else:
            out.append(j)
    return out


def atoms(f: Formula) -> list[Formula]:
    """Dependency atoms of ``f`` in pre-order."""
    return [g for g in subformulas(f) if type(g) in _ATOM_KINDS]


def atom_variables(atom: Formula) -> tuple[str, ...]:
    """Variables used by a dependency atom, in order of first occurrence."""
    if isinstance(atom, (Dep, Inc)):
        seq = atom.xs + atom.ys
    elif isinstance(atom, Indep):
        seq = atom.xs + atom.zs + atom.ys
    else:
        raise TypeError(f"not a dependency atom: {atom!r}")
    return tuple(dict.fromkeys(seq))


def variable_names(nodes: list[Formula]) -> set[str]:
    """The variables that the formulas in ``nodes`` use directly."""
    names = set()
    for g in nodes:
        t = type(g)
        if t is VarRef:
            names.add(g.name)
        elif t is Dep or t is Inc:
            names.update(g.xs, g.ys)
        elif t is Indep:
            names.update(g.xs, g.ys, g.zs)
    return names


def variables(f: Formula) -> tuple[str, ...]:
    """Distinct variables of ``f``, sorted by name."""
    return tuple(sorted(variable_names(subformulas(f))))


def formula_size(f: Formula) -> int:
    """AST node count; a negative literal counts as two nodes."""
    return len(subformulas(f))


def node_depth(kids: list[tuple[int, ...]]) -> int:
    """Length in edges of the longest root-to-leaf path of the node array
    whose child positions are ``kids``."""
    depth = [0] * len(kids)
    for i in range(len(kids) - 1, -1, -1):
        depth[i] = max((depth[k] + 1 for k in kids[i]), default=0)
    return depth[0]


def formula_depth(f: Formula) -> int:
    """Length in edges of the longest root-to-leaf path."""
    return node_depth(node_array(f)[1])


def split_count(f: Formula) -> int:
    return sum(1 for g in subformulas(f) if isinstance(g, Or))


def is_split_free(f: Formula) -> bool:
    return split_count(f) == 0


def logic_kind(f: Formula) -> LogicKind:
    """Infer the logic of ``f`` from the dependency atoms it contains.

    Raises :class:`MixedAtomsError` if atoms of more than one kind occur.
    """
    kinds = {_ATOM_KINDS[type(a)] for a in atoms(f)}
    if not kinds:
        return LogicKind.PL
    if len(kinds) > 1:
        names = ", ".join(sorted(k.value for k in kinds))
        raise MixedAtomsError(f"formula mixes atoms of several logics: {names}")
    return kinds.pop()


# ---------------------------------------------------------------------------
# Rendering

def _render_leaf(f: Formula) -> str:
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Bot):
        return "B"
    if isinstance(f, VarRef):
        return f.name
    if isinstance(f, Not):
        return f"!{f.child.name}"
    if isinstance(f, Dep):
        return f"=({', '.join(f.xs)}; {', '.join(f.ys)})"
    if isinstance(f, Inc):
        return f"inc({', '.join(f.xs)}; {', '.join(f.ys)})"
    if isinstance(f, Indep):
        zs = f" {', '.join(f.zs)}" if f.zs else ""
        return f"ind({', '.join(f.xs)}; {', '.join(f.ys)} |{zs})"
    raise TypeError(f"not a formula node: {f!r}")


def render_formula(f: Formula) -> str:
    """Canonical fully parenthesized text; parses back to an equal AST."""
    if not isinstance(f, (And, Or)):
        return _render_leaf(f)
    nodes, kids = node_array(f)
    text: list = [None] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        g = nodes[i]
        if isinstance(g, (And, Or)):
            left, right = kids[i]
            op = "&" if isinstance(g, And) else "|"
            text[i] = f"({text[left]} {op} {text[right]})"
            text[left] = text[right] = None
        else:
            text[i] = _render_leaf(g)
    return text[0]


# ---------------------------------------------------------------------------
# Parsing

_RESERVED = {"T", "B"}


_PUNCTUATION = {"(": "lparen", ")": "rparen", "&": "amp", "|": "pipe",
                "!": "bang", ";": "semi", ",": "comma"}
_UNITS = {"top", "bot", "ident", "bang", "depopen", "incopen", "indopen"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, position)`` of each token, then of an ``eof`` one."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCTUATION:
            tokens.append((_PUNCTUATION[c], c, i))
            i += 1
            continue
        if c == "=":
            if i + 1 < n and text[i + 1] == "(":
                tokens.append(("depopen", "=(", i))
                i += 2
                continue
            raise FormulaSyntaxError("'=' must start a dependence atom '=('", i)
        m = VAR_NAME_RE.match(text, i)
        if m:
            word = m.group()
            end = m.end()
            if word in ("inc", "ind") and end < n and text[end] == "(":
                tokens.append((word + "open", word + "(", i))
                i = end + 1
                continue
            if word in _RESERVED:
                tokens.append(("top" if word == "T" else "bot", word, i))
            else:
                tokens.append(("ident", word, i))
            i = end
            continue
        raise FormulaSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def take(self, kind: str) -> str:
        found, text, pos = self.tokens[self.pos]
        if found != kind:
            raise FormulaSyntaxError(
                f"expected {kind}, found {text or 'end of input'!r}", pos
            )
        self.pos += 1
        return text

    def parse(self) -> Formula:
        """``conj ('|' conj)*``, ``conj = unit ('&' unit)*``, folded left;
        a parenthesis pushes the enclosing partial disj and conj."""
        frames: list[tuple] = []
        disj = conj = None
        while True:
            if self.peek() == "lparen":
                self.take("lparen")
                frames.append((disj, conj))
                disj = conj = None
                continue
            f = self.unit()
            while True:
                conj = f if conj is None else And(conj, f)
                if self.peek() == "amp":
                    self.take("amp")
                    break
                disj = conj if disj is None else Or(disj, conj)
                conj = None
                if self.peek() == "pipe":
                    self.take("pipe")
                    break
                if not frames:
                    kind, text, pos = self.tokens[self.pos]
                    if kind != "eof":
                        raise FormulaSyntaxError(
                            f"unexpected trailing {text!r}", pos)
                    return disj
                self.take("rparen")
                f = disj
                disj, conj = frames.pop()

    def unit(self) -> Formula:
        """A constant, literal or dependency atom."""
        kind, text, pos = self.tokens[self.pos]
        if kind not in _UNITS:
            raise FormulaSyntaxError(
                f"expected a formula, found {text or 'end of input'!r}", pos
            )
        self.take(kind)
        if kind == "top":
            return Top()
        if kind == "bot":
            return Bot()
        if kind == "ident":
            return VarRef(text)
        if kind == "bang":
            if self.peek() != "ident":
                raise FormulaSyntaxError(
                    "non-atomic negation: '!' may only precede a variable",
                    self.tokens[self.pos][2]
                )
            return Not(VarRef(self.take("ident")))
        xs = self.vlist()
        self.take("semi")
        ys = self.vlist()
        if kind == "indopen":
            self.take("pipe")
            zs = self.vlist()
            self.take("rparen")
            return Indep(xs, ys, zs)
        self.take("rparen")
        return (Dep if kind == "depopen" else Inc)(xs, ys)

    def vlist(self) -> VarTuple:
        if self.peek() != "ident":
            return ()
        names = [self.take("ident")]
        while self.peek() == "comma":
            self.take("comma")
            names.append(self.take("ident"))
        return tuple(names)


def parse_formula(text: str) -> Formula:
    """Parse formula text into an AST.

    Rejects non-atomic negation, inclusion atoms with mismatched tuple
    lengths and formulas mixing dependency atoms of several kinds.
    """
    f = _Parser(text).parse()
    logic_kind(f)  # reject mixed atom kinds
    return f

"""Rules on the package source itself."""

import ast
import subprocess
import sys
from pathlib import Path

import teamlog


def test_no_assert_statements():
    # ``python -O`` strips asserts, so a check that matters must raise.
    package = Path(teamlog.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_cli_imports_no_dataclasses_inspect_or_typing():
    # These modules cost most of the start-up time of a ``teamlog`` call.
    # ``-S`` skips ``site``, whose hooks may import ``typing`` themselves.
    src = str(Path(teamlog.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import teamlog.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _unused_imports(text: str) -> list[str]:
    """The names that ``text`` imports and never reads, save ``__future__``
    features, names listed in ``__all__`` and lines marked ``noqa: F401``
    (re-exports)."""
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{alias.lineno}:{name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            for name in [(alias.asname or alias.name).split(".")[0]]
            if name not in used
            and "# noqa: F401" not in lines[alias.lineno - 1]]


def test_unused_imports_helper():
    assert _unused_imports(
        "from __future__ import annotations\n"
        "import os.path\nimport re as regex\n"
        "from typing import (\n    Iterator,\n    Union,\n)\n"
        "from .a import b  # noqa: F401\nfrom .c import d\n"
        "__all__ = ['d']\nx: Union[int, None] = regex\n"
    ) == ["2:os", "5:Iterator"]


def test_no_unused_imports():
    # An import that nothing reads is dead code; ``__init__.py`` only
    # re-exports, so it is not scanned.
    package = Path(teamlog.__file__).parent
    found = [f"{path.name}:{name}" for path in sorted(package.rglob("*.py"))
             if path.name != "__init__.py"
             for name in _unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


# Call cycles that may stay, each with the reason its depth is bounded or
# why it is not yet an iteration.  A cycle that goes away must leave this
# list too, so the list only shrinks.
RECURSION_ALLOWED = {
    ("semantics.py", frozenset({"TeamEvaluator.check_at",
                                "TeamEvaluator._check_split"})):
        "split nesting: each nested split level is one more call",
    ("reductions.py", frozenset({"random_formula.build"})):
        "depth is bounded by max_nodes",
}


def _scan(body) -> tuple[list[ast.Call], list[ast.stmt]]:
    """The calls in ``body`` and the definitions nested in it, without
    looking inside those definitions."""
    calls, defs = [], []
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defs.append(node)
            continue
        if isinstance(node, ast.Call):
            calls.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return calls, defs


def _call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """Qualified function name -> the functions it calls: bare names
    resolved through the enclosing function scopes and then the module,
    plus ``self.<method>`` inside a class."""
    graph: dict[str, set[str]] = {}
    calls = []

    def functions(defs, prefix):
        return {d.name: prefix + d.name for d in defs
                if not isinstance(d, ast.ClassDef)}

    def visit(defs, prefix, scopes, cls):
        for d in defs:
            if isinstance(d, ast.ClassDef):
                visit(_scan(d.body)[1], f"{d.name}.", scopes, d.name)
                continue
            name = prefix + d.name
            graph[name] = set()
            found, inner = _scan(d.body)
            own = [functions(inner, f"{name}.")] + scopes
            calls.extend((name, call, own, cls) for call in found)
            visit(inner, f"{name}.", own, cls)

    top = _scan(tree.body)[1]
    visit(top, "", [functions(top, "")], None)
    for caller, call, scopes, cls in calls:
        fn = call.func
        target = None
        if isinstance(fn, ast.Name):
            target = next((s[fn.id] for s in scopes if fn.id in s), None)
        elif (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
              and fn.value.id == "self" and cls is not None):
            target = f"{cls}.{fn.attr}"
        if target in graph:
            graph[caller].add(target)
    return graph


def _cycles(graph: dict[str, set[str]]) -> set[frozenset[str]]:
    """The functions of each call cycle, grouped by strong component."""
    reach = {}
    for start in graph:
        seen, stack = set(), [start]
        while stack:
            for nxt in graph[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach[start] = seen
    return {frozenset(v for v in reach[u] if u in reach[v])
            for u in graph if u in reach[u]}


def test_call_graph_helpers():
    tree = ast.parse(
        "def a():\n    b()\n"
        "def b():\n    a()\n"
        "def c():\n"
        "    def d():\n        d()\n"
        "    d()\n"
        "class K:\n"
        "    def m(self):\n        self.n()\n"
        "    def n(self):\n        self.m()\n        a()\n"
    )
    assert _cycles(_call_graph(tree)) == {
        frozenset({"a", "b"}), frozenset({"c.d"}), frozenset({"K.m", "K.n"})}


def test_recursion_ratchet():
    # No input may hit Python's recursion limit, so every call cycle in
    # the package is either gone or listed, with its reason, above.
    package = Path(teamlog.__file__).parent
    found = set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {(path.name, cycle) for cycle in _cycles(_call_graph(tree))}
    assert sorted(map(str, found - RECURSION_ALLOWED.keys())) == []
    assert sorted(map(str, RECURSION_ALLOWED.keys() - found)) == []

"""Outside-in tracing of the ``teamlog`` modules.

:class:`Tracer` replaces public functions with wrappers, everywhere a
caller looks them up: the defining module and every ``teamlog`` module
that imported the name.  A wrapper records one span (function, start,
end, parent span, op, pass, attribute) in flat in-memory arrays.  A
recursive function gets one span for its outermost call only.  Counts
that need the return value (table sizes, witness rows) are added after
the span has ended, so they cost no traced time.

:func:`write` stores the spans at the end of a run; :func:`self_times`
derives self time (span minus child spans) from them.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

_FIELDS = (("name", "H"), ("start", "d"), ("end", "d"), ("parent", "l"),
           ("op", "l"), ("pass", "l"), ("attr", "l"))


def _team_size(args, kwargs):
    return len(args[0])


def _after_table(tracer, args, kwargs, result):
    tracer.counts["modelcheck.table_masks"] += sum(len(m) for _, m in result.entries)


def _after_sat(tracer, args, kwargs, result):
    if result.status.value == "resource_exhausted":
        tracer.counts["sat.resource_exhausted"] += 1
    if result.witness is not None:
        tracer.counts["sat.witness_rows"] += len(result.witness)


def _after_gaifman(tracer, args, kwargs, result):
    tracer.counts["structure.gaifman_vertices"] += len(result)
    tracer.counts["structure.gaifman_edges"] += len(result.edges())


# (module, attribute, span name, attribute-of-span function, after hook)
TRACED = (
    ("teamlog.cli", "main", "cli.main", None, None),
    ("teamlog.formulas", "parse_formula", "formulas.parse_formula", None, None),
    ("teamlog.formulas", "render_formula", "formulas.render_formula", None, None),
    ("teamlog.teams", "parse_team", "teams.parse_team", None, None),
    ("teamlog.semantics", "eval_atom", "semantics.eval_atom", None, None),
    ("teamlog.semantics", "evaluate", "semantics.evaluate", None, None),
    ("teamlog.modelcheck", "build_sat_table", "modelcheck.build_sat_table",
     _team_size, _after_table),
    ("teamlog.sat", "sat_brute", "sat.brute", None, _after_sat),
    ("teamlog.sat", "sat_singleton", "sat.singleton", None, _after_sat),
    ("teamlog.sat", "sat_fixpoint", "sat.fixpoint", None, _after_sat),
    ("teamlog.sat", "sat_split_free", "sat.split_free", None, _after_sat),
    ("teamlog.structure", "build_gaifman", "structure.build_gaifman", None,
     _after_gaifman),
    ("teamlog.structure", "treewidth_upper", "structure.treewidth_upper", None, None),
    ("teamlog.structure", "treewidth_exact", "structure.treewidth_exact", None, None),
    ("teamlog.structure", "parameters", "structure.parameters", None, None),
)
NAMES = tuple(t[2] for t in TRACED)


class Tracer:
    def __init__(self):
        self.arrays = {key: array(code) for key, code in _FIELDS}
        self.counts: Counter = Counter()
        self.op = -1
        self.pass_ = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._evaluators: list = []

    # -- spans --------------------------------------------------------------

    def _wrap(self, name_id, fn, attr, after):
        a = self.arrays
        names, starts, ends = a["name"], a["start"], a["end"]
        parents, ops, passes, attrs = a["parent"], a["op"], a["pass"], a["attr"]
        stack = self._stack
        clock = time.perf_counter
        counts, raised = self.counts, f"{NAMES[name_id]}.raised"

        def wrapper(*args, **kwargs):
            if stack and names[stack[-1]] == name_id:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            passes.append(self.pass_)
            attrs.append(attr(args, kwargs) if attr else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[raised] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import teamlog.semantics
        import teamlog.teams

        for mod, *_ in TRACED:
            importlib.import_module(mod)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "teamlog" or n.startswith("teamlog.")]
        for name_id, (mod, attr, _, span_attr, after) in enumerate(TRACED):
            original = getattr(sys.modules[mod], attr)
            fn = self._counting_repairs(original) if attr == "sat_fixpoint" else original
            wrapper = self._wrap(name_id, fn, span_attr, after)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)

        counts = self.counts
        team_init = teamlog.teams.Team.__post_init__

        def counted_post_init(team):
            counts["teams.Team.constructed"] += 1
            team_init(team)

        self._patch(teamlog.teams.Team, "__post_init__", counted_post_init)
        ev_init = teamlog.semantics.TeamEvaluator.__init__
        evaluators = self._evaluators

        def registered_init(ev, *args, **kwargs):
            ev_init(ev, *args, **kwargs)
            evaluators.append(ev)

        self._patch(teamlog.semantics.TeamEvaluator, "__init__", registered_init)

    def _counting_repairs(self, fn):
        """``sat_fixpoint`` with a ``repair_log``, counted when it returns."""
        counts = self.counts

        def sat_fixpoint(*args, **kwargs):
            log = kwargs.setdefault("repair_log", [])
            try:
                return fn(*args, **kwargs)
            finally:
                counts["sat.fixpoint.repairs"] += len(log)

        return sat_fixpoint

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def end_op(self) -> None:
        """Close the current op: count the memo entries of its evaluators."""
        self.counts["semantics.memo_entries"] += sum(len(ev.memo) for ev in self._evaluators)
        self._evaluators.clear()

    def __len__(self) -> int:
        return len(self.arrays["start"])


# ---------------------------------------------------------------------------
# Writing and reading spans

def write(tracer: Tracer, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for key, arr in tracer.arrays.items():
        with open(directory / f"{key}.bin", "wb") as fh:
            arr.tofile(fh)
    (directory / "names.json").write_text(json.dumps(NAMES))


def read(directory: Path) -> dict:
    n = (directory / "start.bin").stat().st_size // 8
    spans = {}
    for key, code in _FIELDS:
        arr = array(code)
        with open(directory / f"{key}.bin", "rb") as fh:
            arr.fromfile(fh, n)
        spans[key] = arr
    spans["names"] = json.loads((directory / "names.json").read_text())
    return spans


def self_times(spans: dict) -> list[float]:
    """Self time of every span: its duration minus its children's."""
    starts, ends, parents = spans["start"], spans["end"], spans["parent"]
    own = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own

"""How each workload runs one op and how its answer is checked.

``prepare`` turns op text into program objects outside the timed region
(except for ``params``, whose timed op starts from text).  ``run`` is the
timed call; it returns the answer or raises :class:`Failed` for an op
that gives no verdict.  ``summary`` reduces an answer to a comparable
value, so that every pass can be held to the first.  ``check`` compares
the first pass's answer with an independent oracle and raises
:class:`Wrong` on disagreement.

Library calls go through module attributes (``modelcheck.mc``), so that
the tracer's patches are seen.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path


class Failed(Exception):
    """The op gave no verdict (crash, budget exhausted, exit 3/4, no JSON)."""


class Wrong(Exception):
    """The op gave a verdict that disagrees with the oracle."""


def _expect(cond: bool, op: dict, what: str) -> None:
    if not cond:
        raise Wrong(f"op {op['id']} ({op['family']}): {what}")


def _mode(name: str):
    from teamlog.semantics import SemanticsMode
    return SemanticsMode(name)


# ---------------------------------------------------------------------------
# mc

class Mc:
    def prepare(self, op):
        from teamlog import formulas, teams
        return (formulas.parse_formula(op["formula"]),
                teams.parse_team(op["team"]), _mode(op["mode"]))

    def run(self, op, prep):
        from teamlog import modelcheck
        f, team, mode = prep
        return modelcheck.mc(team, f, mode, algo="bottomup")

    def summary(self, answer):
        return answer

    def check(self, op, prep, answer):
        from teamlog import modelcheck, reductions
        f, team, mode = prep
        _expect(answer == modelcheck.mc(team, f, mode, algo="recursive"), op,
                f"bottomup says {answer}, recursive disagrees")
        if "setsplit" in op:
            inst = reductions.SetSplittingInstance.from_object(op["setsplit"])
            _expect(answer == (reductions.setsplit_brute(inst) is not None), op,
                    f"bottomup says {answer}, set splitting disagrees")


# ---------------------------------------------------------------------------
# sat

class Sat:
    def prepare(self, op):
        from teamlog import formulas
        return formulas.parse_formula(op["formula"]), _mode(op["mode"])

    def run(self, op, prep):
        from teamlog import sat
        f, mode = prep
        engine = op["engine"]
        if engine == "brute":
            result = sat.sat_brute(f, mode, max_vars=3)
        elif engine == "singleton":
            result = sat.sat_singleton(f)
        elif engine == "fixpoint":
            result = sat.sat_fixpoint(f, mode, budget=op["budget"])
        else:
            result = sat.sat_split_free(f)
        if result.status is sat.SatStatus.RESOURCE_EXHAUSTED:
            raise Failed("resource exhausted")
        return result

    def summary(self, answer):
        rows = answer.witness.rows if answer.witness is not None else None
        return answer.status.value, rows

    def check(self, op, prep, answer):
        import oracles
        from teamlog import formulas, sat, semantics
        f, mode = prep
        names = formulas.variables(f)
        if answer.status is sat.SatStatus.SATISFIABLE:
            w = answer.witness
            _expect(w is not None and len(w) > 0 and w.domain == names, op,
                    "satisfiable without a nonempty witness over VAR(f)")
            _expect(semantics.evaluate(w, f, mode, cap=max(16, len(w))), op,
                    "witness does not satisfy the formula")
            return
        kind = formulas.logic_kind(f)
        if kind is not formulas.LogicKind.PINC:
            _expect(not oracles.classical_sat(f, names), op,
                    "unsatisfiable, but an assignment satisfies it")
            return
        if not oracles.lax_sat(f, names):
            return  # no lax model, so no strict model either
        _expect(mode.value == "strict", op,
                "unsatisfiable, but a lax model exists")
        # Strict PINC with a lax model: ask another engine.
        if op["engine"] == "brute":
            other = sat.sat_fixpoint(f, mode)
        else:
            other = sat.sat_brute(f, mode, max_vars=len(names))
        _expect(other.status is sat.SatStatus.UNSATISFIABLE, op,
                f"unsatisfiable, but another engine says {other.status.value}")


# ---------------------------------------------------------------------------
# params

class Params:
    def prepare(self, op):
        return None

    def run(self, op, prep):
        from teamlog import formulas, structure, teams
        f = formulas.parse_formula(op["formula"])
        team = teams.parse_team(op["team"]) if op["team"] else None
        report = structure.parameters(f, team, exact_tw=True)
        graph = structure.build_gaifman(f, team)
        return report, structure.treewidth_upper(graph, method="min_degree")

    def summary(self, answer):
        report, (width, _) = answer
        return report.to_dict(), width

    def check(self, op, prep, answer):
        # The graph is rebuilt here rather than kept from the timed pass,
        # so that a hundred retained graphs do not count as peak RSS.
        import oracles
        from teamlog import formulas, structure, teams
        report, (deg_width, deg_decomp) = answer
        graph = structure.build_gaifman(formulas.parse_formula(op["formula"]),
                                        teams.parse_team(op["team"]) if op["team"] else None)
        _expect(report.formula_size == oracles.count_nodes(op["formula"]), op,
                "formula_size differs from the node count of the text")
        _expect(report.num_splits == 0, op, "a conjunction has no splits")
        verdict = structure.validate_decomposition(graph, deg_decomp)
        _expect(verdict.valid and verdict.width == deg_width, op,
                f"invalid decomposition: {verdict.violation}")
        tw, exact = ((report.formula_team_tw, report.formula_team_tw_exact)
                     if op["team"] else (report.formula_tw, report.formula_tw_exact))
        _expect(tw >= 0 and (not exact or tw <= deg_width), op,
                "exact treewidth above an upper bound")


# ---------------------------------------------------------------------------
# cli

CLI_TIMEOUT_S = 120


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def cli_command(argv, importtime=False) -> list[str]:
    flags = ["-X", "importtime"] if importtime else []
    return [sys.executable, *flags, "-m", "teamlog.cli", *argv]


def _deterministic(result: dict) -> dict:
    """A CLI result without the parts that depend on string hashing.

    The treewidth heuristics break ties by set order, which differs
    between processes (``PYTHONHASHSEED``), so a heuristic width or a
    decomposition may change from call to call; the checks validate them
    instead of comparing them.
    """
    out = {k: v for k, v in result.items() if k not in ("bags", "edges", "width")}
    for key in ("formula_tw", "formula_team_tw"):
        if key in out and not out.get(f"{key}_exact"):
            del out[key]
    return out


class Cli:
    """Each op is one ``python -m teamlog.cli`` subprocess in its own
    directory; the answer is (exit code, parsed JSON report)."""

    def __init__(self, root: Path, workdir: Path):
        self.env = cli_env(root)
        self.workdir = workdir

    def prepare(self, op):
        return self.workdir / str(op["id"])

    def call(self, op, cwd):
        try:
            return subprocess.run(cli_command(op["argv"]), cwd=cwd,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise Failed("timeout") from None

    def run(self, op, cwd):
        return self.answer(self.call(op, cwd))

    @staticmethod
    def answer(proc):
        if proc.returncode in (3, 4):
            raise Failed(f"exit {proc.returncode}")
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise Failed(f"exit {proc.returncode} without JSON") from None
        return proc.returncode, report

    def summary(self, answer):
        code, report = answer
        return code, json.dumps(_deterministic(report["result"]), sort_keys=True)

    def check(self, op, cwd, answer):
        import oracles
        from teamlog import formulas, modelcheck, reductions, sat, semantics
        from teamlog import structure, teams
        code, report = answer
        result = report["result"]
        read = lambda name: (cwd / name).read_text(encoding="utf-8")
        kind = op["kind"]
        _expect(report["command"] == kind, op, "wrong command in report")
        if kind in ("mc", "sat", "params", "translate"):
            f = formulas.parse_formula(read("f.txt"))
        if kind == "mc":
            mode = _mode(op["mode"])
            team = teams.parse_team(read("t.txt"))
            truth = modelcheck.mc(team, f, mode, algo="recursive")
            _expect(result == {"satisfied": truth} and code == (0 if truth else 1),
                    op, f"exit {code} / {result}, library says {truth}")
        elif kind == "sat":
            mode = _mode(op["mode"])
            engine = {"brute": lambda: sat.sat_brute(f, mode, max_vars=3),
                      "singleton": lambda: sat.sat_singleton(f),
                      "fixpoint": lambda: sat.sat_fixpoint(f, mode, budget=4000),
                      "split_free": lambda: sat.sat_split_free(f)}[op["algo"]]
            truth = engine()
            _expect(result["status"] == truth.status.value, op,
                    f"status {result['status']}, library says {truth.status.value}")
            _expect(code == {"satisfiable": 0, "unsatisfiable": 1}.get(
                result["status"], 4), op, f"exit {code} for {result['status']}")
            if "witness" in result:
                w = teams.team_from_object(result["witness"])
                _expect(len(w) > 0 and semantics.evaluate(w, f, mode, cap=max(16, len(w))),
                        op, "witness does not satisfy the formula")
        elif kind == "params":
            team = teams.parse_team(read("t.txt")) if len(op["argv"]) > 3 else None
            truth = structure.parameters(f, team, exact_tw=True).to_dict()
            _expect(code == 0 and _deterministic(result) == _deterministic(truth), op,
                    "report differs from library")
            _expect(result["formula_size"] == oracles.count_nodes(read("f.txt")), op,
                    "formula_size differs from the node count of the text")
        elif kind == "decomp":
            graph = structure.build_gaifman(formulas.parse_formula(read("f.txt")))
            decomp = structure.TreeDecomposition(
                tuple(frozenset(b) for b in result["bags"]),
                tuple(tuple(e) for e in result["edges"]))
            verdict = structure.validate_decomposition(graph, decomp)
            _expect(code == 0 and verdict.valid and verdict.width == result["width"],
                    op, f"invalid decomposition: {verdict.violation}")
            if op["method"] == "exact":
                _expect(result["width"] <= structure.treewidth_upper(graph)[0], op,
                        "exact width above the heuristic bound")
        elif kind == "translate":
            truth = formulas.render_formula(reductions.dep_to_indep(f))
            _expect(code == 0 and result == {"formula": truth}, op,
                    "translation differs from library")
        elif kind == "gen-setsplit":
            inst = reductions.SetSplittingInstance.from_object(op["setsplit"])
            team, f = reductions.setsplit_to_pinc_mc(inst)
            _expect(code == 0 and read("out_f.txt") == formulas.render_formula(f) + "\n"
                    and read("out_t.txt") == teams.render_team(team), op,
                    "generated files differ from library")


def make(workload: str, root: Path, workdir: Path):
    if workload == "cli":
        return Cli(root, workdir)
    return {"mc": Mc, "sat": Sat, "params": Params}[workload]()

"""Command-line entry point.

Machine-readable JSON on stdout by default (``--pretty`` for humans);
exit codes: 0 satisfied/ok, 1 not satisfied/unsatisfiable, 2 usage or
parse error, 3 resource guard, 4 search budget exhausted, 5 internal
error (an unexpected exception, or a SAT witness that fails its re-check).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .errors import (
    EnumerationCapError,
    ResourceBoundError,
    TeamlogError,
)
from .formulas import is_split_free, parse_formula, render_formula
from .modelcheck import mc, mc_bottom_up
from .reductions import SetSplittingInstance, dep_to_indep, setsplit_to_pinc_mc
from .sat import (
    DEFAULT_BRUTE_MAX_VARS,
    DEFAULT_FIXPOINT_BUDGET,
    SatStatus,
    sat_brute,
    sat_fixpoint,
    sat_singleton,
    sat_split_free,
)
from .semantics import SemanticsMode, evaluate
from .structure import (
    build_gaifman,
    decomposition_to_object,
    parameters,
    to_dot,
    treewidth_exact,
    treewidth_upper,
)
from .teams import parse_team, render_team, team_to_object

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _mode(name: str) -> SemanticsMode:
    return SemanticsMode.STRICT if name == "strict" else SemanticsMode.LAX


def _count(what: str):
    """A parser of non-negative integers; ``what`` names the input."""
    def parse(text: str) -> int:
        if not text.isdecimal():
            raise argparse.ArgumentTypeError(
                f"{what} is a non-negative integer, not {text!r}")
        return int(text)
    return parse


def _report(args, payload: dict, engine: str, started: float) -> dict:
    return {
        "command": args.command,
        "engine": engine,
        "result": payload,
        "timing_ms": round((time.perf_counter() - started) * 1000, 3),
    }


def _emit(args, report: dict) -> None:
    if args.pretty:
        for key, value in report["result"].items():
            print(f"{key}: {value}")
        print(f"[{report['engine']}, {report['timing_ms']} ms]")
    else:
        print(json.dumps(report))


def _cmd_mc(args) -> int:
    started = time.perf_counter()
    formula = parse_formula(_read(args.formula))
    team = parse_team(_read(args.team))
    satisfied = mc(team, formula, _mode(args.semantics), algo=args.algo)
    _emit(args, _report(args, {"satisfied": satisfied}, args.algo, started))
    return EXIT_OK if satisfied else EXIT_NEGATIVE


def _cmd_sat(args) -> int:
    started = time.perf_counter()
    formula = parse_formula(_read(args.formula))
    mode = _mode(args.semantics)
    budget = DEFAULT_FIXPOINT_BUDGET if args.budget is None else args.budget
    if args.algo == "brute":
        result = sat_brute(formula, mode, max_vars=args.max_vars,
                           budget=budget)
    elif args.algo == "singleton":
        result = sat_singleton(formula, budget=budget)
    elif args.algo == "fixpoint":
        result = sat_fixpoint(formula, mode, budget=budget)
    else:
        result = sat_split_free(formula)
    payload: dict = {"status": result.status.value}
    witness = result.witness
    if witness is not None:
        # A split-free formula needs no split enumeration, so its re-check
        # is linear in the witness and needs no cap.  Else the iterative
        # model checker checks it, at any depth of split nesting.
        if is_split_free(formula):
            holds = evaluate(witness, formula, mode, cap=len(witness))
        else:
            holds = mc_bottom_up(witness, formula, mode)
        if not holds:
            print(f"internal error: the {args.algo} witness fails its re-check",
                  file=sys.stderr)
            return EXIT_INTERNAL
        payload["witness"] = team_to_object(witness)
    _emit(args, _report(args, payload, args.algo, started))
    if result.status is SatStatus.SATISFIABLE:
        return EXIT_OK
    if result.status is SatStatus.UNSATISFIABLE:
        return EXIT_NEGATIVE
    return EXIT_BUDGET


def _cmd_params(args) -> int:
    started = time.perf_counter()
    formula = parse_formula(_read(args.formula))
    team = parse_team(_read(args.team)) if args.team else None
    report = parameters(formula, team, exact_tw=args.exact_tw)
    _emit(args, _report(args, report.to_dict(), "structure", started))
    return EXIT_OK


def _cmd_graph(args) -> int:
    formula = parse_formula(_read(args.formula))
    team = parse_team(_read(args.team)) if args.team else None
    graph = build_gaifman(formula, team)
    sys.stdout.write(to_dot(graph))
    return EXIT_OK


def _cmd_decomp(args) -> int:
    started = time.perf_counter()
    formula = parse_formula(_read(args.formula))
    team = parse_team(_read(args.team)) if args.team else None
    graph = build_gaifman(formula, team)
    if args.method == "exact":
        _, decomp = treewidth_exact(graph)
    else:
        _, decomp = treewidth_upper(graph, method=args.method)
    _emit(args, _report(args, decomposition_to_object(decomp), args.method, started))
    return EXIT_OK


def _cmd_gen_setsplit(args) -> int:
    started = time.perf_counter()
    inst = SetSplittingInstance.from_object(json.loads(_read(args.spec)))
    team, formula = setsplit_to_pinc_mc(inst)
    with open(args.formula_out, "w", encoding="utf-8") as fh:
        fh.write(render_formula(formula) + "\n")
    with open(args.team_out, "w", encoding="utf-8") as fh:
        fh.write(render_team(team))
    payload = {
        "formula_file": args.formula_out,
        "team_file": args.team_out,
        "elements": len(inst.elements),
        "sets": len(inst.sets),
    }
    _emit(args, _report(args, payload, "reduction", started))
    return EXIT_OK


def _cmd_translate(args) -> int:
    started = time.perf_counter()
    formula = parse_formula(_read(args.formula))
    translated = render_formula(dep_to_indep(formula))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(translated + "\n")
    _emit(args, _report(args, {"formula": translated}, "translate", started))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamlog",
        description="Model checking, satisfiability and structural analysis "
        "for propositional team logics (PDL, PINC, PIND).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--pretty", action="store_true",
                       help="human-readable output instead of JSON")

    p = sub.add_parser("mc", help="model check a team against a formula")
    p.add_argument("formula")
    p.add_argument("team")
    p.add_argument("--semantics", choices=["strict", "lax"], default="strict")
    p.add_argument("--algo", choices=["recursive", "bottomup"], default="bottomup")
    common(p)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("sat", help="decide satisfiability")
    p.add_argument("formula")
    p.add_argument("--semantics", choices=["strict", "lax"], default="strict")
    p.add_argument("--algo",
                   choices=["brute", "singleton", "fixpoint", "splitfree"],
                   default="brute")
    # argparse converts a string default with ``type`` too
    p.add_argument("--budget",
                   type=_count("a budget (--budget or TEAMLOG_BUDGET)"),
                   default=os.environ.get("TEAMLOG_BUDGET") or None,
                   help="search budget (overrides TEAMLOG_BUDGET)")
    p.add_argument("--max-vars", default=DEFAULT_BRUTE_MAX_VARS,
                   type=_count("a variable bound (--max-vars)"),
                   help="brute-force variable bound (reach: "
                   f"{1 << DEFAULT_BRUTE_MAX_VARS} assignments)")
    common(p)
    p.set_defaults(func=_cmd_sat)

    p = sub.add_parser("params", help="extract instance parameters")
    p.add_argument("formula")
    p.add_argument("team", nargs="?", default=None)
    p.add_argument("--exact-tw", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("graph", help="export the Gaifman graph")
    p.add_argument("formula")
    p.add_argument("team", nargs="?", default=None)
    common(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("decomp", help="compute a tree decomposition")
    p.add_argument("formula")
    p.add_argument("team", nargs="?", default=None)
    p.add_argument("--method", choices=["min_fill", "min_degree", "exact"],
                   default="min_fill")
    common(p)
    p.set_defaults(func=_cmd_decomp)

    p = sub.add_parser("gen-setsplit",
                       help="reduce a set-splitting instance to strict PINC MC")
    p.add_argument("spec", help="JSON file with keys 'elements' and 'sets'")
    p.add_argument("--formula-out", required=True)
    p.add_argument("--team-out", required=True)
    common(p)
    p.set_defaults(func=_cmd_gen_setsplit)

    p = sub.add_parser("translate", help="rewrite dependence atoms")
    p.add_argument("formula")
    p.add_argument("--dep-to-indep", action="store_true", required=True)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=_cmd_translate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (EnumerationCapError, ResourceBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (TeamlogError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # Any other exception is a fault of the program, never an answer.
        import traceback
        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Seeded instance families for the four benchmark workloads.

``generate(workload, seed)`` returns the ops of one pass as plain dicts
that hold only text (formula, team, CLI argv) and metadata.  The program
under test sees nothing but that text.  ``teamlog.reductions`` serves as
a generator here (``random_formula``, ``setsplit_to_pinc_mc``) and is not
measured.  The same (workload, seed) always yields the same ops.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

from teamlog.formulas import (
    And,
    Bot,
    LogicKind,
    Not,
    Or,
    Top,
    atoms,
    render_formula,
    subformulas,
)
from teamlog.reductions import (
    RandomFormulaConfig,
    SetSplittingInstance,
    random_formula,
    setsplit_to_pinc_mc,
)
from teamlog.teams import render_team

WORKLOADS = ("cli", "mc", "sat", "params")

# Why each family is in its workload; copied into every result.
FAMILY_WHY = {
    "mc.random": "random PDL/PINC/PIND formulas, at most 3 splits, |T| 4..12, "
                 "strict and lax: atom tables and split joins do the work",
    "mc.setsplit": "set-splitting reductions (strict PINC), ten of them "
                   "planted splittable; verdict known from the set family",
    "sat.fixpoint": "random PINC over 4 variables with splits under a fixed "
                    "budget; some exhaust it and count as failed",
    "sat.split_free": "inclusion chains with 6..9 free variables; witnesses "
                      "of 64..512 rows, some planted label conflicts",
    "sat.brute": "PDL/PINC/PIND over at most 3 variables, a quarter planted "
                 "unsatisfiable: full team enumeration",
    "sat.singleton": "PDL/PIND over 8..12 variables, and 16 planted "
                     "unsatisfiable over 9: full assignment enumeration",
    "params.chain": "conjunctions of 20..200 dependence atoms against teams "
                    "of 0..128 rows: parser, Gaifman graph and min-fill",
    "params.deep": "a 1100-atom chain, deeper than the default recursion "
                   "limit; a known defect, counted as failed",
    "cli.call": "small instances through every subcommand: interpreter "
                "start and import dominate",
    "cli.defect": "known defects: splitfree witness over 16 rows (exit 3) "
                  "and mc on a formula nested 1100 deep (traceback)",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KEYWORDS = {"T", "B", "inc", "ind"}
_LOGICS = (LogicKind.PDL, LogicKind.PINC, LogicKind.PIND)
_MODES = ("strict", "lax")


def _names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


def _team_text(rng: random.Random, names, size: int) -> str:
    rows = rng.sample(range(1 << len(names)), size)
    lines = [" ".join(names)]
    lines += ["".join(str(r >> j & 1) for j in range(len(names))) for r in rows]
    return "\n".join(lines) + "\n"


def _shape(f) -> tuple[int, int]:
    """(leaves, splits); a negative literal is one leaf."""
    nodes = subformulas(f)
    kids = {id(n.child) for n in nodes if isinstance(n, Not)}
    leaves = sum(1 for n in nodes
                 if not isinstance(n, (And, Or)) and id(n) not in kids)
    return leaves, sum(1 for n in nodes if isinstance(n, Or))


def _formula(rng: random.Random, logic: LogicKind, nvars: int, nodes: int,
             splits: int, leaves: tuple[int, int],
             tables: tuple[int, int] | None = None) -> str:
    """A ``random_formula`` with exactly ``splits`` splits and a leaf count
    in ``leaves``: the shape fixes most of the cost, the seed the rest.
    ``tables`` fixes how many nodes get an atom table in bottom-up model
    checking (a negative literal has two) and how many of them are
    dependency atoms."""
    while True:
        f = random_formula(RandomFormulaConfig(
            logic=logic, max_vars=nvars, max_nodes=nodes, max_arity=2,
            seed=rng.randrange(1 << 30), max_splits=splits))
        n_leaves, n_splits = _shape(f)
        if n_splits == splits and leaves[0] <= n_leaves <= leaves[1] and (
                tables is None or tables == (
                    sum(1 for n in subformulas(f) if not isinstance(n, (And, Or, Top, Bot))),
                    len(atoms(f)))):
            return render_formula(f)


# ---------------------------------------------------------------------------
# mc

# (team size, ops per pass, split counts cycled, plateau).  Small teams set
# p50 and |T| = 10..12 set p90.  A percentile that falls between ops of very
# different cost jumps with small timing noise, so the median falls inside
# a plateau: 24 split-free PDL ops at |T|=7, each with four atom tables of
# which two are dependence atoms; every smaller op is cheaper (at most one
# split).  A |T|=12 op costs 0.15-0.45 s, so only two are in a pass: the
# per-op times are the fastest of a pass count that needs passes of about
# a second and a half.
_ANY = (0, 1, 2, 3)
MC_STRATA = ((4, 12, (0, 1), False), (5, 11, (0, 1), False), (6, 10, (0, 1), False),
             (7, 24, (0,), True), (8, 8, _ANY, False), (9, 8, _ANY, False),
             (10, 5, (0, 1, 2), False), (11, 3, (0, 1), False), (12, 2, (0,), False))
MC_TEAM_SIZES = tuple(s[0] for s in MC_STRATA)
MC_SETSPLIT_ELEMENTS = (2, 3, 4, 5, 6, 7, 7)
# Planted splittable instances (|T| = elements + 2): random teams and
# formulas are mostly not satisfied, and both verdicts should cover at
# least a quarter of the ops.
MC_SETSPLIT_PLANTED = (2, 3, 2, 3, 2, 3, 2, 3, 2, 3)


def _setsplit_instance(rng: random.Random, k: int) -> SetSplittingInstance:
    elements = tuple(f"e{i + 1}" for i in range(k))
    blocks = [frozenset(rng.sample(elements, min(k, rng.randint(2, 3))))
              for _ in range(rng.randint(2, 4))]
    return SetSplittingInstance(elements, tuple(blocks))


def _planted_setsplit(rng: random.Random, k: int) -> SetSplittingInstance:
    """Every block meets both sides of a random partition: splittable."""
    elements = tuple(f"e{i + 1}" for i in range(k))
    cut = rng.randint(1, k - 1)
    shuffled = rng.sample(elements, k)
    left, right = shuffled[:cut], shuffled[cut:]
    blocks = [frozenset((rng.choice(left), rng.choice(right)))
              for _ in range(rng.randint(2, 4))]
    return SetSplittingInstance(elements, tuple(blocks))


def _gen_mc(rng: random.Random) -> list[dict]:
    ops = []
    i = 0
    for size, count, split_counts, plateau in MC_STRATA:
        for j in range(count):
            splits = split_counts[j % len(split_counts)]
            logic, tables = (LogicKind.PDL, (4, 2)) if plateau else (_LOGICS[i % 3], None)
            ops.append({
                "family": "mc.random",
                "formula": _formula(rng, logic, 5, 14, splits,
                                    (splits + 2, splits + 4), tables),
                "team": _team_text(rng, _names(5), size),
                "mode": _MODES[i // 3 % 2],
                "size": size,
            })
            i += 1
    instances = [_setsplit_instance(rng, k) for k in MC_SETSPLIT_ELEMENTS]
    instances += [_planted_setsplit(rng, k) for k in MC_SETSPLIT_PLANTED]
    for inst in instances:
        team, f = setsplit_to_pinc_mc(inst)
        ops.append({
            "family": "mc.setsplit",
            "formula": render_formula(f),
            "team": render_team(team),
            "mode": "strict",
            "size": len(team),
            "setsplit": inst.to_object(),
        })
    return ops


# ---------------------------------------------------------------------------
# sat

SAT_FIXPOINT_OPS = 48
SAT_FIXPOINT_BUDGET = 4000
SAT_BRUTE_OPS = 48
SAT_SINGLETON_VARS = (8, 9, 10, 11, 12)
SAT_SINGLETON_PER_SIZE = 4
# Planted-unsatisfiable singleton searches of one size: the cost plateau
# that holds p90 (see MC_STRATA for why).
SAT_PLATEAU_OPS = 16
SAT_PLATEAU_VARS = 9
SAT_SPLIT_FREE_FREE_VARS = {6: 4, 7: 4, 8: 3, 9: 1}


def _contradiction(rng: random.Random, text: str, names) -> str:
    v = rng.choice(names)
    return f"({text}) & ({v} & !{v})"


def _inclusion_chain(rng: random.Random, free: int, unsat: bool) -> str:
    """Inclusion atoms over ``free + 2`` variables; two labelled ends.

    Labels flow from the y side of an atom to its x side, so a chain
    ``inc(a; b) & inc(b; c)`` carries a label on ``c`` to ``a``.  A
    conflicting pair of labels at both ends of one chain is unsatisfiable.
    """
    names = list(_names(free + 2))
    rng.shuffle(names)
    head, tail, rest = names[0], names[1], names[2:]
    incs = [f"inc({rest[j]}; {rest[j + 1]})" for j in range(len(rest) - 1)]
    if rng.random() < 0.5:
        a, b = rng.sample(rest, 2)
        incs.append(f"inc({a}, {b}; {b}, {a})")
    if unsat:
        incs.append(f"inc({head}; {tail})")
    parts = [head, f"!{tail}"] + incs
    rng.shuffle(parts)
    return " & ".join(parts)


def _gen_sat(rng: random.Random) -> list[dict]:
    ops = []
    for i in range(SAT_FIXPOINT_OPS):
        ops.append({
            "family": "sat.fixpoint", "engine": "fixpoint",
            "formula": _formula(rng, LogicKind.PINC, 4, 10, i % 4, (i % 4 + 1, 6)),
            "mode": _MODES[i % 2], "budget": SAT_FIXPOINT_BUDGET,
        })
    for free, count in SAT_SPLIT_FREE_FREE_VARS.items():
        for j in range(count):
            ops.append({
                "family": "sat.split_free", "engine": "split_free",
                "formula": _inclusion_chain(rng, free, unsat=j % 4 == 3),
                "mode": "strict",
            })
    for i in range(SAT_BRUTE_OPS):
        logic = _LOGICS[i % 3]
        text = _formula(rng, logic, 3, 9, i % 3, (i % 3 + 1, 5))
        if i % 4 == 3:
            text = _contradiction(rng, text, _names(3))
        ops.append({"family": "sat.brute", "engine": "brute", "formula": text,
                    "mode": _MODES[i // 3 % 2]})
    i = 0
    for n in SAT_SINGLETON_VARS:
        for _ in range(SAT_SINGLETON_PER_SIZE):
            logic = (LogicKind.PDL, LogicKind.PIND)[i % 2]
            ops.append({"family": "sat.singleton", "engine": "singleton",
                        "formula": _formula(rng, logic, n, 3 * n, 2, (n // 2, 3 * n)),
                        "mode": "strict"})
            i += 1
    n = SAT_PLATEAU_VARS
    for i in range(SAT_PLATEAU_OPS):
        logic = (LogicKind.PDL, LogicKind.PIND)[i % 2]
        while True:
            text = _formula(rng, logic, n, 3 * n, 2, (n, n))
            if len(set(_IDENT.findall(text)) - _KEYWORDS) == n:
                break
        ops.append({"family": "sat.singleton", "engine": "singleton",
                    "formula": _contradiction(rng, text, _names(n)),
                    "mode": "strict"})
    return ops


# ---------------------------------------------------------------------------
# params

# (atoms, ops per pass, team row counts cycled over the ops).  Team rows
# and atoms both add cost (a 100-atom chain with 16 rows takes about 0.25 s,
# a 400-atom chain about 1 s), so most ops are small and passes stay near
# two seconds; the 400-atom point of the size curve comes from the layer
# sweep.  p90 falls among the 50- to 200-atom ops.
PARAMS_BUCKETS = (
    (20, 82, (0, 0, 16, 0, 0, 64, 0, 0, 16, 0, 0, 128)),
    (50, 10, (0, 0, 16)),
    (100, 6, (0,)),
    (200, 1, (0,)),
)
PARAMS_DEEP_ATOMS = 1100
PARAMS_SWEEP_ONLY_ATOMS = (400,)
PARAMS_ATOM_BUCKETS = (tuple(b[0] for b in PARAMS_BUCKETS) + PARAMS_SWEEP_ONLY_ATOMS
                       + (PARAMS_DEEP_ATOMS,))


def _dep_chain(rng: random.Random, atoms: int) -> tuple[str, int]:
    """``=(x_i[, x_{i-1}]; x_{i+1})`` for i = 1..atoms, variables shuffled."""
    names = list(_names(atoms + 1))
    rng.shuffle(names)
    parts = []
    for i in range(atoms):
        xs = [names[i]] + ([names[i - 1]] if i and rng.random() < 0.5 else [])
        parts.append(f"=({', '.join(xs)}; {names[i + 1]})")
    return " & ".join(parts), atoms + 1


def _gen_params(rng: random.Random) -> list[dict]:
    ops = []
    for atoms, count, row_counts in PARAMS_BUCKETS:
        for j in range(count):
            text, nvars = _dep_chain(rng, atoms)
            rows = row_counts[j % len(row_counts)]
            team = None
            if rows:
                names = _names(nvars)
                bits = {rng.getrandbits(nvars) for _ in range(rows)}
                lines = [" ".join(names)]
                lines += ["".join(str(b >> k & 1) for k in range(nvars))
                          for b in sorted(bits)]
                team = "\n".join(lines) + "\n"
            ops.append({"family": "params.chain", "formula": text,
                        "team": team, "atoms": atoms})
    text, _ = _dep_chain(rng, PARAMS_DEEP_ATOMS)
    ops.append({"family": "params.deep", "formula": text, "team": None,
                "atoms": PARAMS_DEEP_ATOMS})
    return ops


# ---------------------------------------------------------------------------
# cli

def _gen_cli(rng: random.Random) -> list[dict]:
    """CLI calls; ``files`` maps a file name to its text, written by the
    runner into the call's working directory."""
    ops = []

    def call(kind, argv, files, family="cli.call", **meta):
        ops.append({"family": family, "kind": kind, "argv": argv,
                    "files": files, **meta})

    for i in range(10):
        algo = "bottomup" if i < 6 else "recursive"
        size = 4 + i % 5
        f = _formula(rng, _LOGICS[i % 3], 4, 10, i % 3, (i % 3 + 1, 5))
        mode = _MODES[i % 2]
        call("mc", ["mc", "f.txt", "t.txt", "--semantics", mode, "--algo", algo],
             {"f.txt": f, "t.txt": _team_text(rng, _names(4), size)},
             mode=mode, algo=algo)
    for i in range(3):
        f = _formula(rng, _LOGICS[i], 3, 8, i % 2, (1, 4))
        mode = _MODES[i % 2]
        call("sat", ["sat", "f.txt", "--algo", "brute", "--semantics", mode,
                     "--max-vars", "3"], {"f.txt": f}, mode=mode, algo="brute")
    for i in range(3):
        f = _formula(rng, (LogicKind.PDL, LogicKind.PIND)[i % 2], 6, 14, 1, (3, 9))
        call("sat", ["sat", "f.txt", "--algo", "singleton"], {"f.txt": f},
             mode="strict", algo="singleton")
    for i in range(3):
        f = _formula(rng, LogicKind.PINC, 3, 8, 1 + i % 2, (2, 5))
        mode = _MODES[i % 2]
        call("sat", ["sat", "f.txt", "--algo", "fixpoint", "--semantics", mode,
                     "--budget", "4000"], {"f.txt": f}, mode=mode, algo="fixpoint")
    for i in range(2):
        f = " & ".join([f"inc(x{j}; x{j + 1})" for j in range(1, 4)])
        f = f"x{4 - i} & " + f
        call("sat", ["sat", "f.txt", "--algo", "splitfree"], {"f.txt": f},
             mode="strict", algo="split_free")
    # Known defect: a 64-row witness is re-checked under the 16-row cap.
    call("sat", ["sat", "f.txt", "--algo", "splitfree"],
         {"f.txt": "inc(x1; x2) & inc(x3; x4) & inc(x5; x6)"},
         family="cli.defect", mode="strict", algo="split_free")
    for i in range(4):
        text, nvars = _dep_chain(rng, 6 + 2 * i)
        files = {"f.txt": text}
        argv = ["params", "f.txt"]
        if i % 2:
            files["t.txt"] = _team_text(rng, _names(nvars), 6)
            argv.append("t.txt")
        call("params", argv + ["--exact-tw"], files)
    for method in ("min_fill", "min_degree", "exact"):
        text, _ = _dep_chain(rng, 5)
        call("decomp", ["decomp", "f.txt", "--method", method], {"f.txt": text},
             method=method)
    for i in range(2):
        f = _formula(rng, LogicKind.PDL, 4, 12, 1 + i, (2, 6))
        call("translate", ["translate", "f.txt", "--dep-to-indep"], {"f.txt": f})
    for i in range(2):
        inst = _setsplit_instance(rng, 4 + i)
        call("gen-setsplit", ["gen-setsplit", "s.json", "--formula-out", "out_f.txt",
                              "--team-out", "out_t.txt"],
             {"s.json": json.dumps(inst.to_object())}, setsplit=inst.to_object())
    # Known defect: nesting deeper than the recursion limit gives a traceback.
    deep = "(" * 1100 + "x1" + ")" * 1100
    call("mc", ["mc", "f.txt", "t.txt"],
         {"f.txt": deep, "t.txt": "x1\n1\n"}, family="cli.defect",
         mode="strict", algo="bottomup")
    return ops


def sweep() -> list[dict]:
    """In-process CLI calls that reach every traced function and every
    point of both curves once; a traced run falls back on them for the
    layers its own ops do not reach.  Fixed, so that its counts repeat
    from seed to seed."""
    rng = random.Random(f"sweep:{POOL_SEED}")
    ops = []

    def call(argv, files, **meta):
        ops.append({"id": len(ops), "argv": argv, "files": files, **meta})

    for size in MC_TEAM_SIZES:
        f = _formula(rng, LogicKind.PDL, 5, 6, 0, (2, 3))
        call(["mc", "f.txt", "t.txt"],
             {"f.txt": f, "t.txt": _team_text(rng, _names(5), size)})
    call(["mc", "f.txt", "t.txt", "--algo", "recursive"],
         {"f.txt": _formula(rng, LogicKind.PDL, 4, 10, 1, (2, 5)),
          "t.txt": _team_text(rng, _names(4), 8)})
    sat_formulas = {
        "brute": _formula(rng, LogicKind.PINC, 3, 8, 1, (2, 4)),
        "singleton": _formula(rng, LogicKind.PDL, 8, 20, 1, (4, 12)),
        "fixpoint": _formula(rng, LogicKind.PINC, 3, 8, 1, (2, 4)),
        "splitfree": _inclusion_chain(rng, 6, unsat=False),
    }
    for algo, f in sat_formulas.items():
        call(["sat", "f.txt", "--algo", algo], {"f.txt": f})
    for atoms in PARAMS_ATOM_BUCKETS:
        text, _ = _dep_chain(rng, atoms)
        call(["params", "f.txt"], {"f.txt": text}, atoms=atoms)
    text, _ = _dep_chain(rng, 3)
    call(["params", "f.txt", "--exact-tw"], {"f.txt": text})
    for method in ("min_fill", "exact"):
        call(["decomp", "f.txt", "--method", method], {"f.txt": text})
    call(["translate", "f.txt", "--dep-to-indep"],
         {"f.txt": _formula(rng, LogicKind.PDL, 4, 10, 1, (2, 5))})
    return ops


_GENERATORS = {"cli": _gen_cli, "mc": _gen_mc, "sat": _gen_sat,
               "params": _gen_params}

# Workloads whose instances come from a fixed pool that the seed relabels.
# Cost at a fixed instance shape spans up to three orders of magnitude, so
# fresh draws per seed moved p50, p90 and throughput by 27-36% (mc) and
# throughput by a factor of 2.8 (sat) over five seeds.
POOLED = {"mc", "sat", "params"}
POOL_SEED = 0


def _relabel(op: dict, rng: random.Random) -> dict:
    """Rename every variable and shuffle the team's row lines.

    The renaming keeps the sort order of the names, so every engine
    meets the same problem in the same order: new text, same cost.
    """
    text, team = op["formula"], op.get("team")
    if team:
        header, *rows = team.splitlines()
        old = sorted(header.split())
    else:
        old = sorted(set(_IDENT.findall(text)) - _KEYWORDS)
    new = set()
    while len(new) < len(old):
        new.add("".join(rng.choice("abcdefghjkmnpqrsuvwyz") for _ in range(5)))
    mapping = dict(zip(old, sorted(new)))
    rename = lambda m: mapping.get(m.group(), m.group())  # noqa: E731
    op = dict(op, formula=_IDENT.sub(rename, text))
    if team:
        rng.shuffle(rows)
        op["team"] = "\n".join([_IDENT.sub(rename, header)] + rows) + "\n"
    return op


def generate(workload: str, seed: int) -> list[dict]:
    """One pass of ``workload``; op ids are positions in the list."""
    pooled = workload in POOLED
    rng = random.Random(f"{workload}:{POOL_SEED if pooled else seed}")
    ops = _GENERATORS[workload](rng)
    if pooled:
        rng = random.Random(f"{workload}:{seed}")
        ops = [_relabel(op, rng) for op in ops]
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def write_files(op: dict, directory: Path) -> None:
    for name, text in op.get("files", {}).items():
        (directory / name).write_text(text, encoding="utf-8")

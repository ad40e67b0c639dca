"""Acceptance suite: ten oracle/property criteria with stated tolerances.

Each test prints one PASS/FAIL line on the real terminal (bypassing
capture) so the criterion outcomes are visible in any pytest run.
"""

import itertools
import random
import time

import pytest

from teamlog import (
    And,
    Dep,
    Inc,
    LogicKind,
    Not,
    Or,
    Team,
    VarRef,
    evaluate,
    mc_bottom_up,
    parse_formula,
    variables,
)
from teamlog.formulas import atoms, formula_size, split_count
from teamlog.reductions import (
    RandomFormulaConfig,
    SetSplittingInstance,
    random_formula,
    setsplit_brute,
    setsplit_to_pinc_mc,
)
from teamlog.sat import (
    SatStatus,
    sat_brute,
    sat_fixpoint,
    sat_singleton,
    sat_split_free,
)
from teamlog.semantics import SemanticsMode
from teamlog.structure import (
    build_gaifman,
    parameters,
    treewidth_exact,
    treewidth_upper,
    validate_decomposition,
)

from conftest import EXAMPLE_FORMULA_TEXT, all_teams, random_team, subteams

STRICT = SemanticsMode.STRICT
LAX = SemanticsMode.LAX
MODES = (STRICT, LAX)
SAT = SatStatus.SATISFIABLE


def report(capsys, num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def formula_domain(f, fallback=("x1",)):
    vs = variables(f)
    return vs if vs else tuple(fallback)


def verified(result, f, mode):
    return (
        result.witness is not None
        and len(result.witness) > 0
        and evaluate(result.witness, f, mode, cap=max(16, len(result.witness)))
    )


def test_criterion_01_mc_oracle_equivalence(capsys):
    """mc_bottom_up ≡ evaluate: ≥200 random formulas per logic (≤4 vars,
    ≤9 nodes) × ≥8 random teams (|T| ≤ 4) plus exhaustive 2-variable
    teams, both modes, 100% agreement, < 60 s."""
    start = time.perf_counter()
    rng = random.Random(101)
    checks = mismatches = 0
    for logic in LogicKind:
        for seed in range(200):
            f = random_formula(RandomFormulaConfig(
                logic=logic, max_vars=4, max_nodes=9, seed=seed,
            ))
            domain = formula_domain(f)
            for _ in range(8):
                t = random_team(rng, domain, max_rows=4)
                for mode in MODES:
                    if evaluate(t, f, mode) != mc_bottom_up(t, f, mode):
                        mismatches += 1
                    checks += 1
        # exhaustive over all 16 teams on two variables
        for seed in range(10):
            f = random_formula(RandomFormulaConfig(
                logic=logic, max_vars=2, max_nodes=9, seed=1000 + seed,
            ))
            domain = ("x1", "x2")
            for t in all_teams(domain):
                for mode in MODES:
                    if evaluate(t, f, mode) != mc_bottom_up(t, f, mode):
                        mismatches += 1
                    checks += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60
    report(capsys, 1, ok,
           f"model-check engines agree on {checks} instances "
           f"({mismatches} mismatches, {elapsed:.1f}s / 60s)")


def test_criterion_02_split_free_solver(capsys):
    """sat_split_free ≡ sat_brute on ≥500 random split-free PINC
    formulas over ≤4 variables, 100%, < 60 s; witnesses verify."""
    start = time.perf_counter()
    mismatches = unverified = 0
    total = 500
    for seed in range(total):
        f = random_formula(RandomFormulaConfig(
            logic=LogicKind.PINC, max_vars=4, max_nodes=9, seed=seed,
            max_splits=0,
        ))
        expected = sat_brute(f, STRICT)
        got = sat_split_free(f)
        if got.status is not expected.status:
            mismatches += 1
        elif got.status is SAT and not verified(got, f, STRICT):
            unverified += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and unverified == 0 and elapsed < 60
    report(capsys, 2, ok,
           f"split-free solver matches oracle on {total} formulas "
           f"({mismatches} mismatches, {unverified} bad witnesses, "
           f"{elapsed:.1f}s / 60s)")


def test_criterion_03_fixpoint_solver(capsys):
    """sat_fixpoint ≡ sat_brute on ≥200 random PINC formulas (≤3 vars,
    ≤2 splits), both modes, 100%; witnesses verify; every inclusion
    repair obeys |T| ≤ 2|S|."""
    start = time.perf_counter()
    mismatches = unverified = repair_violations = repairs = 0
    total = 200
    for seed in range(total):
        f = random_formula(RandomFormulaConfig(
            logic=LogicKind.PINC, max_vars=3, max_nodes=9, seed=seed,
            max_splits=2,
        ))
        for mode in MODES:
            expected = sat_brute(f, mode)
            log = []
            got = sat_fixpoint(f, mode, repair_log=log)
            repairs += len(log)
            repair_violations += sum(
                1 for before, after in log if after > 2 * before
            )
            if got.status is not expected.status:
                mismatches += 1
            elif got.status is SAT and not verified(got, f, mode):
                unverified += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and unverified == 0 and repair_violations == 0
    report(capsys, 3, ok,
           f"fixpoint solver matches oracle on {total} formulas x 2 modes "
           f"({mismatches} mismatches, {unverified} bad witnesses, "
           f"{repair_violations}/{repairs} repairs over the 2x size bound, "
           f"{elapsed:.1f}s)")


def test_criterion_04_singleton_solver(capsys):
    """sat_singleton ≡ sat_brute on ≥200 random PDL and ≥200 random
    PIND formulas over ≤3 variables, 100%, both oracle modes."""
    start = time.perf_counter()
    mismatches = checks = 0
    for logic in (LogicKind.PDL, LogicKind.PIND):
        for seed in range(200):
            f = random_formula(RandomFormulaConfig(
                logic=logic, max_vars=3, max_nodes=9, seed=seed,
            ))
            got = sat_singleton(f)
            for mode in MODES:
                if got.status is not sat_brute(f, mode).status:
                    mismatches += 1
                checks += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0
    report(capsys, 4, ok,
           f"singleton solver matches oracle on {checks} checks "
           f"({mismatches} mismatches, {elapsed:.1f}s)")


def _small_instances_up_to_iso():
    """All set-splitting instances with ≤4 elements and ≤3 subsets,
    deduplicated by an isomorphism-invariant signature."""
    seen = set()
    out = []
    for k in range(1, 5):
        elems = tuple(f"a{i + 1}" for i in range(k))
        subsets = [frozenset(c) for r in range(k + 1)
                   for c in itertools.combinations(elems, r)]
        for fam_size in range(4):
            for fam in itertools.combinations(subsets, fam_size):
                profile = tuple(sorted(
                    tuple(sorted(len(b) for b in fam if e in b))
                    for e in elems
                ))
                sig = (k, tuple(sorted(len(b) for b in fam)), profile)
                if sig in seen:
                    continue
                seen.add(sig)
                out.append(SetSplittingInstance(elems, fam))
    return out


def test_criterion_05_reduction_equivalence(capsys):
    """Set splitting ⟺ strict model checking of the reduced instance:
    exhaustive |S| ≤ 4, |F| ≤ 3 up to isomorphism plus ≥200 random
    instances, 100%; every reduced formula has exactly 1 split and
    arity-1 inclusion atoms."""
    start = time.perf_counter()
    instances = _small_instances_up_to_iso()
    rng = random.Random(55)
    for _ in range(200):
        k = rng.randint(1, 4)
        elems = tuple(f"a{i + 1}" for i in range(k))
        fam = tuple(
            frozenset(e for e in elems if rng.random() < 0.5)
            for _ in range(rng.randint(0, 3))
        )
        instances.append(SetSplittingInstance(elems, fam))
    mismatches = shape_violations = 0
    for inst in instances:
        team, phi = setsplit_to_pinc_mc(inst)
        if split_count(phi) != 1 or any(
            not isinstance(a, Inc) or len(a.xs) != 1 for a in atoms(phi)
        ):
            shape_violations += 1
        splittable = setsplit_brute(inst) is not None
        if splittable != mc_bottom_up(team, phi, STRICT):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and shape_violations == 0
    report(capsys, 5, ok,
           f"reduction equivalence holds on {len(instances)} instances "
           f"({mismatches} mismatches, {shape_violations} shape violations, "
           f"{elapsed:.1f}s)")


def test_criterion_06_treewidth_facts(capsys):
    """Exact treewidth of the example formula's graph is 2; exact
    treewidth of each reduced formula's graph is ≤ 4 for ≤3 subsets;
    every produced decomposition validates."""
    start = time.perf_counter()
    issues = []
    g = build_gaifman(parse_formula(EXAMPLE_FORMULA_TEXT))
    w, d = treewidth_exact(g)
    if w != 2:
        issues.append(f"example graph width {w} != 2")
    if not validate_decomposition(g, d).valid:
        issues.append("example decomposition invalid")
    widths = []
    for n in (0, 1, 2, 3):
        elems = ("a1", "a2", "a3")
        fam = tuple(frozenset(elems[: j + 1]) for j in range(n))
        _, phi = setsplit_to_pinc_mc(SetSplittingInstance(elems, fam))
        gr = build_gaifman(phi)
        wr, dr = treewidth_exact(gr, max_vertices=24)
        widths.append(wr)
        if wr > 4:
            issues.append(f"reduced formula ({n} subsets) width {wr} > 4")
        if not validate_decomposition(gr, dr).valid:
            issues.append(f"reduced decomposition ({n} subsets) invalid")
        for method in ("min_fill", "min_degree"):
            wu, du = treewidth_upper(gr, method=method)
            if wu < wr or not validate_decomposition(gr, du).valid:
                issues.append(f"heuristic {method} bad on {n} subsets")
    elapsed = time.perf_counter() - start
    report(capsys, 6, not issues,
           f"example graph width 2, reduced graphs widths {widths} ≤ 4, "
           f"all decompositions validate ({elapsed:.1f}s)"
           + (f"; issues: {issues}" if issues else ""))


def test_criterion_07_parameter_inequalities(capsys):
    """On 1000 generated (team, formula) instances: teamsize ≤
    2^variables, teamsize ≤ 2^formula_size, formula_size ≤ 2^(2·depth);
    zero violations."""
    start = time.perf_counter()
    rng = random.Random(77)
    violations = instances = 0
    seed = 0
    while instances < 1000:
        logic = rng.choice(list(LogicKind))
        f = random_formula(RandomFormulaConfig(
            logic=logic, max_vars=rng.randint(1, 4),
            max_nodes=rng.randint(1, 12), seed=seed,
        ))
        seed += 1
        domain = variables(f)
        # Teams range over the formula's variables; the node count must
        # dominate the variable count (bare wide atoms are the single
        # degenerate shape where a size-1 formula mentions several
        # variables, and no size inequality can hold there).
        if not domain or len(domain) > formula_size(f):
            continue
        t = random_team(rng, domain, max_rows=1 << len(domain))
        r = parameters(f, t)
        if not (r.teamsize <= 2 ** r.num_variables
                and r.teamsize <= 2 ** r.formula_size
                and r.formula_size <= 2 ** (2 * r.formula_depth)):
            violations += 1
        instances += 1
    elapsed = time.perf_counter() - start
    report(capsys, 7, violations == 0,
           f"size/depth/teamsize inequalities hold on {instances} instances "
           f"with teams over VAR and node count ≥ variable count "
           f"({violations} violations, {elapsed:.1f}s)")


def test_criterion_08_team_graph_lower_bound(capsys):
    """On 50 instances whose team-augmented graph has ≤ 12 vertices,
    exact treewidth ≥ min(|T|, |VAR(φ)|); zero violations."""
    start = time.perf_counter()
    rng = random.Random(88)
    violations = collected = 0
    seed = 0
    while collected < 50:
        logic = rng.choice(list(LogicKind))
        f = random_formula(RandomFormulaConfig(
            logic=logic, max_vars=3, max_nodes=7, seed=3000 + seed,
        ))
        seed += 1
        vs = variables(f)
        if not vs:
            continue
        t = random_team(rng, vs, max_rows=3, min_rows=1)
        g = build_gaifman(f, t)
        if len(g) > 12:
            continue
        w, d = treewidth_exact(g)
        if not validate_decomposition(g, d).valid:
            violations += 1
        if w < min(len(t), len(vs)):
            violations += 1
        collected += 1
    elapsed = time.perf_counter() - start
    report(capsys, 8, violations == 0,
           f"treewidth ≥ min(teamsize, variables) on {collected} "
           f"team-augmented graphs ({violations} violations, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 9: the seven semantic laws


def _law_cases(logics, rng, min_cases=200, max_rows=4):
    """Yield (formula, team) pairs: exhaustive over 2 variables first,
    then random over 3-4 variables until at least ``min_cases``."""
    count = 0
    for logic in logics:
        for seed in range(6):
            f = random_formula(RandomFormulaConfig(
                logic=logic, max_vars=2, max_nodes=7, seed=4000 + seed,
            ))
            for t in all_teams(("x1", "x2")):
                yield f, t
                count += 1
    seed = 0
    while count < min_cases:
        logic = logics[seed % len(logics)]
        f = random_formula(RandomFormulaConfig(
            logic=logic, max_vars=rng.randint(3, 4), max_nodes=9,
            seed=5000 + seed,
        ))
        seed += 1
        domain = formula_domain(f)
        yield f, random_team(rng, domain, max_rows=max_rows)
        count += 1


def test_criterion_09_semantic_laws(capsys):
    """Seven closure/agreement laws, each on ≥200 exhaustive-plus-random
    cases, zero violations."""
    start = time.perf_counter()
    rng = random.Random(9)
    failures = {}

    def run_law(name, logics, check, max_rows=4):
        bad = total = 0
        for f, t in _law_cases(logics, rng, max_rows=max_rows):
            if not check(f, t):
                bad += 1
            total += 1
        if bad:
            failures[name] = bad
        return total

    def flat(f, t):
        return all(
            evaluate(t, f, mode) == all(
                evaluate(Team(t.domain, (row,)), f, mode) for row in t.rows
            )
            for mode in MODES
        )

    def downward(f, t):
        for mode in MODES:
            if evaluate(t, f, mode) and not all(
                evaluate(p, f, mode) for p in subteams(t)
            ):
                return False
        return True

    def two_coherent(f, t):
        if split_count(f) != 0:
            return True
        for mode in MODES:
            whole = evaluate(t, f, mode)
            pairs = all(
                evaluate(p, f, mode) for p in subteams(t) if len(p) <= 2
            )
            if whole != pairs:
                return False
        return True

    def strict_implies_lax(f, t):
        return not evaluate(t, f, STRICT) or evaluate(t, f, LAX)

    def strict_equals_lax(f, t):
        return evaluate(t, f, STRICT) == evaluate(t, f, LAX)

    def empty_universal(f, t):
        empty = Team(t.domain, ())
        return all(evaluate(empty, f, mode) for mode in MODES)

    n_flat = run_law("PL flatness", (LogicKind.PL,), flat)
    n_down = run_law("PDL downward closure", (LogicKind.PL, LogicKind.PDL),
                     downward)
    n_coh = run_law("split-free PDL 2-coherence", (LogicKind.PDL,),
                    two_coherent)
    n_sil = run_law("strict implies lax",
                    (LogicKind.PL, LogicKind.PDL, LogicKind.PINC,
                     LogicKind.PIND), strict_implies_lax)
    n_sel = run_law("strict equals lax on PDL",
                    (LogicKind.PL, LogicKind.PDL), strict_equals_lax)
    n_emp = run_law("empty team universality", tuple(LogicKind),
                    empty_universal)

    # lax union closure of PINC: collect satisfying teams, union pairwise
    union_cases = union_bad = 0
    for seed in range(40):
        f = random_formula(RandomFormulaConfig(
            logic=LogicKind.PINC, max_vars=2 if seed < 20 else 3,
            max_nodes=8, seed=6000 + seed,
        ))
        domain = formula_domain(f)
        pool = (
            list(all_teams(domain)) if len(domain) <= 2
            else [random_team(rng, domain, max_rows=4) for _ in range(12)]
        )
        sat_teams = [t for t in pool if evaluate(t, f, LAX)]
        for a, b in itertools.combinations(sat_teams[:8], 2):
            if not evaluate(Team(a.domain, set(a.rows) | set(b.rows)), f,
                            LAX, cap=16):
                union_bad += 1
            union_cases += 1
    if union_bad:
        failures["PINC lax union closure"] = union_bad

    elapsed = time.perf_counter() - start
    counts = (f"flat {n_flat}, downward {n_down}, 2-coherent {n_coh}, "
              f"strict⇒lax {n_sil}, strict=lax(PDL) {n_sel}, "
              f"empty {n_emp}, union {union_cases}")
    report(capsys, 9, not failures,
           f"seven semantic laws hold ({counts}; {elapsed:.1f}s)"
           + (f"; failures: {failures}" if failures else ""))


def _chain_formula(n_nodes, rng):
    """Left-deep connective chain over three fixed variables."""
    names = ("x1", "x2", "x3")
    f = VarRef(rng.choice(names))
    while formula_size(f) < n_nodes - 2:
        pick = rng.random()
        if pick < 0.4:
            leaf = VarRef(rng.choice(names))
        elif pick < 0.6:
            leaf = Not(VarRef(rng.choice(names)))
        else:
            leaf = Dep((rng.choice(names),), (rng.choice(names),))
        f = And(f, leaf) if rng.random() < 0.5 else Or(f, leaf)
    return f


def test_criterion_10_fpt_scaling(capsys):
    """With |T| = 3 fixed, bottom-up model checking time on formulas of
    250/500/1000/2000 nodes grows ≤ ~4x per doubling (tolerance 4.5 on
    best-of-3 timings); total < 30 s."""
    start = time.perf_counter()
    team = Team(("x1", "x2", "x3"), ((0, 0, 0), (0, 1, 1), (1, 0, 1)))
    rng = random.Random(10)
    sizes = (250, 500, 1000, 2000)
    timings = []
    for n in sizes:
        f = _chain_formula(n, rng)
        best = min(
            _timed(lambda: mc_bottom_up(team, f, STRICT)) for _ in range(3)
        )
        timings.append(best)
    ratios = [b / a for a, b in zip(timings, timings[1:])]
    elapsed = time.perf_counter() - start
    ok = all(r <= 4.5 for r in ratios) and elapsed < 30
    pretty = ", ".join(
        f"{n}:{t * 1000:.1f}ms" for n, t in zip(sizes, timings)
    )
    report(capsys, 10, ok,
           f"model-check scaling at teamsize 3 ({pretty}; doubling ratios "
           + ", ".join(f"{r:.2f}" for r in ratios)
           + f" ≤ 4.5; {elapsed:.1f}s / 30s)")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0

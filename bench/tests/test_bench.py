"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import cores  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from teamlog import formulas, sat, semantics, teams  # noqa: E402


def _first(workload, family, seed=3):
    return next(op for op in gen.generate(workload, seed) if op["family"] == family)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert gen.generate(workload, 5) == gen.generate(workload, 5)
    assert gen.generate(workload, 5) != gen.generate(workload, 6)
    assert gen.sweep() == gen.sweep()


def test_every_family_has_a_reason():
    for workload in gen.WORKLOADS:
        for op in gen.generate(workload, 1):
            assert op["family"] in gen.FAMILY_WHY


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


# ---------------------------------------------------------------------------
# A planted wrong verdict is caught

def test_wrong_mc_verdict_is_caught():
    w = workloads.Mc()
    op = _first("mc", "mc.random")
    prep = w.prepare(op)
    answer = w.run(op, prep)
    w.check(op, prep, answer)
    with pytest.raises(workloads.Wrong):
        w.check(op, prep, not answer)


def test_wrong_setsplit_verdict_is_caught():
    w = workloads.Mc()
    op = _first("mc", "mc.setsplit")
    prep = w.prepare(op)
    with pytest.raises(workloads.Wrong):
        w.check(op, prep, not w.run(op, prep))


@pytest.mark.parametrize("text, mode", [
    ("=(x1; x2) & (x1 | !x2)", "strict"),       # PDL: classical oracle
    ("inc(x1; x2) & (x1 | !x2)", "lax"),        # PINC: lax-maximum oracle
])
def test_planted_unsat_on_satisfiable_formula_is_caught(text, mode):
    w = workloads.Sat()
    op = {"id": 0, "family": "sat.brute", "engine": "brute", "formula": text,
          "mode": mode}
    with pytest.raises(workloads.Wrong):
        w.check(op, w.prepare(op), sat.SatResult(sat.SatStatus.UNSATISFIABLE))


def test_planted_bad_witness_is_caught():
    w = workloads.Sat()
    op = {"id": 0, "family": "sat.brute", "engine": "brute",
          "formula": "x1 & !x2", "mode": "strict"}
    bad = teams.Team(("x1", "x2"), ((1, 1),))
    with pytest.raises(workloads.Wrong):
        w.check(op, w.prepare(op), sat.SatResult(sat.SatStatus.SATISFIABLE, bad))


def test_wrong_parameter_report_is_caught():
    w = workloads.Params()
    op = {"id": 0, "family": "params.chain", "formula": gen._dep_chain(
        __import__("random").Random(0), 10)[0], "team": None, "atoms": 10}
    report, degree = w.run(op, None)
    w.check(op, None, (report, degree))
    bad = type(report)(**dict(report.__dict__, formula_size=report.formula_size + 1))
    with pytest.raises(workloads.Wrong):
        w.check(op, None, (bad, degree))


# ---------------------------------------------------------------------------
# Failed ops count as failed, not wrong

def test_deep_params_op_fails_without_aborting():
    w = workloads.Params()
    op = _first("params", "params.deep")
    answer, _, failure = worker._run_op(w, op, None)
    assert answer is None and failure == "RecursionError"


def test_cli_defects_count_as_failed(tmp_path):
    ops = [op for op in gen.generate("cli", 1) if op["family"] == "cli.defect"]
    w = workloads.Cli(ROOT, tmp_path)
    for op in ops:
        cwd = w.prepare(op)
        cwd.mkdir()
        gen.write_files(op, cwd)
        answer, _, failure = worker._run_op(w, op, cwd)
        assert answer is None and failure is not None


@pytest.mark.parametrize("per_op", [False, True])
def test_failed_ops_rank_slowest_and_lower_the_share(per_op):
    samples = [(0, 0.001, None), (1, 0.002, None), (2, 0.0001, "RecursionError")]
    m = run.end_to_end({"samples": samples, "pass_walls": [1.0],
                        "peak_rss_mb": 1.0}, [0.1], per_op)
    assert m["verdict_share"] == pytest.approx(2 / 3)
    assert m["verdict_ms_p90"] == pytest.approx(0.1)
    assert m["verdict_ms_p50"] == pytest.approx(2.0)


def test_an_op_counts_its_fastest_pass():
    samples = [(0, 0.004, None), (1, 0.009, None), (0, 0.002, None), (1, 0.001, None)]
    m = run.end_to_end({"samples": samples, "pass_walls": [1.0, 1.0],
                        "peak_rss_mb": 1.0}, [0.1], per_op=True)
    assert m["verdict_ms_p50"] == pytest.approx(1.0)
    assert m["verdict_ms_p90"] == pytest.approx(2.0)


def test_cpu_choice_stays_within_the_allowed_cpus():
    import os
    allowed = os.sched_getaffinity(0)
    try:
        cpu = cores.FastestCpu()
        cpu()
        assert os.sched_getaffinity(0) <= allowed
        assert cpu.current is None or {cpu.current} == os.sched_getaffinity(0)
    finally:
        os.sched_setaffinity(0, allowed)


def test_budget_exhaustion_is_a_failure():
    w = workloads.Sat()
    op = {"id": 0, "family": "sat.fixpoint", "engine": "fixpoint", "budget": 1,
          "formula": "(x1 | inc(x1; x2)) & (!x1 | inc(x2; x1))", "mode": "lax"}
    answer, _, failure = worker._run_op(w, op, w.prepare(op))
    assert answer is None and failure == "resource exhausted"


# ---------------------------------------------------------------------------
# Oracles agree with the engines on small instances

def test_oracles_agree_with_brute_force():
    import random
    rng = random.Random(0)
    for i in range(40):
        logic = (formulas.LogicKind.PDL, formulas.LogicKind.PINC)[i % 2]
        f = formulas.parse_formula(gen._formula(rng, logic, 3, 8, i % 3, (1, 5)))
        names = formulas.variables(f)
        truth = sat.sat_brute(f, semantics.SemanticsMode.LAX, max_vars=3)
        sat_ = truth.status is sat.SatStatus.SATISFIABLE
        if logic is formulas.LogicKind.PINC:
            assert oracles.lax_sat(f, names) == sat_
        else:
            assert oracles.classical_sat(f, names) == sat_


def test_node_count_matches_formula_size():
    for text in ("(x3 | !x1) & (=(x3; x4) | (x1 & x2))", "ind(x1; x2 | x3) & T",
                 "inc(a, b; c, d) | (B & !z)"):
        assert oracles.count_nodes(text) == formulas.formula_size(
            formulas.parse_formula(text))


# ---------------------------------------------------------------------------
# Tracing

def _traced_counts(ops, w):
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op in ops:
            tracer.op = op["id"]
            worker._run_op(w, op, w.prepare(op))
            tracer.end_op()
    finally:
        tracer.uninstall()
    names = list(tracer.arrays["name"])
    return dict(tracer.counts), {n: names.count(i) for i, n in enumerate(spans.NAMES)}


def test_traced_counts_repeat_exactly():
    for workload in ("mc", "sat"):
        ops = gen.generate(workload, 2)[:12]
        w = workloads.make(workload, ROOT, ROOT)
        first = _traced_counts(ops, w)
        assert first == _traced_counts(ops, w)
        assert sum(first[1].values()) > 0


def test_tracer_restores_the_program():
    import teamlog.modelcheck
    import teamlog.semantics
    before = teamlog.modelcheck.eval_atom
    tracer = spans.Tracer()
    tracer.install()
    assert teamlog.modelcheck.eval_atom is not before
    tracer.uninstall()
    assert teamlog.modelcheck.eval_atom is before is teamlog.semantics.eval_atom


def test_self_time_subtracts_children():
    s = {"start": [0.0, 1.0, 2.0], "end": [10.0, 3.0, 6.0], "parent": [-1, 0, 0]}
    assert spans.self_times(s) == [4.0, 2.0, 4.0]


def test_two_traced_runs_give_identical_counts():
    def counts(seed):
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sat",
                               "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                              cwd=ROOT, capture_output=True, text=True, check=True)
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}

    # Pooled instances differ between seeds only in their names.
    assert counts(4) == counts(4) == counts(5)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode != 0 and proc.stdout == ""

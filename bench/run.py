"""teamlog benchmark: one workload, one seed, one JSON result.

    python3 bench/run.py --workload mc --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload's ops are generated from the
seed, timed in a fresh worker process for about ``--seconds`` seconds
(whole passes over the ops, at least ``MIN_SAMPLES`` ops) and every
answer is checked against an independent oracle.  A wrong answer aborts
with exit code 1 and no result.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it describes the run (machine, seeds, sample counts, families).
See ``bench/README.md`` for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
MIN_SAMPLES = 100  # timed samples; in-process workloads also have >= 100 ops
MIN_PASSES = 2  # timed passes of an in-process workload
SETUP_PROBES = 5  # fresh processes timing set-up before, and again after, the worker
WORKER_TIMEOUT_S = 170
SUBMODULES = ("errors", "formulas", "teams", "semantics", "modelcheck",
              "reductions", "sat", "structure")
SAT_ENGINES = ("brute", "singleton", "fixpoint", "split_free")

END_TO_END = (
    ("verdict_ms_p50", "ms"), ("verdict_ms_p90", "ms"),
    ("verdicts_per_s", "1/s"), ("verdict_share", "share"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run emits, with its unit."""
    import gen
    out = [("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms")]
    out += [(f"cli.import.{m}_ms", "ms") for m in SUBMODULES]
    out += [("cli.main_ms", "ms"), ("cli.reported_timing_ms", "ms"),
            ("formulas.parse_formula.calls", "count"),
            ("formulas.parse_formula.self_ms", "ms"),
            ("formulas.render_formula.self_ms", "ms"),
            ("teams.parse_team.self_ms", "ms"), ("teams.Team.constructed", "count"),
            ("semantics.eval_atom.calls", "count"), ("semantics.eval_atom.self_ms", "ms"),
            ("semantics.evaluate.calls", "count"), ("semantics.evaluate.self_ms", "ms"),
            ("semantics.memo_entries", "count"),
            ("modelcheck.build_sat_table.self_ms", "ms"),
            ("modelcheck.table_masks", "count")]
    out += [(f"modelcheck.build_sat_table.T{k}.ms_p50", "ms") for k in gen.MC_TEAM_SIZES]
    for e in SAT_ENGINES:
        out += [(f"sat.{e}.calls", "count"), (f"sat.{e}.self_ms", "ms")]
    out += [("sat.fixpoint.repairs", "count"), ("sat.resource_exhausted", "count"),
            ("sat.witness_rows", "count"),
            ("structure.build_gaifman.self_ms", "ms"),
            ("structure.gaifman_vertices", "count"), ("structure.gaifman_edges", "count"),
            ("structure.treewidth_upper.self_ms", "ms"),
            ("structure.treewidth_exact.self_ms", "ms"),
            ("structure.treewidth_exact.capped", "count"),
            ("structure.parameters.self_ms", "ms")]
    out += [(f"structure.parameters.A{n}.ms_p50", "ms") for n in gen.PARAMS_ATOM_BUCKETS]
    out += [("trace.overhead_ms", "ms")]
    return out


# ---------------------------------------------------------------------------
# End-to-end metrics

def _rank(values: list, q: float):
    """Nearest-rank percentile of an already sorted list."""
    return values[max(0, -(-len(values) * q // 100) - 1)]


def end_to_end(worker: dict, setup: list[float], per_op: bool) -> dict:
    """The end-to-end metrics of an untraced run.

    With ``per_op`` an op's time is the fastest of its timed passes (as in
    timeit: interference from a shared machine only adds time) and the
    percentiles run over ops; otherwise over all samples.  Failed ops rank
    as slowest.
    """
    samples = worker["samples"]
    answered = sum(1 for _, _, failure in samples if failure is None)
    if per_op:
        best: dict[int, tuple] = {}
        for op_id, dt, failure in samples:
            key = (failure is not None, dt)
            best[op_id] = min(best.get(op_id, key), key)
        ranked = sorted(best.values())
    else:
        ranked = sorted((failure is not None, dt) for _, dt, failure in samples)
    return {
        "verdict_ms_p50": _rank(ranked, 50)[1] * 1000,
        "verdict_ms_p90": _rank(ranked, 90)[1] * 1000,
        "verdicts_per_s": answered / sum(worker["pass_walls"]),
        "verdict_share": answered / len(samples),
        "peak_rss_mb": worker["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced run

def per_layer(trace: dict) -> tuple[dict, dict]:
    """(metrics, source of each) from the spans and counts of a traced run.

    A function the workload's ops reach is measured on them: calls and
    counts on the first traced pass, self time as the median over traced
    passes of its per-pass total.  Otherwise it is measured on the layer
    sweep that ends every traced run.
    """
    import gen
    import spans

    s = spans.read(Path(trace["spans"]))
    own = spans.self_times(s)
    index = {n: i for i, n in enumerate(s["names"])}
    first = 1
    traced_passes = range(first, first + len(trace["traced_walls"]))
    by_name: dict[int, list[int]] = {}
    for i, name in enumerate(s["name"]):
        by_name.setdefault(name, []).append(i)

    def spans_of(name, where):
        return [i for i in by_name.get(index[name], []) if where(s["pass"][i])]

    def from_ops(name):
        return bool(spans_of(name, lambda p: p == first))

    metrics, source = {}, {}

    def put(key, value, src):
        metrics[key] = value
        source[key] = src

    for name in spans.NAMES:
        if from_ops(name):
            per_pass = [sum(own[i] for i in spans_of(name, lambda q, p=p: q == p))
                        for p in traced_passes]
            calls = len(spans_of(name, lambda p: p == first))
            ms, src = statistics.median(per_pass) * 1000, "ops"
        else:
            sweep = spans_of(name, lambda p: p < 0)
            calls, ms, src = len(sweep), sum(own[i] for i in sweep) * 1000, "sweep"
        put(f"{name}.calls", calls, src)
        put(f"{name}.self_ms", ms, src)

    counts, sweep_counts = trace["counts"][0], trace["sweep_counts"]
    owners = {
        "teams.Team.constructed": spans.NAMES,
        "semantics.memo_entries": ("semantics.evaluate", "sat.brute"),
        "modelcheck.table_masks": ("modelcheck.build_sat_table",),
        "sat.fixpoint.repairs": ("sat.fixpoint",),
        "sat.resource_exhausted": tuple(f"sat.{e}" for e in SAT_ENGINES),
        "sat.witness_rows": tuple(f"sat.{e}" for e in SAT_ENGINES),
        "structure.gaifman_vertices": ("structure.build_gaifman",),
        "structure.gaifman_edges": ("structure.build_gaifman",),
        "structure.treewidth_exact.capped": ("structure.treewidth_exact",),
    }
    for key, names in owners.items():
        counter = "structure.treewidth_exact.raised" if key.endswith("capped") else key
        if any(source[f"{n}.calls"] == "ops" for n in names):
            put(key, counts.get(counter, 0), "ops")
        else:
            put(key, sweep_counts.get(counter, 0), "sweep")

    def durations(name, where, pick):
        return [(s["end"][i] - s["start"][i]) * 1000
                for i in spans_of(name, where) if pick(i)]

    def curve(key, name, points, attr_of):
        for point in points:
            for src, where in (("ops", lambda p: p >= first), ("sweep", lambda p: p < 0)):
                got = durations(name, where,
                                lambda i: attr_of(src, i) == point)
                if got:
                    put(key.format(point), statistics.median(got), src)
                    break
            else:
                raise RuntimeError(f"no span for {key.format(point)}")

    curve("modelcheck.build_sat_table.T{}.ms_p50", "modelcheck.build_sat_table",
          gen.MC_TEAM_SIZES, lambda src, i: s["attr"][i])
    atoms = {"ops": {int(k): v for k, v in trace["atoms"].items()},
             "sweep": {int(k): v for k, v in trace["sweep_atoms"].items()}}
    curve("structure.parameters.A{}.ms_p50", "structure.parameters",
          gen.PARAMS_ATOM_BUCKETS, lambda src, i: atoms[src].get(s["op"][i], -1))

    cli_src = "ops" if trace["cli"]["ops"]["imports"] else "sweep"
    cli = trace["cli"][cli_src]
    put("cli.interpreter_ms", statistics.median(
        cli["interpreter_ms"] or trace["cli"]["sweep"]["interpreter_ms"]), cli_src)
    put("cli.import_ms", statistics.median(cli["imports"]["teamlog"]), cli_src)
    for m in SUBMODULES:
        put(f"cli.import.{m}_ms", statistics.median(cli["imports"][f"teamlog.{m}"]), cli_src)
    main_src = source["cli.main.calls"]
    where = (lambda p: p >= first) if main_src == "ops" else (lambda p: p < 0)
    put("cli.main_ms", statistics.median(durations("cli.main", where, lambda i: True)),
        main_src)
    put("cli.reported_timing_ms", statistics.median(
        trace["cli"][main_src]["reported_ms"]), main_src)
    put("trace.overhead_ms",
        (statistics.median(trace["traced_walls"]) - trace["untraced_wall"]) * 1000, "ops")
    return metrics, source


# ---------------------------------------------------------------------------

def _machine(root: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit}


def _worker(cfg: dict, workdir: Path, name: str) -> dict:
    cfg = dict(cfg, out=str(workdir / f"{name}.json"))
    path = workdir / f"{name}.config.json"
    path.write_text(json.dumps(cfg))
    env = dict(os.environ)
    src = cfg["root"] + "/src"
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(path)],
                          env=env, timeout=WORKER_TIMEOUT_S, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {name} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(Path(cfg["out"]).read_text())


def run(workload: str, seed: int, seconds: int, trace: bool, root: Path) -> int:
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(BENCH))
    import gen

    base = root / ".bench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=base))
    try:
        ops = gen.generate(workload, seed)
        (workdir / "ops.json").write_text(json.dumps(ops))
        cfg = {"root": str(root), "workdir": str(workdir), "workload": workload,
               "ops": str(workdir / "ops.json"), "seconds": seconds, "seed": seed,
               "trace": trace, "min_samples": MIN_SAMPLES,
               "min_passes": 1 if workload == "cli" else MIN_PASSES}
        def probe_setup():
            if workload == "cli":
                return []
            return [_worker(dict(cfg, setup_only=True), workdir, f"setup{i}")["setup_s"][0]
                    for i in range(SETUP_PROBES)]

        setup = probe_setup()
        worker = _worker(cfg, workdir, "worker")
        if "wrong" in worker:
            print(f"wrong verdict: {worker['wrong']}", file=sys.stderr)
            return 1
        setup += worker["setup_s"] + probe_setup()
        samples = worker["samples"]
        failed = [s for s in samples if s[2] is not None]
        by_family: dict[str, int] = {}
        for op_id, _, failure in failed:
            key = f"{ops[op_id]['family']}: {failure}"
            by_family[key] = by_family.get(key, 0) + 1
        families = sorted({op["family"] for op in ops})
        detail = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            **_machine(root),
            "ops_per_pass": len(ops), "pass_walls_s": worker["pass_walls"],
            "samples": len(samples), "setup_samples": len(setup),
            "calibration_ms": worker["calibration_ms"],
            "cpu_moves": worker["cpu_moves"],
            "failed_ops": by_family, "verdicts": worker["verdicts"],
            "families": {f: gen.FAMILY_WHY[f] for f in families},
        }
        if trace:
            metrics, source = per_layer(worker["trace"])
            units = dict(per_layer_metrics())
            detail["sweep_metrics"] = sorted(k for k, v in source.items()
                                             if v == "sweep" and k in units)
            detail["traced_passes"] = len(worker["trace"]["traced_walls"])
            # The untraced pass alone holds the samples of a traced run.
            samples = samples[:len(ops)]
        else:
            metrics = end_to_end(worker, setup, per_op=workload != "cli")
            units = dict(END_TO_END)
        print(json.dumps(detail))
        result = {
            "correct": True,
            "attempted": len(samples),
            "failed": sum(1 for s in samples if s[2] is not None),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:  # another run still uses it
            pass


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("cli", "mc", "sat", "params"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "teamlog" / "__init__.py").is_file():
        print("error: run from the repository root; src/teamlog not found",
              file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())

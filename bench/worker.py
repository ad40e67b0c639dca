"""One workload in a fresh process: set-up, timed passes, answer checks.

Run by ``run.py`` as ``python bench/worker.py CONFIG.json``; writes its
findings to the JSON file named in the config.  With ``"setup_only"`` it
only times ``import teamlog`` plus one warm-up op and exits.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import cores
import workloads

SETUP_CLI_CALLS = 5
INTERPRETER_PROBES = 5


def _run_op(w, op, prep):
    """(answer, seconds, failure) for one op; failure is None on a verdict."""
    t = time.perf_counter()
    try:
        answer = w.run(op, prep)
        failure = None
    except workloads.Failed as exc:
        answer, failure = None, str(exc)
    except Exception as exc:  # a crash is a failed op, not an abort
        answer, failure = None, type(exc).__name__
    return answer, time.perf_counter() - t, failure


class Passes:
    """Closed loop over whole passes.  ``until`` ends at the pass boundary
    nearest to ``seconds`` of timed passes, once at least ``min_samples``
    ops and ``min_passes`` passes have run.  Answers of a ``keep`` pass are
    kept for the checks; every pass must give the same answers."""

    def __init__(self, w, ops, prepared, cpu):
        self.w, self.ops, self.prepared, self.cpu = w, ops, prepared, cpu
        self.samples: list[tuple[int, float, str | None]] = []
        self.walls: list[float] = []
        self.first: dict[int, object] = {}
        self.summaries: dict[int, object] = {}

    def one(self, tracer=None, cli_extra=None, keep=False) -> float:
        gc.collect()  # the previous pass's garbage, outside the timing
        start = time.perf_counter()
        for op in self.ops:
            self.cpu()
            if tracer is not None:
                tracer.op = op["id"]
            answer, dt, failure = _run_op(self.w, op, self.prepared[op["id"]])
            if tracer is not None:
                tracer.end_op()
            if cli_extra is not None:
                cli_extra(op)
            self.samples.append((op["id"], dt, failure))
            if failure is None:
                s = self.w.summary(answer)
                if self.summaries.setdefault(op["id"], s) != s:
                    raise workloads.Wrong(f"op {op['id']}: answer changed between passes")
                if keep:
                    self.first[op["id"]] = answer
        wall = time.perf_counter() - start
        self.walls.append(wall)
        return wall

    def until(self, seconds: float, min_samples: int, min_passes: int) -> None:
        while not (len(self.samples) >= min_samples and len(self.walls) >= min_passes
                   and sum(self.walls) + self.walls[-1] / 2 >= seconds):
            self.one()

    def check(self) -> dict[str, int]:
        """Check the first pass's answers, then let them go; tally verdicts."""
        tally: dict[str, int] = {}
        for op in self.ops:
            if op["id"] in self.first:
                self.w.check(op, self.prepared[op["id"]], self.first.pop(op["id"]))
                v = self.summaries[op["id"]]
                v = v[0] if isinstance(v, tuple) else v
                key = str(v) if isinstance(v, (bool, int, str)) else "report"
                tally[key] = tally.get(key, 0) + 1
        return tally


def _calibrate() -> float:
    """ms for a fixed pure-Python loop: how fast the machine ran just now."""
    t = time.perf_counter()
    seen: dict[int, int] = {}
    for i in range(300_000):
        seen[i & 1023] = seen.get(i & 1023, 0) + i
    return (time.perf_counter() - t) * 1000


# ---------------------------------------------------------------------------
# Traced extras: interpreter and import cost, in-process cli.main

def _importtime(stderr: str) -> dict[str, float]:
    """Cumulative import time (ms) of ``teamlog`` and its submodules."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name == "teamlog" or name.startswith("teamlog."):
            try:
                out[name] = int(parts[1]) / 1000.0
            except ValueError:
                continue
    return out


class CliProbe:
    """Interpreter start, import times and in-process ``cli.main`` calls."""

    def __init__(self, env):
        self.env = env
        self.interpreter_ms: list[float] = []
        self.imports: list[dict[str, float]] = []
        self.reported_ms: list[float] = []

    def interpreter(self, times: int) -> None:
        for _ in range(times):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=self.env,
                           capture_output=True, check=True)
            self.interpreter_ms.append((time.perf_counter() - t) * 1000)

    def imported(self, argv, cwd) -> None:
        proc = subprocess.run(workloads.cli_command(argv, importtime=True), cwd=cwd,
                              env=self.env, capture_output=True, text=True,
                              timeout=workloads.CLI_TIMEOUT_S)
        self.imports.append(_importtime(proc.stderr))

    def main(self, argv, cwd) -> None:
        import teamlog.cli
        out = io.StringIO()
        here = os.getcwd()
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                teamlog.cli.main(argv)
        except Exception:  # known defects crash inside main; the span is kept
            pass
        finally:
            os.chdir(here)
        lines = out.getvalue().strip().splitlines()
        try:
            self.reported_ms.append(float(json.loads(lines[-1])["timing_ms"]))
        except (IndexError, ValueError, KeyError, TypeError):
            pass

    def report(self) -> dict:
        names = sorted({n for d in self.imports for n in d})
        return {
            "interpreter_ms": self.interpreter_ms,
            "imports": {n: [d[n] for d in self.imports if n in d] for n in names},
            "reported_ms": self.reported_ms,
        }


def _sweep(tracer, probe, sweep_ops, workdir: Path) -> None:
    """Layer sweep: one in-process ``cli.main`` call per sweep op."""
    import gen
    tracer.pass_ = -1
    for op in sweep_ops:
        cwd = workdir / "sweep" / str(op["id"])
        cwd.mkdir(parents=True, exist_ok=True)
        gen.write_files(op, cwd)
        tracer.op = op["id"]
        probe.main(op["argv"], cwd)
        tracer.end_op()
    probe.interpreter(INTERPRETER_PROBES)
    for _ in range(INTERPRETER_PROBES):
        probe.imported(["--version"], workdir)


# ---------------------------------------------------------------------------

def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text())
    root, workdir = Path(cfg["root"]), Path(cfg["workdir"])
    workload = cfg["workload"]
    ops = json.loads(Path(cfg["ops"]).read_text())
    out: dict = {}

    cpu = cores.FastestCpu()
    cpu()
    t0 = time.perf_counter()
    if workload != "cli":
        import teamlog  # noqa: F401
    w = workloads.make(workload, root, workdir)
    warm = ops[0]
    if workload == "cli":
        import gen
        for op in ops:
            cwd = w.prepare(op)
            cwd.mkdir(parents=True, exist_ok=True)
            gen.write_files(op, cwd)
        setups = []
        for _ in range(SETUP_CLI_CALLS):
            cpu()
            t = time.perf_counter()
            _run_op(w, warm, w.prepare(warm))
            setups.append(time.perf_counter() - t)
        out["setup_s"] = setups
    else:
        _run_op(w, warm, w.prepare(warm))
        out["setup_s"] = [time.perf_counter() - t0]
    if cfg.get("setup_only"):
        Path(cfg["out"]).write_text(json.dumps(out))
        return 0

    prepared = {op["id"]: w.prepare(op) for op in ops}
    passes = Passes(w, ops, prepared, cpu)
    rusage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    calibration = [_calibrate()]
    try:
        passes.one(keep=True)
        # Every pass runs the same ops, so the first one reaches the peak;
        # reading it here keeps the checks' own memory out of it.
        out["peak_rss_mb"] = resource.getrusage(rusage).ru_maxrss / 1024.0
        out["verdicts"] = passes.check()
        if workload != "cli":
            # In-process ops run up to 40% slower on their first call in a
            # process, so the first pass is warm-up and only checked.  A
            # CLI call is a fresh process every time.
            out["warmup_wall"] = passes.walls.pop()
            passes.samples.clear()
            # The inputs and imports live for the whole run; frozen, they
            # are not walked by every full collection, which otherwise
            # landed on whichever op happened to trigger it.
            gc.collect()
            gc.freeze()
            if cfg["trace"]:
                passes.one()
        if cfg["trace"]:
            out["trace"] = _traced(cfg, w, ops, passes, workdir)
        else:
            passes.until(cfg["seconds"], cfg["min_samples"], cfg["min_passes"])
    except workloads.Wrong as exc:
        out = {"wrong": str(exc)}
    else:
        out["samples"] = passes.samples
        out["pass_walls"] = passes.walls
        out["calibration_ms"] = calibration + [_calibrate()]
        out["cpu_moves"] = cpu.moves
    Path(cfg["out"]).write_text(json.dumps(out))
    return 0


def _traced(cfg, w, ops, passes: Passes, workdir: Path) -> dict:
    import gen
    import spans

    probe = CliProbe(workloads.cli_env(Path(cfg["root"])))
    tracer = spans.Tracer()
    untraced_wall = passes.walls[0]
    counts = []

    def cli_extra(op):
        cwd = passes.prepared[op["id"]]
        tracer.op = op["id"]
        probe.main(op["argv"], cwd)
        tracer.end_op()
        probe.imported(op["argv"], cwd)

    tracer.install()
    try:
        start = time.perf_counter()
        while True:
            tracer.pass_ = len(passes.walls)
            tracer.counts.clear()
            wall = passes.one(tracer, cli_extra if cfg["workload"] == "cli" else None)
            if cfg["workload"] == "cli":
                probe.interpreter(INTERPRETER_PROBES)
            counts.append(dict(tracer.counts))
            elapsed = time.perf_counter() - start
            if elapsed + wall / 2 >= cfg["seconds"] - untraced_wall:
                break
        sources = {"ops": probe.report()}
        probe = CliProbe(probe.env)
        tracer.counts.clear()
        sweep_ops = gen.sweep()
        _sweep(tracer, probe, sweep_ops, workdir)
        sweep_counts = dict(tracer.counts)
        sources["sweep"] = probe.report()
    finally:
        tracer.uninstall()
    spans.write(tracer, workdir / "spans")
    return {
        "untraced_wall": untraced_wall,
        "traced_walls": passes.walls[1:],
        "counts": counts,
        "sweep_counts": sweep_counts,
        "cli": sources,
        "atoms": {op["id"]: op.get("atoms", -1) for op in ops},
        "sweep_atoms": {op["id"]: op.get("atoms", -1) for op in sweep_ops},
        "spans": str(workdir / "spans"),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

"""Run the benchmark on two commits in alternating pairs and summarise.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \
        --workload params --seeds 11 12 13 --pairs 10 --seconds 20 \
        --traced 2 --out BENCH.json

Each commit is exported with ``git archive`` into its own clean directory
under a temporary folder, and ``python3 bench/run.py --workload W --seed S
--seconds T --trace 0`` runs from there.  Pair ``i`` uses seed
``seeds[i % len(seeds)]``; even pairs run the parent first, odd pairs the
change first.  ``--traced N`` adds N pairs of ``--trace 1`` runs, whose
per-layer metrics (self times, the ``A<n>`` and ``T<k>`` curves) are
summarised the same way.

The output file holds one entry per workload, so runs of several
workloads can share it: an existing file is updated, and only the entry
of this workload is replaced.  Its header names the commits, the Python
version, ``nproc`` and the ``PYTHONDONTWRITEBYTECODE`` value the runs
inherit, which decides whether ``cli`` runs compile the package afresh.
It also gives ``src_lines``: the lines of each ``src/**/*.py`` module of
both commits, their totals, and the net change (see :func:`src_lines`).
Each entry keeps every run's metrics and ``calibration_ms`` (the time of
a fixed Python loop, which shows how loaded the machine was), and per
metric the median and quartiles of each side, the change of the median
in percent (``change_pct``) and the number of pairs the change won (ties
count for neither).  Each end-to-end metric also gets a ``verdict``
against its relative ``bound`` in ``BENCHMARK.json`` (see
:func:`verdict`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(commit: str, dest: Path) -> None:
    """The committed files of ``commit``, unpacked into ``dest``."""
    archive = dest.with_suffix(".tar")
    _git("archive", "--format=tar", "-o", str(archive), commit)
    dest.mkdir()
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()


def src_lines(tree: Path) -> dict:
    """The lines of each ``src/**/*.py`` module under ``tree``, by path
    relative to it, and their total."""
    modules = {path.relative_to(tree).as_posix():
               len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((tree / "src").rglob("*.py"))}
    return {"modules": modules, "total": sum(modules.values())}


def _run(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``bench/run.py`` run: its metrics and the machine's calibration,
    or the error it ended with."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"seed": seed, "error": f"exit {proc.returncode}: "
                                       f"{proc.stderr.strip()[-2000:]}"}
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"seed": seed,
            "calibration_ms": detail["calibration_ms"],
            "failed_ops": detail["failed_ops"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def _spread(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """``worse`` if the change's median is worse than the parent's by more
    than ``bound`` of it; else ``unresolved`` if the parent's interquartile
    range exceeds ``bound`` of its median, unless every change run beats
    every parent run; else ``not worse``."""
    sign = 1 if better == "higher" else -1
    base = _spread(parent)
    if sign * (base["median"] - statistics.median(change)) > \
            bound * abs(base["median"]):
        return "worse"
    if (base["q3"] - base["q1"] > bound * abs(base["median"])
            and not all(sign * (b - a) > 0 for a in parent for b in change)):
        return "unresolved"
    return "not worse"


def _summary(pairs: list[dict], better: dict[str, str],
             bounds: dict[str, float]) -> dict:
    """Per metric: each side's median and quartiles, ``change_pct`` (the
    change's median against the parent's, in percent of the parent's;
    None when that is 0), the pairs won, and for an end-to-end metric its
    :func:`verdict`."""
    done = [p for p in pairs if all("metrics" in p[s] for s in SIDES)]
    out = {}
    names = sorted({k for p in done for s in SIDES for k in p[s]["metrics"]})
    for name in names:
        both = [(p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name))
                for p in done]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        if not both:
            continue
        entry = {side: _spread([pair[i] for pair in both])
                 for i, side in enumerate(SIDES)}
        base = entry["parent"]["median"]
        entry["change_pct"] = ((entry["change"]["median"] - base) / base * 100
                               if base else None)
        entry["pairs"] = len(both)
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            entry["better"] = better[name]
            entry["change_wins"] = sum(1 for a, b in both if sign * (b - a) > 0)
            entry["parent_wins"] = sum(1 for a, b in both if sign * (a - b) > 0)
        if name in bounds:
            entry["verdict"] = verdict([a for a, _ in both],
                                       [b for _, b in both], better[name],
                                       bounds[name])
        out[name] = entry
    return out


def _pairs(trees: dict, workload: str, seeds: list[int], count: int,
           seconds: int, trace: int) -> list[dict]:
    pairs = []
    for i in range(count):
        seed = seeds[i % len(seeds)]
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = _run(trees[side], workload, seed, seconds, trace)
            print(f"{workload} trace={trace} pair {i + 1}/{count} seed {seed} "
                  f"{side}: {pair[side].get('error') or 'ok'}", file=sys.stderr)
        pairs.append(pair)
    return pairs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="commit measured as the parent")
    p.add_argument("--change", required=True, help="commit measured as the change")
    p.add_argument("--workload", required=True, choices=("cli", "mc", "sat", "params"))
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--pairs", type=int, required=True, help="untraced pairs")
    p.add_argument("--traced", type=int, default=0, help="traced pairs")
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--out", required=True, help="JSON file to create or update")
    args = p.parse_args(argv)
    if args.pairs < 1 or args.traced < 0 or args.seconds < 1:
        p.error("--pairs and --seconds must be positive, --traced not negative")

    commits = {"parent": _git("rev-parse", args.parent),
               "change": _git("rev-parse", args.change)}
    out_path = Path(args.out)
    out = json.loads(out_path.read_text()) if out_path.exists() else {}
    if out.get("commits", commits) != commits:
        p.error(f"{out_path} holds runs of other commits: {out['commits']}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {}
        for side in SIDES:
            trees[side] = Path(tmp) / side
            _export(commits[side], trees[side])
        lines = {side: src_lines(trees[side]) for side in SIDES}
        lines["net"] = lines["change"]["total"] - lines["parent"]["total"]
        pairs = _pairs(trees, args.workload, args.seeds, args.pairs,
                       args.seconds, 0)
        traced = _pairs(trees, args.workload, args.seeds, args.traced,
                        args.seconds, 1)

    out.update({
        "command": "python3 bench/run.py --workload W --seed S "
                   "--seconds T --trace 0|1",
        "commits": commits,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        # the runs inherit it: unset (null) lets them cache bytecode
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "src_lines": lines,
    })
    entry = {"seeds": args.seeds, "seconds": args.seconds,
             "summary": _summary(pairs, better, bounds), "pairs": pairs}
    if traced:
        entry["traced_summary"] = _summary(traced, better, bounds)
        entry["traced_pairs"] = traced
    out.setdefault("workloads", {})[args.workload] = entry
    for name, summary in entry["summary"].items():
        if "verdict" in summary:
            print(f"{args.workload} {name}: {summary['verdict']}",
                  file=sys.stderr)
    out_path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

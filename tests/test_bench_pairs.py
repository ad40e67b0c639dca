"""The end-to-end verdicts of ``scripts/bench_pairs.py``."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

STEADY = [100.0, 100.0, 101.0, 99.0, 100.0]  # median 100, quartiles 99.5..100.5
NOISY = [60.0, 80.0, 100.0, 120.0, 140.0]  # median 100, quartiles 70..130


@pytest.mark.parametrize("better,change,expected", [
    # lower is better: a median past 125 is worse, 125 itself is not
    ("lower", [126.0] * 5, "worse"),
    ("lower", [125.0] * 5, "not worse"),
    ("lower", [90.0] * 5, "not worse"),
    # higher is better: a median below 75 is worse
    ("higher", [74.0] * 5, "worse"),
    ("higher", [75.0] * 5, "not worse"),
    ("higher", [130.0] * 5, "not worse"),
])
def test_median_against_the_bound(better, change, expected):
    assert verdict(STEADY, change, better, 0.25) == expected


def test_wide_parent_spread_is_unresolved():
    # (130 - 70) / 100 = 0.6 exceeds the bound, and the sides overlap
    assert verdict(NOISY, [95.0, 100.0, 105.0], "lower", 0.25) == "unresolved"
    assert verdict(NOISY, [95.0, 100.0, 105.0], "higher", 0.25) == "unresolved"


def test_a_clean_sweep_resolves_a_wide_spread():
    # every change run beats every parent run, so the spread does not matter
    assert verdict(NOISY, [50.0, 55.0, 59.0], "lower", 0.25) == "not worse"
    assert verdict(NOISY, [141.0, 150.0], "higher", 0.25) == "not worse"
    # a tie with the best parent run is no win
    assert verdict(NOISY, [60.0, 55.0], "lower", 0.25) == "unresolved"


def test_worse_wins_over_unresolved():
    assert verdict(NOISY, [130.0] * 5, "lower", 0.25) == "worse"


def test_zero_median_without_spread():
    # a share that stays 0 on both sides, or drops from 0
    assert verdict([0.0] * 4, [0.0] * 4, "higher", 0.05) == "not worse"
    assert verdict([1.0] * 4, [0.9] * 4, "higher", 0.05) == "worse"


def test_summary_labels_only_end_to_end_metrics():
    run = {"metrics": {"verdict_ms_p50": 1.0, "sat.brute.calls": 3}}
    pairs = [{"parent": run, "change": run}] * 3
    better = {"verdict_ms_p50": "lower", "sat.brute.calls": "lower"}
    out = bench_pairs._summary(pairs, better, {"verdict_ms_p50": 0.25})
    assert out["verdict_ms_p50"]["verdict"] == "not worse"
    assert "verdict" not in out["sat.brute.calls"]


def test_summary_gives_the_median_change_in_percent():
    pairs = [{"parent": {"metrics": {"ms": a, "zero": 0.0}},
              "change": {"metrics": {"ms": b, "zero": 1.0}}}
             for a, b in ((10.0, 7.0), (12.0, 9.0), (8.0, 8.0))]
    out = bench_pairs._summary(pairs, {"ms": "lower"}, {})
    # medians 10 and 8
    assert out["ms"]["change_pct"] == pytest.approx(-20.0)
    assert out["zero"]["change_pct"] is None


def test_src_lines_counts_each_module(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "sub" / "b.py").write_text("z = 3\n\n# last line without newline")
    (pkg / "notes.txt").write_text("not a module\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("outside src\n")
    assert bench_pairs.src_lines(tmp_path) == {
        "modules": {"src/pkg/__init__.py": 0, "src/pkg/a.py": 2,
                    "src/pkg/sub/b.py": 3},
        "total": 5,
    }

"""Unit tests for scripts/bench_pairs.py: the verdict rules and the pairing."""

import importlib.util
import pathlib

import pytest

_SCRIPT = (pathlib.Path(__file__).resolve().parent.parent / "scripts"
           / "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# Median 100, inclusive quartiles 98.25 / 101.75: IQR 3.5, spread 0.035.
PARENT = [96.0, 97.0, 98.0, 99.0, 100.0, 100.0, 101.0, 102.0, 103.0, 104.0]
# Median 100, quartiles 74.5 / 100: IQR 25.5, spread 0.255.
SKEWED = [70.0, 72.0, 74.0, 76.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0]


def judge(parent, change, better, bound=0.25):
    """Judge runs written as if higher were better; for a lower-is-better
    metric mirror them around 100, which keeps every median, quartile
    distance and pair outcome."""
    if better == "lower":
        parent = [200.0 - v for v in parent]
        change = [200.0 - v for v in change]
    return bench_pairs.judge(parent, change, better, bound)


@pytest.fixture(params=["higher", "lower"])
def better(request):
    return request.param


def test_improved_needs_nine_of_ten_pairs(better):
    nine = [PARENT[0] - 1] + [v + 5 for v in PARENT[1:]]
    eight = [PARENT[0] - 1, PARENT[1] - 1] + [v + 5 for v in PARENT[2:]]
    won9, won8 = judge(PARENT, nine, better), judge(PARENT, eight, better)
    assert (won9["pairs_won"], won9["pairs_lost"]) == (9, 1)
    assert won9["verdict"] == "improved"
    assert won8["pairs_won"] == 8 and won8["verdict"] == "no_worse"


def test_improved_needs_a_gap_wider_than_the_parent_iqr(better):
    inside = judge(PARENT, [v + 3.49 for v in PARENT], better)
    outside = judge(PARENT, [v + 3.51 for v in PARENT], better)
    assert inside["pairs_won"] == outside["pairs_won"] == 10
    assert inside["verdict"] == "no_worse"
    assert outside["verdict"] == "improved"


def test_regressed_beyond_the_bound(better):
    inside = judge(PARENT, [v - 24.9 for v in PARENT], better)
    outside = judge(PARENT, [v - 25.1 for v in PARENT], better)
    assert inside["verdict"] == "no_worse"
    assert outside["verdict"] == "regressed"
    assert outside["pairs_lost"] == 10


def test_wide_parent_spread_is_unresolved_unless_separated(better):
    separated = judge(SKEWED, [101.0] * 10, better)
    overlapping = judge(SKEWED, [99.0] + [101.0] * 9, better)
    assert separated["parent_spread"] == pytest.approx(0.255)
    assert separated["verdict"] == "no_worse"  # every change run is better
    assert overlapping["verdict"] == "unresolved"


def test_ratio_and_quartiles_are_recorded():
    m = bench_pairs.judge(PARENT, [v * 2 for v in PARENT], "lower", 0.25)
    assert m["parent"]["median"] == 100.0
    assert (m["parent"]["q1"], m["parent"]["q3"]) == (98.25, 101.75)
    assert m["ratio"] == 2.0 and m["verdict"] == "regressed"


def test_sides_alternate_and_failed_runs_are_counted(monkeypatch):
    calls = []

    def stub(tree, command, workload, seed, seconds):
        calls.append((tree, workload, seed))
        if tree == "C" and len(calls) == 3:
            return None  # a run with no result line
        value = 100.0 + len(calls)
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"rps": {"value": value, "unit": "1/s"}}}

    monkeypatch.setattr(bench_pairs, "run_perfbench", stub)
    trees = {"parent": "P", "change": "C"}
    runs = bench_pairs.collect(trees, ["python3", "run.py"], ["w"], 20)
    pairs = bench_pairs.PAIRS
    for s, seed in enumerate(bench_pairs.SEEDS):
        block = calls[2 * pairs * s:2 * pairs * (s + 1)]
        assert {c[2] for c in block} == {seed}
        firsts = [block[2 * i][0] for i in range(pairs)]
        assert firsts == ["P", "C"] * (pairs // 2)
    report = bench_pairs.report(
        runs, [{"name": "rps", "unit": "1/s", "better": "higher",
                "bound": 0.25}])
    first = report["w"]["1"]
    assert first["operations"]["change"] == {
        "attempted": 3 * (pairs - 1), "failed": 0, "runs_failed": 1}
    assert first["operations"]["parent"]["runs_failed"] == 0
    assert len(first["metrics"]["rps"]["parent"]["runs"]) == pairs - 1

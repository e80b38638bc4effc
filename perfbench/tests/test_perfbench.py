"""The benchmark's own tests: tiny inputs, every metric, exact counts.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.common import END_TO_END  # noqa: E402
from perfbench.layers import PER_LAYER, SELF_GROUPS  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402

#: Counts that must repeat exactly across runs of one seed.
EXACT = ("sim.network.messages", "sim.events.fired", "faults.transport.retries",
         "serve.service.misses", "graphs.shm.creates")


def bench(workload: str, *extra: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--size", "tiny", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def result(lines: list[str]) -> dict:
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_reports_every_end_to_end_metric(workload):
    code, lines = bench(workload, "--trace", "0", "--seed", "3")
    doc = result(lines)
    assert code == 0 and doc["correct"] and doc["failed"] == 0
    assert doc["attempted"] >= 1
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == dict(END_TO_END)
    assert all(v["value"] > 0 for v in doc["metrics"].values()), doc["metrics"]
    host = json.loads(lines[-2])["host"]
    assert set(host) == {"nproc", "python", "kernel_backend", "jobs"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_ledger_adds_up_and_counts_repeat(workload):
    runs = []
    for _ in range(2):
        code, lines = bench(workload, "--trace", "1", "--seed", "5")
        doc = result(lines)
        assert code == 0 and doc["correct"], lines[-2]
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == dict(PER_LAYER)
        runs.append({k: v["value"] for k, v in doc["metrics"].items()})
    for m in runs:
        self_sum = sum(m[name] for name, _ in SELF_GROUPS)
        assert self_sum + m["trace.other_s"] == pytest.approx(m["trace.lane_s"],
                                                              rel=1e-6)
        assert m["trace.overhead"] > 0
    for name in EXACT:
        assert runs[0][name] == runs[1][name], name
    assert runs[0]["sim.network.messages"] > 0 or workload == "snapshot-sweep"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_planted_wrong_expectation_fails_the_command(workload):
    code, lines = bench(workload, "--trace", "0", "--plant")
    doc = result(lines)
    assert code == 1
    assert doc["correct"] is False


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("protocol-suite", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_waits_count_as_other_not_as_the_waiting_layer():
    import time

    from perfbench.layers import layer_metrics
    from perfbench.ledger import Ledger

    led = Ledger()

    def kernel():
        time.sleep(0.01)

    def blocked():  # a span runs inside the wait, the rest is waiting
        led.call("graphs.kernels.source", kernel, (), {})
        time.sleep(0.03)

    led.call("serve.executor.sweep",
             lambda: led.wait("parallel.run_parallel", blocked, (), {}), (), {})
    values, problems = layer_metrics(led.lane_data(), timed=0, wall=0.0,
                                     untraced_wall=0.0, jobs=1, nproc=1)
    assert problems == []
    assert values["serve.executor.self_s"] < 0.005
    assert values["graphs.self_s"] == pytest.approx(0.01, abs=0.005)
    assert values["trace.other_s"] == pytest.approx(0.03, abs=0.01)
    assert values["serve.executor.sweep_s"] == pytest.approx(0.04, abs=0.01)


def _session_members(sid: int) -> list[str]:
    """Processes of session ``sid``, zombies included (Linux ``/proc``)."""
    found = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except (OSError, ValueError):
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[3]) == sid:
            found.append(stat)
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("workload", ["chaos-sweep", "serve-mix"])
def test_every_process_is_reaped_before_exit(workload):
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--size", "tiny", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    lines = proc.communicate(timeout=600)[0].splitlines()
    assert proc.returncode == 0 and result(lines)["correct"]
    assert _session_members(proc.pid) == []

"""Replay engine: byte-identity, divergence localization, golden corpus."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments.chaos import RunSpec
from repro.faults import CrashWindow, FaultPlan
from repro.obs import TraceRecorder, load_jsonl, to_jsonl
from repro.replay import (
    ReplayError,
    bisect_divergence,
    check_golden,
    first_divergence,
    golden_paths,
    record_golden,
    record_run,
    replay_trace,
    spec_of,
    verify_trace,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "fixtures" / "golden"

SPEC = RunSpec(protocol="broadcast", n=10, extra_edges=10, graph_seed=2,
               plan=FaultPlan(drop=0.2, seed=9))


# --------------------------------------------------------------------- #
# Record / replay / verify
# --------------------------------------------------------------------- #

def test_record_replay_byte_identity():
    run = record_run(SPEC)
    assert run.outcome.status == "ok"
    report = verify_trace(load_jsonl(run.text))
    assert report.ok, report.describe()


def test_replay_header_round_trips_the_spec():
    run = record_run(SPEC)
    trace = load_jsonl(run.text)
    assert spec_of(trace) == SPEC
    assert trace.meta["replay"]["graph_fp"]  # stamped at record time


def test_replay_without_header_refuses():
    recorder = TraceRecorder()
    recorder.record_send(0.0, 0, 1, "x", 1.0)
    recorder.finalize(1.0, status="completed")
    with pytest.raises(ReplayError, match="no 'replay' meta header"):
        replay_trace(load_jsonl(to_jsonl(recorder)))


def test_unknown_protocol_refuses():
    with pytest.raises(ValueError, match="unknown protocol"):
        RunSpec(protocol="nonesuch", n=8, extra_edges=6)


def test_crash_order_records_the_run_it_replays():
    # Two windows opening at the same instant, given out of canonical
    # order: the recorded run and its header must name the same schedule.
    plan = FaultPlan(crashes=(CrashWindow(5, 2.0, 8.0),
                              CrashWindow(3, 2.0, 8.0)), seed=4)
    run = record_run(RunSpec(protocol="dfs", n=10, extra_edges=10, plan=plan))
    report = verify_trace(load_jsonl(run.text))
    assert report.ok, report.describe()


def _tampered(**changes):
    lines = record_run(SPEC).text.splitlines()
    meta = json.loads(lines[0])
    meta["replay"].update(changes)
    lines[0] = json.dumps(meta, sort_keys=True)
    return load_jsonl("\n".join(lines) + "\n")


@pytest.mark.parametrize("changes", [
    {"n": 10.5},
    {"reliable": "false"},
    {"limit": "5"},
    {"race": 1},
    {"protocol": "nonesuch"},
    {"plan": {"drop": 2.0}},
    {"bogus": 1},
], ids=repr)
def test_tampered_header_refuses(changes):
    with pytest.raises(ReplayError, match="invalid replay header"):
        spec_of(_tampered(**changes))


def test_fingerprint_mismatch_refuses():
    run = record_run(SPEC)
    lines = run.text.splitlines()
    meta = json.loads(lines[0])
    meta["replay"]["graph_fp"] = "0" * 16
    lines[0] = json.dumps(meta, sort_keys=True)
    tampered = load_jsonl("\n".join(lines) + "\n")
    with pytest.raises(ReplayError, match="fingerprint mismatch"):
        replay_trace(tampered)


def test_gamma_w_records_and_replays():
    # The synchronizer stack (normalized graph, in-synch transform, gamma
    # clusters) under the same byte-identity contract as flat protocols.
    spec = RunSpec(protocol="gamma_w(max)", n=8, extra_edges=6,
                   graph_seed=3)
    run = record_run(spec)
    assert run.outcome.status == "ok"
    report = verify_trace(load_jsonl(run.text))
    assert report.ok, report.describe()


# --------------------------------------------------------------------- #
# Differential replay
# --------------------------------------------------------------------- #

def test_perturbed_plan_seed_yields_localized_divergence():
    base = record_run(SPEC)
    perturbed = record_run(dataclasses.replace(
        SPEC, plan=SPEC.plan.replace(seed=SPEC.plan.seed + 1)))
    div = first_divergence(base.text, perturbed.text)
    assert div is not None
    assert div.index >= 0
    assert div.fields  # names the differing fields, not just "differs"
    # Everything before the divergence point is identical.
    base_events = base.text.splitlines()[1:]
    pert_events = perturbed.text.splitlines()[1:]
    assert base_events[:div.index] == pert_events[:div.index]
    assert "event #" in div.describe()


def test_divergent_deliver_resolves_its_send():
    base = record_run(SPEC)
    perturbed = record_run(dataclasses.replace(
        SPEC, plan=SPEC.plan.replace(drop=0.35)))
    div = first_divergence(base.text, perturbed.text)
    assert div is not None
    # At least one side of the first divergence is send-linked.
    if div.left and div.left.get("ref") is not None:
        assert div.left_send is not None
        assert div.left_send["kind"] == "send"


def test_identical_traces_have_no_divergence():
    run = record_run(SPEC)
    assert first_divergence(run.text, run.text) is None


def test_aggregate_only_divergence_reports_meta():
    spec0 = RunSpec(protocol="broadcast", n=10, extra_edges=10,
                    plan=FaultPlan(drop=0.2, seed=9), limit=0)
    spec1 = RunSpec(protocol="broadcast", n=10, extra_edges=10,
                    plan=FaultPlan(drop=0.2, seed=10), limit=0)
    div = first_divergence(record_run(spec0).text, record_run(spec1).text)
    assert div is not None and div.index == -1
    assert "meta headers differ" in div.describe()


def test_bisect_finds_first_divergent_knob():
    texts = {}

    def trace_of(x):
        # Knob semantics: plan seed flips at x == 3.
        if x not in texts:
            plan = FaultPlan(drop=0.2, seed=9 if x < 3 else 77)
            texts[x] = record_run(RunSpec(
                protocol="broadcast", n=10, extra_edges=10,
                plan=plan)).text
        return texts[x]

    x, div = bisect_divergence(0, 6, trace_of)
    assert x == 3
    assert div is not None


def test_bisect_rejects_identical_range():
    run = record_run(SPEC)
    with pytest.raises(ValueError, match="matches the baseline"):
        bisect_divergence(0, 4, lambda x: run.text)


# --------------------------------------------------------------------- #
# Golden corpus
# --------------------------------------------------------------------- #

def test_record_and_check_golden(tmp_path):
    path = record_golden(SPEC, str(tmp_path / "flood.jsonl"))
    report = check_golden(path)
    assert report.ok, report.describe()


def test_corrupted_golden_is_localized(tmp_path):
    path = record_golden(SPEC, str(tmp_path / "flood.jsonl"))
    lines = Path(path).read_text().splitlines()
    last = json.loads(lines[-1])
    last["t"] = last["t"] + 1.0
    lines[-1] = json.dumps(last, sort_keys=True)
    Path(path).write_text("\n".join(lines) + "\n")
    report = check_golden(path)
    assert not report.ok
    assert report.divergence is not None
    assert report.divergence.index == len(lines) - 2  # 0-based event index
    assert "t" in report.divergence.fields


def test_golden_paths_listing(tmp_path):
    assert golden_paths(str(tmp_path / "missing")) == []
    (tmp_path / "b.jsonl").write_text("x")
    (tmp_path / "a.jsonl").write_text("x")
    (tmp_path / "notes.txt").write_text("x")
    names = [Path(p).name for p in golden_paths(str(tmp_path))]
    assert names == ["a.jsonl", "b.jsonl"]


@pytest.mark.parametrize("path", golden_paths(str(GOLDEN_DIR)) or ["<none>"])
def test_committed_golden_corpus_replays(path):
    # The committed regression corpus (tests/fixtures/golden): every pinned
    # trace must replay byte-identically on every platform and run.
    if path == "<none>":
        pytest.skip("no committed golden traces")
    report = check_golden(path)
    assert report.ok, f"{path}: {report.describe()}"

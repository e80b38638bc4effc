"""The chaos fuzzer: determinism, novelty, minimization, CLI."""

import json
import random
from pathlib import Path

import pytest

from repro.experiments.chaos import RunSpec
from repro.faults import CrashWindow, FaultPlan
from repro.graphs import random_connected_graph
from repro.replay.fuzz import (
    ddmin,
    evaluate_cell,
    fuzz,
    main,
    minimize_plan,
    mutate_plan,
    outcome_signature,
    plan_atoms,
    plan_from_atoms,
    plan_key,
    verify_entry,
    write_corpus,
)

# Small, fast campaign settings shared by the tests.
KW = dict(n=8, extra_edges=6, graph_seed=3)


def _cell(plan, protocol="broadcast", **overrides):
    kw = {**KW, **overrides}
    return RunSpec(protocol=protocol, plan=plan, limit=0, race=True, **kw)


# --------------------------------------------------------------------- #
# ddmin (pure)
# --------------------------------------------------------------------- #

def test_ddmin_finds_minimal_core():
    atoms = list(range(8))
    calls = []

    def test_fn(subset):
        calls.append(tuple(subset))
        return 3 in subset and 5 in subset

    assert sorted(ddmin(atoms, test_fn)) == [3, 5]


def test_ddmin_single_atom():
    assert ddmin([1, 2, 3, 4], lambda s: 2 in s) == [2]


def test_ddmin_requires_failing_input():
    with pytest.raises(ValueError, match="test\\(atoms\\) to hold"):
        ddmin([1, 2], lambda s: False)


def test_ddmin_never_grows():
    atoms = list(range(16))
    result = ddmin(atoms, lambda s: len(s) >= 5)
    assert len(result) == 5


# --------------------------------------------------------------------- #
# Atoms
# --------------------------------------------------------------------- #

def test_plan_atoms_round_trip():
    plan = FaultPlan(drop=0.2, corrupt=0.1, seed=7,
                     edges=[(0, 1), (2, 3)],
                     crashes=(CrashWindow(1, 2.0, 5.0),))
    atoms = plan_atoms(plan)
    assert len(atoms) == 5  # 2 rates + 1 crash + 2 edges
    rebuilt = plan_from_atoms(plan, atoms)
    assert rebuilt.to_dict() == plan.to_dict()


def test_plan_from_atoms_subset_weakens():
    plan = FaultPlan(drop=0.2, corrupt=0.1, seed=7, edges=[(0, 1)],
                     crashes=(CrashWindow(1, 2.0, 5.0),))
    atoms = [a for a in plan_atoms(plan) if a[0] == "rate" and a[1] == "drop"]
    reduced = plan_from_atoms(plan, atoms)
    assert reduced.drop == 0.2
    assert reduced.corrupt == 0.0
    assert reduced.crashes == ()
    # Base had an edge restriction; dropping its atoms must shrink the
    # faultable set to empty, never widen it back to "all edges".
    assert reduced._edge_set == frozenset()


def test_empty_atoms_is_benign_plan():
    plan = FaultPlan(drop=0.3, seed=9)
    reduced = plan_from_atoms(plan, [])
    assert plan_atoms(reduced) == []
    assert reduced.seed == 9


# --------------------------------------------------------------------- #
# Mutation
# --------------------------------------------------------------------- #

def test_mutate_plan_always_valid_and_deterministic():
    g = random_connected_graph(8, 6, seed=3)
    vertices = sorted(g.vertices, key=repr)
    edges = sorted(((u, v) for u, v, _w in g.edges()),
                   key=lambda e: (repr(e[0]), repr(e[1])))

    def campaign(seed):
        rng = random.Random(seed)
        plan = FaultPlan()
        keys = []
        for _ in range(60):
            plan = mutate_plan(plan, rng, vertices, edges)
            keys.append(plan_key(plan))  # to_dict validates + canonicalizes
        return keys

    assert campaign(11) == campaign(11)
    assert campaign(11) != campaign(12)


# --------------------------------------------------------------------- #
# Evaluation, signatures, minimization
# --------------------------------------------------------------------- #

def test_evaluate_cell_ok_plan():
    row = evaluate_cell(_cell(FaultPlan()))
    assert row["status"] == "ok"
    assert not row["crashed"]
    assert "send" in row["kinds"]


def test_permanent_crash_is_a_detectable_failure():
    g = random_connected_graph(KW["n"], KW["extra_edges"],
                               seed=KW["graph_seed"])
    victim = g.vertices[-1]  # not the root the case builds from vertices[0]
    plan = FaultPlan(crashes=(CrashWindow(victim, 1.0, None),))
    row = evaluate_cell(_cell(plan))
    assert row["status"] != "ok"
    assert row["crashed"]
    sig = outcome_signature(row)
    assert sig != outcome_signature(evaluate_cell(_cell(FaultPlan())))


def test_minimize_plan_shrinks_and_still_fails():
    g = random_connected_graph(KW["n"], KW["extra_edges"],
                               seed=KW["graph_seed"])
    victim = g.vertices[-1]
    noisy = FaultPlan(drop=0.05, duplicate=0.05, reorder=0.1,
                      crashes=(CrashWindow(victim, 1.0, None),), seed=3)
    cell = _cell(noisy)
    assert evaluate_cell(cell)["status"] != "ok"
    minimized, probes = minimize_plan(cell)
    assert probes > 0
    assert len(plan_atoms(minimized)) <= len(plan_atoms(noisy))
    re_run = evaluate_cell(_cell(minimized))
    assert re_run["status"] != "ok"
    # The permanent crash is the actual culprit; rates should be gone.
    assert len(plan_atoms(minimized)) == 1


def test_signature_buckets_retries_logarithmically():
    base = {"status": "ok", "crashed": False, "kinds": [], "spans": [],
            "violations": []}
    sig_lo = outcome_signature({**base, "retry_count": 2})
    sig_lo2 = outcome_signature({**base, "retry_count": 3})
    sig_hi = outcome_signature({**base, "retry_count": 40})
    assert sig_lo == sig_lo2
    assert sig_lo != sig_hi


# --------------------------------------------------------------------- #
# Campaigns
# --------------------------------------------------------------------- #

def test_fuzz_same_seed_same_corpus(tmp_path):
    kwargs = dict(budget=10, seed=5, minimize=False, **KW)
    a = fuzz(["broadcast"], **kwargs)
    b = fuzz(["broadcast"], **kwargs)
    pa = write_corpus(a, str(tmp_path / "a.jsonl"))
    pb = write_corpus(b, str(tmp_path / "b.jsonl"))
    assert Path(pa).read_bytes() == Path(pb).read_bytes()
    assert a.evaluations == 10


def test_fuzz_signatures_are_unique():
    result = fuzz(["broadcast"], budget=10, seed=5, minimize=False, **KW)
    assert result.entries
    sigs = [json.dumps(e["signature"]) for e in result.entries]
    assert len(sigs) == len(set(sigs))


def test_fuzz_verify_entry_round_trip():
    # Drive until the campaign finds a failing plan, then re-verify it:
    # minimized still fails, no larger, replays byte-identically.
    result = fuzz(["broadcast"], budget=24, seed=3, **KW)
    failing = result.failing
    assert failing, "campaign found no failing plan (seed drift?)"
    entry = failing[0]
    assert entry["minimized_atoms"] <= entry["parent_atoms"]
    assert verify_entry(entry) == []


def test_fuzz_cli_smoke(tmp_path, capsys):
    out = tmp_path / "corpus.jsonl"
    status = main([
        "--protocols", "broadcast", "--budget", "8", "--seed", "5",
        "--n", str(KW["n"]), "--extra-edges", str(KW["extra_edges"]),
        "--graph-seed", str(KW["graph_seed"]),
        "--no-minimize", "--out", str(out), "--min-novel", "1",
    ])
    assert status == 0
    text = out.read_text()
    header = json.loads(text.splitlines()[0])
    assert header["kind"] == "fuzz-corpus"
    assert header["evaluations"] == 8
    captured = capsys.readouterr()
    assert "novel signatures" in captured.out


def test_fuzz_cli_min_novel_failure(tmp_path):
    status = main([
        "--protocols", "broadcast", "--budget", "2", "--seed", "5",
        "--n", str(KW["n"]), "--extra-edges", str(KW["extra_edges"]),
        "--no-minimize", "--min-novel", "1000",
    ])
    assert status == 1

"""Property-based determinism: same inputs, byte-identical outcomes.

The whole experiment layer rests on runs being pure functions of
(graph, seed, fault plan).  These tests pin that down three ways:

* every chaos-matrix protocol, run twice from scratch with the same
  inputs, produces a byte-identical metrics fingerprint (costs, counts,
  per-tag buckets, fault counters, status, answer);
* the parallel sweep engine returns the exact rows of the serial path,
  regardless of worker count;
* the EventQueue fires a randomized interleaving of schedule calls in
  the identical order on replay.
"""

from pathlib import Path

import pytest

from repro.experiments.chaos import make_cases
from repro.experiments.parallel import chaos_rows
from repro.faults import FaultPlan, run_chaos
from repro.sim.events import EventQueue

PROTOCOLS = ("broadcast", "convergecast", "dfs", "mst_ghs", "mst_fast",
             "global_fn(slt)")


def _chaos_fingerprint(protocol: str, *, drop: float, reliable: bool) -> bytes:
    """Run one protocol under one fault plan, from scratch, and flatten
    everything observable to bytes."""
    case = {c.name: c for c in make_cases(10, 12, 4)}[protocol]
    plan = FaultPlan.message_loss(drop, seed=13) if drop > 0 else None
    outcome = run_chaos(case.graph, case.factory, plan=plan,
                        reliable=reliable, watchdog_time=1e6,
                        answer=case.answer)
    m = outcome.result.metrics if outcome.result else None
    return repr((
        outcome.status,
        outcome.answer,
        outcome.ack_cost, outcome.retry_cost, outcome.retry_count,
        outcome.result.status if outcome.result else None,
        (m.comm_cost, m.message_count, m.completion_time,
         m.last_finish_time,
         sorted(m.cost_by_tag.items()),
         sorted(m.count_by_tag.items()),
         sorted(m.fault_counts.items())) if m else None,
    )).encode()


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("drop,reliable", [(0.0, False), (0.2, True)])
def test_same_inputs_byte_identical_outcome(protocol, drop, reliable):
    first = _chaos_fingerprint(protocol, drop=drop, reliable=reliable)
    second = _chaos_fingerprint(protocol, drop=drop, reliable=reliable)
    assert first == second


def test_serial_and_parallel_sweeps_merge_identically():
    kw = dict(n=10, extra_edges=12, graph_seed=4, drop_rates=(0.0, 0.2))
    serial = chaos_rows(jobs=1, **kw)
    parallel = chaos_rows(jobs=2, **kw)
    assert serial == parallel


def test_parallel_sweep_covers_all_protocols_and_rates():
    rows = chaos_rows(jobs=2, n=10, extra_edges=12, graph_seed=4,
                      drop_rates=(0.0, 0.2))
    combos = {(r["protocol"], r["drop"], r["reliable"]) for r in rows}
    for proto in PROTOCOLS:
        assert (proto, 0.0, True) in combos
        assert (proto, 0.2, True) in combos
        assert (proto, 0.2, False) in combos
    # Reliable runs complete with the fault-free answer (status "ok").
    assert all(r["status"] == "ok" for r in rows if r["reliable"])


def _random_interleaving_trace(seed: int) -> list:
    """Drive the queue with a seeded random mix of all four scheduling
    entry points, interrupted drains, and same-time storms; return the
    firing order."""
    import random

    rng = random.Random(seed)
    q = EventQueue()
    fired = []
    counter = [0]

    def make(i):
        return lambda: fired.append(i)

    def note(i):
        fired.append(i)

    for _ in range(40):
        for _ in range(rng.randrange(1, 6)):
            i = counter[0]
            counter[0] += 1
            kind = rng.randrange(4)
            delay = rng.choice([0.0, 0.5, 1.0, 1.0, 2.5])
            if kind == 0:
                q.schedule(delay, make(i))
            elif kind == 1:
                q.schedule_at(q.now + delay, make(i))
            elif kind == 2:
                q.schedule_call(delay, note, i)
            else:
                q.schedule_call_at(q.now + delay, note, i)
        # Randomly drain a bounded slice or everything, so interleavings
        # also cross interrupted-run boundaries.
        if rng.random() < 0.5:
            q.run(max_events=rng.randrange(1, 5))
        else:
            q.run()
    q.run()
    return fired


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_event_queue_replay_is_identical(seed):
    assert _random_interleaving_trace(seed) == _random_interleaving_trace(seed)


# --------------------------------------------------------------------- #
# Hash-order regressions: structures built from string vertices must be
# identical under different PYTHONHASHSEED values (regression tests for
# the hazards the repro.analysis linter flagged and this repo fixed:
# connected_components root selection, partition fill order, coarsening
# layer order).
# --------------------------------------------------------------------- #

_HASH_SNAPSHOT_CODE = """
import json
from repro.covers.clusters import max_cover_degree
from repro.covers.coarsening import coarsen_cover
from repro.graphs import WeightedGraph
from repro.synch.partition import build_partition

g = WeightedGraph()
names = ["node-%02d" % i for i in range(12)]
for a, b in zip(names, names[1:]):
    g.add_edge(a, b, 1.0)
g.add_edge(names[0], names[6], 2.0)
for a, b in (("isle-a", "isle-b"), ("isle-b", "isle-c")):
    g.add_edge(a, b, 1.0)

part = build_partition(g, k=2)
cover = [frozenset(names[i:i + 4]) for i in range(0, 12, 2)]
coarse = coarsen_cover(cover, k=2)

print(json.dumps({
    "components": [sorted(c) for c in g.connected_components()],
    "cluster_of_order": list(part.cluster_of),
    "clusters": [
        [c.index, repr(c.leader), sorted(c.members),
         list(c.children), sorted(c.neighbor_clusters)]
        for c in part.clusters
    ],
    "preferred": sorted(map(repr, part.preferred.items())),
    "coarse": [[sorted(c.vertices), list(c.kernel_members)] for c in coarse],
    "max_degree": max_cover_degree(cover),
}))
"""


def _hash_snapshot(hashseed: str) -> str:
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _HASH_SNAPSHOT_CODE],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_graph_structures_identical_across_hash_seeds():
    assert _hash_snapshot("1") == _hash_snapshot("271828")

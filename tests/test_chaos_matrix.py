"""Acceptance tests for the chaos harness (ISSUE 1 criteria).

The matrix runs {broadcast, convergecast, DFS, GHS MST, SLT global
function} at seeded drop rates {0, 0.05, 0.2}:

* with the reliable transport every run completes with the fault-free
  answer;
* without it, a faulted run either still succeeds or fails *detectably*
  (stall / timeout / abort) — never a silent wrong answer, never a hang;
* retransmission overhead is accounted in cost units (each retry on ``e``
  costs another ``w(e)``) and stays below 3x the fault-free communication
  cost at 20% drop;
* the whole matrix is deterministic: same plans + seeds, same numbers.
"""

import pytest

from repro.experiments.chaos import DROP_RATES, chaos_matrix

PROTOCOLS = ("broadcast", "convergecast", "dfs", "mst_ghs", "mst_fast",
             "global_fn(slt)")


@pytest.fixture(scope="module")
def matrix():
    return chaos_matrix()


def test_matrix_covers_all_protocols_and_rates(matrix):
    combos = {(e["protocol"], e["drop"], e["reliable"]) for e in matrix}
    for proto in PROTOCOLS:
        for rate in DROP_RATES:
            assert (proto, rate, True) in combos
            if rate > 0:
                assert (proto, rate, False) in combos


def test_reliable_runs_complete_with_fault_free_answer(matrix):
    for entry in matrix:
        if entry["reliable"]:
            outcome = entry["outcome"]
            assert outcome.status == "ok", (
                f"{entry['protocol']} @ drop={entry['drop']} with transport: "
                f"{outcome.status} ({outcome.error})"
            )


def test_raw_runs_never_silently_wrong(matrix):
    saw_detectable_failure = False
    for entry in matrix:
        if not entry["reliable"]:
            outcome = entry["outcome"]
            assert not outcome.silent_failure, (
                f"{entry['protocol']} @ drop={entry['drop']} raw: silent "
                f"wrong answer"
            )
            assert outcome.status == "ok" or outcome.detectable_failure
            saw_detectable_failure |= outcome.detectable_failure
    # The sweep actually exercises the failure path: at 20% drop at least
    # one raw protocol must have failed (detectably), else the adversary
    # is a no-op and the matrix proves nothing.
    assert saw_detectable_failure


def test_retry_overhead_below_3x_fault_free_comm(matrix):
    checked = 0
    for entry in matrix:
        if entry["reliable"] and entry["drop"] == 0.2:
            assert entry["overhead_ratio"] < 3.0, (
                f"{entry['protocol']}: retry cost "
                f"{entry['outcome'].retry_cost} >= 3x fault-free "
                f"{entry['ff_cost']}"
            )
            checked += 1
    assert checked == len(PROTOCOLS)


def test_fault_free_reliable_runs_have_no_retries(matrix):
    for entry in matrix:
        if entry["reliable"] and entry["drop"] == 0.0:
            assert entry["outcome"].retry_count == 0
            assert entry["outcome"].ack_cost > 0


def test_lossy_reliable_runs_actually_retransmit(matrix):
    for entry in matrix:
        if entry["reliable"] and entry["drop"] == 0.2:
            assert entry["outcome"].retry_count > 0, (
                f"{entry['protocol']}: 20% drop but zero retries — the "
                f"fault plan is not reaching the wire"
            )


def test_matrix_is_deterministic():
    def summarize(rows):
        return [
            (
                e["protocol"], e["drop"], e["reliable"],
                e["outcome"].status,
                e["outcome"].retry_count,
                e["outcome"].retry_cost,
                e["outcome"].ack_cost,
                e["outcome"].result.comm_cost if e["outcome"].result
                else None,
                e["outcome"].result.time if e["outcome"].result else None,
            )
            for e in rows
        ]

    first = summarize(chaos_matrix(10, 12, 4, drop_rates=(0.0, 0.2)))
    second = summarize(chaos_matrix(10, 12, 4, drop_rates=(0.0, 0.2)))
    assert first == second


def test_chaos_experiment_registered():
    from repro.experiments.base import all_experiments

    assert "chaos" in all_experiments()

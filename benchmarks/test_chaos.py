"""Chaos benchmark: the price of reliability at benchmark scale.

Not a paper artifact — robustness due diligence for the simulator stack:
the full chaos matrix (protocol suite x seeded loss rates, with and
without the reliable transport) on a larger graph than the tier-1 suite
uses, asserting the same contract at scale: reliable runs reproduce the
fault-free answers, raw runs never fail silently, and the cost-sensitive
retransmission overhead at 20% drop stays below 3x the fault-free
communication.
"""

from repro.experiments.chaos import chaos_matrix

from .util import once, print_table


def test_chaos_matrix_at_scale(benchmark):
    rows = once(benchmark,
                lambda: chaos_matrix(n=40, extra_edges=80, graph_seed=11))

    table = []
    for entry in rows:
        outcome = entry["outcome"]
        comm = outcome.result.comm_cost if outcome.result else float("nan")
        table.append([
            entry["protocol"], entry["drop"],
            "reliable" if entry["reliable"] else "raw",
            outcome.status, comm, outcome.retry_count,
            outcome.retry_cost, entry["overhead_ratio"],
        ])
    print_table(
        "Chaos at scale (n=40): loss rate vs reliability cost",
        ["protocol", "drop", "transport", "status", "comm", "retries",
         "retry_cost", "retry/ff"],
        table,
    )

    for entry in rows:
        outcome = entry["outcome"]
        if entry["reliable"]:
            assert outcome.status == "ok", (
                f"{entry['protocol']} @ {entry['drop']}: {outcome.status}"
            )
            if entry["drop"] == 0.2:
                assert entry["overhead_ratio"] < 3.0
        else:
            assert not outcome.silent_failure

#!/usr/bin/env python
"""Trace-driven replay and differential debugging, end to end.

Three acts, all on the paper's gamma_w synchronizer hosting synchronous
max-consensus under a lossy fault adversary:

1. **Record** — run the protocol with a ``TraceRecorder`` attached; the
   replay header (protocol, graph fingerprint, fault plan, seed) is
   stamped into the trace's meta line, making the JSONL document an
   *executable* artifact.
2. **Replay** — load the document back, rebuild the run from its header
   alone, re-execute, and check byte-identity (runs here are pure
   functions of ``(graph, protocol, plan, seed)``).
3. **Diverge** — mutate one field of the fault plan (the adversary's RNG
   seed), re-run, and let the differ localize the *first event* where
   the two executions part ways, with the originating send resolved for
   context.

Run:  python examples/replay_demo.py
"""

import dataclasses

from repro.experiments.chaos import RunSpec
from repro.faults import FaultPlan
from repro.obs import load_jsonl
from repro.replay import first_divergence, record_run, verify_trace


def main() -> None:
    # -- Act 1: record a gamma_w chaos run ---------------------------- #
    spec = RunSpec(
        protocol="gamma_w(max)", n=8, extra_edges=6, graph_seed=3,
        plan=FaultPlan(drop=0.1, seed=21),
    )
    run = record_run(spec)
    print(f"recorded {spec.protocol!r}: status={run.outcome.status}, "
          f"{run.recorder.n_recorded} events, "
          f"comm_cost={run.recorder.total_cost:g}")

    # -- Act 2: replay from the trace alone --------------------------- #
    trace = load_jsonl(run.text)
    header = trace.meta["replay"]
    print(f"replay header: plan={header['plan']}, "
          f"graph_fp={header['graph_fp']}")
    report = verify_trace(trace)
    print(f"replay: {report.describe()}")
    assert report.ok

    # -- Act 3: one-line plan mutation -> first divergent event ------- #
    mutated = record_run(dataclasses.replace(
        spec, plan=spec.plan.replace(seed=22),  # the one-line mutation
    ))
    divergence = first_divergence(run.text, mutated.text)
    assert divergence is not None
    print("\nafter mutating plan.seed 21 -> 22:")
    print(f"  first divergent event: {divergence.describe()}")
    prefix = run.text.splitlines()[1:][:divergence.index]
    print(f"  (the preceding {len(prefix)} events are identical)")


if __name__ == "__main__":
    main()

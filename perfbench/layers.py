"""Per-layer metrics of the traced run, computed from ledger lanes.

Every traced run reports every name in :data:`PER_LAYER`; a layer the
workload does not exercise reads 0.  ``*_self_s`` metrics come from
:data:`SELF_GROUPS`, which together cover every span name the wrappers
record, so the self times plus ``trace.other_s`` (time outside spans and
time spent waiting on another process) add up to ``trace.lane_s``
(checked in :func:`layer_metrics`).
"""

from __future__ import annotations

RUNNERS = ("flood", "dfs", "mst_ghs", "mst_fast", "spt_recur", "spt_synch",
           "mst_hybrid", "spt_hybrid")
HOOKS = ("recorder", "trace", "faults", "race", "budget")
EXEC_KINDS = ("chaos", "sweep", "snapshot", "trace")
SERVICE_COUNTS = ("hits", "misses", "coalesced", "rejected", "errors")

#: metric -> span names (exact, or prefixes ending in ".") it sums self time over.
SELF_GROUPS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("sim.events.self_s", ("sim.events.",)),
    ("sim.network.init_self_s", ("sim.network.init",)),
    ("sim.network.transmit_self_s", ("sim.network.send", "sim.network.transmit")),
    ("sim.network.deliver_self_s", ("sim.network.deliver", "sim.network.timer")),
    ("protocols.handler_self_s", ("protocols.",)),
    ("synch.handler_self_s", ("synch.",)),
    ("faults.plan.fate_self_s", ("faults.plan.",)),
    ("faults.transport.self_s", ("faults.transport.",)),
    ("obs.recorder.self_s", ("obs.recorder.", "obs.profiler.")),
    ("obs.exporters.jsonl_s", ("obs.exporters.",)),
    ("replay.record_s", ("replay.",)),
    # A pool cell's own time in the worker, outside the layers it calls.
    ("parallel.cell_self_s", ("parallel.",)),
    ("graphs.self_s", ("graphs.",)),
    ("serve.address.self_s", ("serve.address",)),
    ("serve.store.self_s", ("serve.store.",)),
    ("serve.executor.self_s", ("serve.executor.",)),
)

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("sim.events.fired", "count"),
    ("sim.network.messages", "count"),
    *((name, "s") for name, _ in SELF_GROUPS),
    *((f"sim.network.hook_ratio.{h}", "ratio") for h in HOOKS),
    *((f"protocols.{r}.msgs_per_s", "1/s") for r in RUNNERS),
    ("faults.plan.fate_calls", "count"),
    ("faults.plan.dropped", "count"),
    ("faults.transport.retries", "count"),
    ("faults.transport.acks", "count"),
    ("faults.transport.useful_ratio", "ratio"),
    ("obs.recorder.events", "count"),
    ("parallel.cells", "count"),
    ("parallel.cell_s", "s"),
    ("parallel.efficiency", "ratio"),
    ("parallel.pool_starts", "count"),
    ("parallel.batches", "count"),
    ("graphs.build_s", "s"),
    ("graphs.shm.publish_s", "s"),
    ("graphs.shm.creates", "count"),
    ("graphs.shm.attaches", "count"),
    ("graphs.shm.rebuilds", "count"),
    ("graphs.shm.failures", "count"),
    ("graphs.kernels.source_s", "s"),
    ("graphs.kernels.stripe_s", "s"),
    ("graphs.cache.csr_builds", "count"),
    ("graphs.cache.np_builds", "count"),
    ("serve.store.get_s", "s"),
    ("serve.store.put_s", "s"),
    ("serve.store.bytes_read", "bytes"),
    ("serve.store.bytes_written", "bytes"),
    ("serve.store.integrity_failures", "count"),
    ("serve.wire_s", "s"),
    *((f"serve.executor.{k}_s", "s") for k in EXEC_KINDS),
    *((f"serve.service.{k}", "count") for k in SERVICE_COUNTS),
    ("serve.service.hit_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.other_s", "s"),
    ("trace.lane_s", "s"),
)

def _group_of(name: str) -> str | None:
    for metric, keys in SELF_GROUPS:
        for key in keys:
            if name == key or (key.endswith(".") and name.startswith(key)):
                return metric
    return None


def add_spans(into: dict, spans: dict) -> None:
    """Add ``spans`` (name -> [calls, total, self]) into ``into``."""
    for name, (calls, total, self_s) in spans.items():
        rec = into.setdefault(name, [0, 0, 0.0])
        rec[0] += calls
        rec[1] += total
        rec[2] += self_s


def add_counts(into: dict, counts: dict) -> None:
    for name, k in counts.items():
        into[name] = into.get(name, 0) + k


def merge(lanes: list[dict]) -> tuple[dict, dict]:
    spans: dict[str, list] = {}
    counts: dict[str, float] = {}
    for lane in lanes:
        add_spans(spans, lane["spans"])
        add_counts(counts, lane["counts"])
    return spans, counts


def layer_metrics(
    lanes: list[dict],
    *,
    timed: int,
    wall: float,
    untraced_wall: float,
    jobs: int,
    nproc: int,
    extra: dict[str, float] | None = None,
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values and the accounting problems found.

    ``lanes`` are ledger lanes (see :meth:`perfbench.ledger.Ledger.lane_data`);
    the first ``timed`` of them each span the whole traced wall (the
    threads that drove the work), the others count only the time their
    root spans cover (idle pool workers and server threads are not work).
    ``extra`` supplies values measured outside the ledger; they are added
    to the ledger's value of the same name.
    """
    problems: list[str] = []
    for lane in lanes:
        self_sum = sum(rec[2] for rec in lane["spans"].values()) + lane["wait_s"]
        if abs(self_sum - lane["root_s"]) > 1e-6 * max(1.0, lane["root_s"]):
            problems.append(
                f"lane {lane['label']}: self + wait times {self_sum:.6f}s != "
                f"root spans {lane['root_s']:.6f}s")
    spans, counts = merge(lanes)

    def total(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0, 0.0))[0]

    out: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for name, (_, _, self_s) in spans.items():
        group = _group_of(name)
        if group is None:
            problems.append(f"span {name!r} belongs to no layer")
        else:
            out[group] += self_s
    other = (sum(wall - lane["root_s"] for lane in lanes[:timed])
             + sum(lane["wait_s"] for lane in lanes))
    lane_s = wall * timed + sum(lane["root_s"] for lane in lanes[timed:])
    accounted = sum(out[m] for m, _ in SELF_GROUPS) + other
    if abs(accounted - lane_s) > 1e-6 * max(1.0, lane_s):
        problems.append(f"self times + other = {accounted:.6f}s, "
                        f"lanes = {lane_s:.6f}s")

    for name in ("sim.events.fired", "sim.network.messages",
                 "faults.plan.dropped", "faults.transport.retries",
                 "faults.transport.acks", "parallel.cells",
                 "parallel.pool_starts", "parallel.batches",
                 "graphs.cache.csr_builds", "graphs.cache.np_builds",
                 "serve.store.bytes_read", "serve.store.bytes_written",
                 "graphs.shm.creates", "graphs.shm.attaches",
                 "graphs.shm.rebuilds", "graphs.shm.failures"):
        out[name] = counts.get(name, 0)
    out["faults.plan.fate_calls"] = calls("faults.plan.fate")
    transmits = calls("sim.network.transmit")
    delivered = calls("protocols.on_message") + calls("synch.on_message")
    out["faults.transport.useful_ratio"] = delivered / transmits if transmits else 0.0
    out["obs.recorder.events"] = calls("obs.recorder.record")
    out["parallel.cell_s"] = total("parallel.cell")
    dispatch = counts.get("parallel.run_parallel_s", 0.0)
    if nproc >= jobs and dispatch > 0:
        out["parallel.efficiency"] = out["parallel.cell_s"] / (jobs * dispatch)
    out["graphs.build_s"] = total("graphs.build")
    out["graphs.shm.publish_s"] = total("graphs.shm.publish")
    out["graphs.kernels.source_s"] = total("graphs.kernels.source")
    out["graphs.kernels.stripe_s"] = total("graphs.kernels.stripe")
    out["serve.store.get_s"] = total("serve.store.get")
    out["serve.store.put_s"] = total("serve.store.put")
    for kind in EXEC_KINDS:
        out[f"serve.executor.{kind}_s"] = total(f"serve.executor.{kind}")
    if "serve.client.request_s" in counts:
        out["serve.wire_s"] = (counts["serve.client.request_s"]
                               - counts.get("serve.service.submit_s", 0.0))
    out["trace.wall_s"] = wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead"] = wall / untraced_wall if untraced_wall else 0.0
    out["trace.other_s"] = other
    out["trace.lane_s"] = lane_s
    for name, value in (extra or {}).items():
        if name not in out:
            raise KeyError(f"unknown per-layer metric {name!r}")
        out[name] += value
    return out, problems

"""Workload ``protocol-suite``: the public protocol runners, back to back.

Eight runners on seeded random weighted graphs, untraced and fault-free,
in a fixed schedule of rounds.  A round runs each group-B runner
(SPT_recur, SPT_synch, MST_hybrid, SPT_hybrid) once and each group-A
runner (flood, DFS, GHS, MST_fast) a fixed number of times, chosen so
that the two groups take about the same time and each group-A runner
about an eighth of it.  Whole rounds repeat until ``--seconds`` of run time are
used, so the mix of runs never depends on the host's speed.  Delays are
drawn from the seed in pairs of runs, one ``MaximalDelay`` (many equal
timestamps) and one ``UniformDelay`` (distinct timestamps).

Every timing is scaled to the nominal host speed by reference samples
taken every ``REF_EVERY`` runs (see :class:`perfbench.common.HostSpeed`).

Operation: one protocol run.  Check: MST trees weigh the Kruskal weight
computed here, SPT trees reproduce the Dijkstra distances computed here,
flood and DFS trees span the graph.  The checks run after each run, on
trees of 256 vertices; the graph-sized oracles are computed in setup.
"""

from __future__ import annotations

import random
from typing import Any

from .common import (
    Ctx,
    HostSpeed,
    Outcome,
    adjacency,
    clock,
    derive,
    finish_traced,
    finish_untraced,
    geomean,
    median,
    mst_weight,
    peak_rss_mb,
    percentile,
    sssp,
    timed_first,
    typed_median,
)

#: ``a_reps``: runs of each group-A runner per round, multiples of 4.  At
#: n = 256 on a 2 GHz Xeon a run takes about 5 ms (flood), 15 ms (DFS) and
#: 45 ms (GHS, MST_fast); the group-B runs take 0.25 s (SPT_recur,
#: MST_hybrid), 0.8 s (SPT_synch) and 1.05 s (SPT_hybrid), so a round is
#: about 4.5 s, half of it in each group.
SIZES = {
    "full": {"n": 256, "extra": 256, "graphs": 4, "hook_reps": 5,
             "a_reps": {"flood": 112, "dfs": 36, "mst_ghs": 12, "mst_fast": 12}},
    "tiny": {"n": 24, "extra": 24, "graphs": 2, "hook_reps": 1,
             "a_reps": {"flood": 4, "dfs": 4, "mst_ghs": 4, "mst_fast": 4}},
}

GROUP_A = ("flood", "dfs", "mst_ghs", "mst_fast")
GROUP_B = ("spt_recur", "spt_synch", "mst_hybrid", "spt_hybrid")
#: Runners that start from one source vertex (counted by sources_per_s).
ROOTED = frozenset({"flood", "dfs", "spt_recur", "spt_synch", "mst_hybrid",
                    "spt_hybrid"})
#: Runs between two host-speed reference samples.
REF_EVERY = 16
CHECK = {"flood": "span", "dfs": "span", "mst_ghs": "mst", "mst_fast": "mst",
         "mst_hybrid": "mst", "spt_recur": "spt", "spt_synch": "spt",
         "spt_hybrid": "spt"}


def setup(ctx: Ctx) -> dict:
    from repro.graphs import diameter, random_connected_graph
    from repro.graphs.npkernels import kernel_backend

    from .ledger import install_run_counter

    install_run_counter()
    size = SIZES[ctx.size]
    t0 = clock()
    graphs = [random_connected_graph(size["n"], size["extra"],
                                     seed=derive(ctx.seed, "graph", i))
              for i in range(size["graphs"])]
    build_s = clock() - t0
    cases = []
    for i, g in enumerate(graphs):
        root = g.vertices[derive(ctx.seed, "root", i) % g.num_vertices]
        diameter(g)  # fill the parameter cache the SPT runners read
        cases.append({
            "graph": g,
            "root": root,
            "mst_weight": mst_weight(g) + (1 if ctx.plant and i == 0 else 0),
            "dist": sssp(adjacency(g), root),
        })
    kernel_backend()
    return {"cases": cases, "size": size, "build_s": build_s}


def teardown(state: dict) -> None:
    """Nothing outlives the process: no pool, no files."""


def _op(ctx: Ctx, name: str, index: int, n_graphs: int) -> tuple:
    """The ``index``-th run of runner ``name``: (name, graph, delay, seed).

    Runs pair up (0 and 1, 2 and 3, ...); the seed picks which run of a
    pair gets ``MaximalDelay``, and the other gets ``UniformDelay``.
    """
    rng = random.Random(derive(ctx.seed, "delay", name, index // 2))
    first, second = ("max", "uniform") if rng.random() < 0.5 else ("uniform", "max")
    delay = first if index % 2 == 0 else second
    return (name, index % n_graphs, delay, derive(ctx.seed, "sim", name, index))


def _round_ops(ctx: Ctx, r: int, size: dict) -> list[tuple]:
    """Round ``r`` of the schedule: each group-B run is followed by a
    quarter of the round's group-A runs."""
    reps, n_graphs = size["a_reps"], size["graphs"]
    ops = []
    for k, name in enumerate(GROUP_B):
        ops.append(_op(ctx, name, r, n_graphs))
        for a in GROUP_A:
            per = reps[a] // len(GROUP_B)
            ops.extend(_op(ctx, a, r * reps[a] + k * per + j, n_graphs)
                       for j in range(per))
    return ops


def _execute(case: dict, name: str, delay_kind: str, seed: int) -> Any:
    from repro import protocols as P
    from repro.sim.delays import MaximalDelay, UniformDelay

    g, root = case["graph"], case["root"]
    delay = MaximalDelay() if delay_kind == "max" else UniformDelay()
    if name == "flood":
        return P.run_flood(g, root, delay=delay, seed=seed)[1]
    if name == "dfs":
        return P.run_dfs(g, root, delay=delay, seed=seed)[1]
    if name == "mst_ghs":
        return P.run_mst_ghs(g, delay=delay, seed=seed)[1]
    if name == "mst_fast":
        return P.run_mst_fast(g, delay=delay, seed=seed)[1]
    if name == "spt_recur":
        return P.run_spt_recur(g, root, delay=delay, seed=seed)[1]
    if name == "spt_synch":
        return P.run_spt_synch(g, root, delay=delay, seed=seed)[1]
    if name == "mst_hybrid":
        return P.run_mst_hybrid(g, root, delay=delay, seed=seed).output
    return P.run_spt_hybrid(g, root, delay=delay, seed=seed).output


def _check(case: dict, name: str, tree: Any) -> bool:
    g = case["graph"]
    if tree is None or set(tree.vertices) != set(g.vertices):
        return False
    edges = list(tree.edges())
    if len(edges) != g.num_vertices - 1 or any(
            not g.has_edge(u, v) or g.weight(u, v) != w for u, v, w in edges):
        return False
    dist = sssp(adjacency(tree), case["root"])
    if len(dist) != g.num_vertices:
        return False
    kind = CHECK[name]
    if kind == "mst":
        return tree.total_weight() == case["mst_weight"]
    if kind == "spt":
        return dist == case["dist"]
    return True


def _run_op(state: dict, op: tuple) -> dict:
    from .ledger import lane_counts

    name, gi, delay_kind, seed = op
    case = state["cases"][gi]
    before = lane_counts()
    t0 = clock()
    tree = _execute(case, name, delay_kind, seed)
    dt = clock() - t0
    after = lane_counts()
    msgs = (after.get("sim.network.messages", 0)
            - before.get("sim.network.messages", 0))
    return {"name": name, "case": case, "tree": tree, "dt": dt, "msgs": msgs}


def run(ctx: Ctx) -> Outcome:
    state = setup(ctx)
    out = Outcome()
    if ctx.trace:
        _traced(ctx, state, out)
        return out
    times: dict[str, list[float]] = {name: [] for name in GROUP_A + GROUP_B}
    rates: dict[str, list[float]] = {name: [] for name in GROUP_A + GROUP_B}
    rounds: list[dict] = []
    busy = 0.0
    t_start = clock()
    while busy < ctx.seconds:
        speed = HostSpeed()
        results = []
        t_round = clock()
        for i, op in enumerate(_round_ops(ctx, len(rounds), state["size"])):
            if i % REF_EVERY == 0:
                t_ref = clock()
                speed.sample()
                t_round += clock() - t_ref  # reference time is not round time
            res = _run_op(state, op)
            results.append((res["name"], res["dt"], res["msgs"]))
            out.op(_check(res["case"], res["name"], res["tree"]),
                   f"{res['name']}: wrong or missing tree")
        round_wall = clock() - t_round
        speed.sample()
        scale = speed.scale()
        tally = {"scale": scale, "wall": round_wall * scale, "busy": 0.0,
                 "runs": len(results), "rooted": 0, "msgs": 0}
        for name, dt, msgs in results:
            busy += dt
            times[name].append(dt * scale)
            rates[name].append(msgs / (dt * scale))
            tally["busy"] += dt * scale
            tally["rooted"] += name in ROOTED
            tally["msgs"] += msgs
        rounds.append(tally)
    wall = clock() - t_start
    teardown(state)
    rss = peak_rss_mb()
    out.info.update({"rounds": rounds, "busy_s": busy, "wall_s": wall,
                     "runner_msgs_per_s": {k: median(v) for k, v in rates.items()}})
    finish_untraced(ctx, out, {
        "msgs_per_s": typed_median(rates),
        "cells_per_s": median([t["runs"] / t["busy"] for t in rounds]),
        "sources_per_s": median([t["rooted"] / t["busy"] for t in rounds]),
        "rps": median([t["runs"] / t["wall"] for t in rounds]),
        "hit_p50_ms": 1e3 * typed_median({k: times[k] for k in GROUP_A}),
        # GHS and MST_fast run only about 60 times in a run: each runner's
        # tail is its 90th percentile, combined over the group.
        "hit_p99_ms": 1e3 * geomean([percentile(times[k], 0.9) for k in GROUP_A]),
        "miss_p50_ms": 1e3 * typed_median({k: times[k] for k in GROUP_B}),
    }, rss)
    return out


def _pass(state: dict, ops: list[tuple], out: Outcome) -> tuple[float, list]:
    t0 = clock()
    results = [_run_op(state, op) for op in ops]
    wall = clock() - t0
    for res in results:
        out.op(_check(res["case"], res["name"], res["tree"]),
               f"{res['name']}: wrong or missing tree")
    return wall, results


def hook_ratios(graph: Any, reps: int) -> dict[str, float]:
    """Wall time of one GHS run with each optional Network hook armed alone,
    over the same run with every hook off (medians of ``reps`` runs)."""
    from repro.faults import FaultPlan
    from repro.obs import TraceRecorder
    from repro.protocols.mst_ghs import GhsProcess
    from repro.sim.network import Network

    n = graph.num_vertices
    arms = {
        "off": dict,
        "recorder": lambda: {"recorder": TraceRecorder()},
        "trace": lambda: {"trace": lambda *args: None},
        "faults": lambda: {"faults": FaultPlan()},
        "race": lambda: {"race_detect": "record"},
        "budget": lambda: {"comm_budget": float("1e18")},
    }
    times: dict[str, list[float]] = {k: [] for k in arms}
    messages: dict[str, set] = {k: set() for k in arms}
    for rep in range(reps):
        order = list(arms) if rep % 2 == 0 else list(reversed(arms))
        for key in order:
            kwargs = arms[key]()
            t0 = clock()
            net = Network(graph, lambda v: GhsProcess(False, n_total=n), **kwargs)
            result = net.run(stop_when=lambda nw: nw.all_finished)
            times[key].append(clock() - t0)
            if not net.all_finished:
                raise RuntimeError(f"GHS did not finish with hook {key!r}")
            messages[key].add(result.message_count)
    if len(set().union(*messages.values())) != 1:
        raise RuntimeError(f"hooks changed the GHS run: {messages}")
    base = median(times["off"])
    return {k: median(times[k]) / base for k in arms if k != "off"}


def _traced(ctx: Ctx, state: dict, out: Outcome) -> None:
    from .ledger import LEDGER, install

    ops = _round_ops(ctx, 0, state["size"])
    untraced_wall, results = _pass(state, ops, out)
    per_runner: dict[str, list[float]] = {}
    for res in results:
        acc = per_runner.setdefault(res["name"], [0, 0.0])
        acc[0] += res["msgs"]
        acc[1] += res["dt"]
    ratios = hook_ratios(state["cases"][0]["graph"], state["size"]["hook_reps"])
    LEDGER.drain()
    install()
    wall, _ = _pass(state, ops, out)
    extra = {f"sim.network.hook_ratio.{k}": v for k, v in ratios.items()}
    extra.update({f"protocols.{name}.msgs_per_s": m / t
                  for name, (m, t) in per_runner.items()})
    extra["graphs.build_s"] = state["build_s"]
    lanes = timed_first(LEDGER.lane_data(), ("MainThread",))
    out.info.update({"runs": len(ops), "untraced_wall_s": untraced_wall})
    finish_traced(ctx, out, lanes, timed=1, wall=wall,
                  untraced_wall=untraced_wall, extra=extra)

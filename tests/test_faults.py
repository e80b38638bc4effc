"""Unit tests for the fault subsystem: plans, crashes, reliable transport."""

import pytest

from repro.faults import (
    ACK_TAG,
    RETRY_TAG,
    CorruptedPayload,
    CrashWindow,
    FaultPlan,
    ReliableProcess,
    reliable_factory,
    reliability_overhead,
    run_chaos,
)
from repro.graphs import WeightedGraph, path_graph, random_connected_graph
from repro.protocols.broadcast import FloodProcess, run_flood
from repro.protocols.mst_ghs import run_mst_ghs
from repro.sim import MaxEventsExceeded, Network, Process


# --------------------------------------------------------------------- #
# FaultPlan construction and validation
# --------------------------------------------------------------------- #


def test_plan_validates_probabilities():
    with pytest.raises(ValueError):
        FaultPlan(drop=1.5)
    with pytest.raises(ValueError):
        FaultPlan(corrupt=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(reorder_bound=-1.0)


def test_plan_validates_crash_windows():
    with pytest.raises(ValueError):
        FaultPlan(crashes=[(0, 10.0, 5.0)])
    with pytest.raises(ValueError):
        FaultPlan(crashes=[(0, -5.0, 3.0)])
    plan = FaultPlan(crashes=[(0, 5.0, 10.0)])
    assert plan.crashes[0] == CrashWindow(0, 5.0, 10.0)


def test_crash_window_for_unknown_node_rejected():
    g = path_graph(2)
    net = Network(g, lambda v: FloodProcess(v == 0),
                  faults=FaultPlan(crashes=[(99, 0.0, 1.0)]))
    with pytest.raises(ValueError):
        net.run()


def test_random_crashes_constructor_is_deterministic_and_spares():
    nodes = list(range(10))
    a = FaultPlan.random_crashes(nodes, count=3, horizon=50.0,
                                 downtime=5.0, seed=4, spare={0})
    b = FaultPlan.random_crashes(nodes, count=3, horizon=50.0,
                                 downtime=5.0, seed=4, spare={0})
    assert a.crashes == b.crashes
    assert len(a.crashes) == 3
    assert all(cw.node != 0 for cw in a.crashes)
    with pytest.raises(ValueError):
        FaultPlan.random_crashes(nodes, count=11, horizon=1.0, downtime=1.0)


# --------------------------------------------------------------------- #
# Message faults on the raw network
# --------------------------------------------------------------------- #


class Recorder(Process):
    """Counts deliveries; node 0 sends ``burst`` messages to node 1."""

    def __init__(self, burst=0):
        self.burst = burst
        self.received = []

    def on_start(self):
        for i in range(self.burst):
            self.send(1, i, tag="burst")

    def on_message(self, frm, payload):
        self.received.append(payload)


def test_scripted_drop_loses_exactly_the_chosen_transmission():
    g = WeightedGraph([(0, 1, 2.0)])
    plan = FaultPlan(script=lambda u, v, i: "drop" if i == 1 else "deliver")
    net = Network(g, lambda v: Recorder(burst=3 if v == 0 else 0),
                  faults=plan)
    result = net.run()
    assert net.processes[1].received == [0, 2]
    # The dropped transmission still cost w(e): the sender paid for it.
    assert result.comm_cost == 6.0
    assert result.metrics.fault_counts["drop"] == 1


def test_duplicate_delivers_twice_but_costs_once():
    g = WeightedGraph([(0, 1, 3.0)])
    plan = FaultPlan(script=lambda u, v, i: "duplicate")
    net = Network(g, lambda v: Recorder(burst=1 if v == 0 else 0),
                  faults=plan)
    result = net.run()
    assert net.processes[1].received == [0, 0]
    assert result.comm_cost == 3.0  # network duplicates are free
    assert result.message_count == 1


def test_corrupt_wraps_payload():
    g = WeightedGraph([(0, 1, 1.0)])
    plan = FaultPlan(script=lambda u, v, i: "corrupt")
    net = Network(g, lambda v: Recorder(burst=1 if v == 0 else 0),
                  faults=plan)
    net.run()
    (got,) = net.processes[1].received
    assert isinstance(got, CorruptedPayload)
    assert got.original == 0


def test_reorder_can_violate_fifo_within_bound():
    g = WeightedGraph([(0, 1, 4.0)])
    # First transmission is held back by a reorder, the second sails through.
    plan = FaultPlan(
        script=lambda u, v, i: "reorder" if i == 0 else "deliver",
        reorder=1.0, reorder_bound=1.0, seed=3,
    )
    net = Network(g, lambda v: Recorder(burst=2 if v == 0 else 0),
                  faults=plan)
    net.run()
    received = net.processes[1].received
    assert sorted(received) == [0, 1]
    assert received == [1, 0]  # overtaken: FIFO violated, detectably


def test_edge_filter_restricts_faults():
    g = path_graph(3)
    plan = FaultPlan(drop=1.0, edges=[(1, 2)], seed=0)
    result, _tree = run_flood(g, 0, faults=plan)
    # Edge (0,1) is clean, so node 1 hears the flood; (1,2) eats everything.
    assert result.processes[1].ctx.is_finished
    assert not result.processes[2].ctx.is_finished
    assert result.status == "quiescent"


# --------------------------------------------------------------------- #
# Crash / recover semantics
# --------------------------------------------------------------------- #


def test_messages_to_crashed_node_are_lost_and_timers_deferred():
    g = WeightedGraph([(0, 1, 1.0)])
    fired = []

    class TimerNode(Process):
        def on_start(self):
            if self.node_id == 1:
                self.set_timer(2.0, lambda: fired.append(self.now))

    plan = FaultPlan(crashes=[(1, 0.0, 10.0)])
    net = Network(g, lambda v: TimerNode(), faults=plan)
    net.run()
    # The timer expired at t=2 during the outage; it fired at recovery.
    assert fired == [10.0]


def test_crashed_node_drops_deliveries_and_recovers_with_state():
    g = path_graph(3)
    # Node 1 is down while the flood happens, up again later; without a
    # transport the flood dies at node 1 — detectably (stall).
    plan = FaultPlan(crashes=[CrashWindow(1, 0.0, 100.0)])
    result, _ = run_flood(g, 0, faults=plan)
    assert not result.processes[1].ctx.is_finished
    assert result.metrics.fault_counts["lost_in_crash"] >= 1
    assert result.metrics.fault_counts["crash"] == 1
    assert result.metrics.fault_counts["recover"] == 1


def test_reliable_transport_rides_out_a_crash_window():
    g = path_graph(3)
    plan = FaultPlan(crashes=[CrashWindow(1, 0.0, 100.0)])
    result, tree = run_flood(g, 0, faults=plan, reliable=True)
    assert all(p.ctx.is_finished for p in result.processes.values())
    assert tree.is_tree()
    # Completion had to wait for the recovery.
    assert result.metrics.last_finish_time >= 100.0


def test_on_recover_hook_called():
    g = path_graph(2)
    recovered = []

    class Hooked(Process):
        def on_recover(self):
            recovered.append(self.node_id)

    plan = FaultPlan(crashes=[(1, 1.0, 5.0)])
    net = Network(g, lambda v: Hooked(), faults=plan)
    net.run()
    assert recovered == [1]


# --------------------------------------------------------------------- #
# Reliable transport mechanics
# --------------------------------------------------------------------- #


def test_transport_validates_options():
    with pytest.raises(ValueError):
        ReliableProcess(Recorder(), timeout_factor=2.0)
    with pytest.raises(ValueError):
        ReliableProcess(Recorder(), max_retries=0)


def test_fault_free_transport_never_retransmits():
    g = random_connected_graph(10, 14, seed=1)
    result, _ = run_flood(g, g.vertices[0], reliable=True)
    m = result.metrics
    assert m.count_by_tag.get(RETRY_TAG, 0) == 0
    assert m.count_by_tag.get(ACK_TAG, 0) > 0
    overhead = reliability_overhead(m)
    assert overhead["retry_cost"] == 0.0
    assert overhead["total_overhead"] == overhead["ack_cost"]


def test_retransmission_recovers_scripted_loss_and_is_tagged():
    g = WeightedGraph([(0, 1, 5.0)])
    # Drop the first data transmission on (0, 1); the retry gets through.
    plan = FaultPlan(script=lambda u, v, i: "drop" if (u, v) == (0, 1)
                     and i == 0 else "deliver")
    factory = reliable_factory(
        lambda v: FloodProcess(v == 0, "x"), timeout_factor=2.5
    )
    net = Network(g, factory, faults=plan)
    result = net.run()
    assert net.processes[1].ctx.is_finished
    m = result.metrics
    assert m.count_by_tag[RETRY_TAG] == 1
    # Cost-sensitive accounting: the retry cost another w(e) = 5.
    assert m.cost_by_tag[RETRY_TAG] == 5.0


def test_transport_discards_corrupted_frames_and_recovers():
    g = WeightedGraph([(0, 1, 2.0)])
    plan = FaultPlan(script=lambda u, v, i: "corrupt" if (u, v) == (0, 1)
                     and i == 0 else "deliver")
    result, _ = run_flood(g, 0, faults=plan, reliable=True)
    proc = result.processes[1]
    assert proc.ctx.is_finished
    assert proc.payload == "wake-up"  # the clean retransmission, not garbage
    assert result.metrics.count_by_tag[RETRY_TAG] >= 1


def test_transport_suppresses_duplicates_and_restores_fifo():
    g = WeightedGraph([(0, 1, 4.0)])
    plan = FaultPlan(
        script=lambda u, v, i: ("reorder" if i == 0 else "duplicate")
        if (u, v) == (0, 1) else "deliver",
        reorder_bound=1.0, seed=3,
    )
    factory = reliable_factory(lambda v: Recorder(burst=2 if v == 0 else 0))
    net = Network(g, factory, faults=plan)
    net.run()
    inner = net.processes[1].inner
    assert inner.received == [0, 1]  # exactly once each, in send order


def test_transport_gives_up_after_max_retries():
    g = WeightedGraph([(0, 1, 1.0)])
    plan = FaultPlan(drop=1.0, edges=[(0, 1)], seed=0)
    factory = reliable_factory(lambda v: FloodProcess(v == 0, "x"),
                               max_retries=3, max_backoff_doublings=1)
    net = Network(g, factory, faults=plan)
    result = net.run()
    assert net.processes[0].gave_up
    assert not net.processes[1].ctx.is_finished
    assert result.metrics.count_by_tag[RETRY_TAG] == 3
    assert result.status == "quiescent"  # drained, not hung


def test_wrapper_delegates_inner_attributes():
    g = path_graph(3)
    result, tree = run_flood(g, 0, reliable=True)
    # run_flood reads proc.parent through the wrapper to build the tree.
    assert tree.is_tree()
    proc = result.processes[1]
    assert isinstance(proc, ReliableProcess)
    assert proc.parent == 0  # delegated to the inner FloodProcess
    with pytest.raises(AttributeError):
        proc.no_such_attribute


# --------------------------------------------------------------------- #
# Determinism (acceptance criterion)
# --------------------------------------------------------------------- #


def test_identical_plan_and_seed_replay_exactly():
    g = random_connected_graph(12, 18, seed=5)

    def one_run():
        plan = FaultPlan(drop=0.15, duplicate=0.05, corrupt=0.05,
                         reorder=0.05, seed=21)
        result, tree = run_mst_ghs(g, faults=plan, reliable=True, seed=3)
        edges = (sorted(map(sorted, tree.edges()))
                 if tree is not None else None)
        return result.metrics.summary(), edges

    first, second = one_run(), one_run()
    assert first == second


def test_shared_plan_instance_replays_via_reset():
    g = path_graph(4)
    plan = FaultPlan(script=lambda u, v, i: "drop" if i == 0 else "deliver")
    r1, _ = run_flood(g, 0, faults=plan, reliable=True)
    r2, _ = run_flood(g, 0, faults=plan, reliable=True)
    assert r1.metrics.summary() == r2.metrics.summary()


# --------------------------------------------------------------------- #
# RunResult status surfacing (satellite)
# --------------------------------------------------------------------- #


class Chain(Process):
    def on_start(self):
        if self.node_id == 0:
            self.send(1, "tok")

    def on_message(self, frm, payload):
        nxt = self.node_id + 1
        if nxt in self.ctx.weights:
            self.send(nxt, payload)
        else:
            self.finish("end")


def test_run_result_status_budget():
    g = path_graph(6, weight=10.0)
    result = Network(g, lambda v: Chain(), comm_budget=30.0).run()
    assert result.status == "budget_exhausted"
    assert result.aborted


def test_run_result_status_max_time_no_event_past_deadline():
    class Ticker(Process):
        def on_start(self):
            if self.node_id == 0:
                self.send(1, 0)

        def on_message(self, frm, k):
            self.send(frm, k + 1)

    g = WeightedGraph([(0, 1, 2.0)])
    result = Network(g, lambda v: Ticker()).run(max_time=19.0)
    assert result.status == "max_time"
    assert result.aborted
    # Off-by-one fixed: the event at t=20 never ran.
    assert result.time <= 19.0


def test_run_result_status_max_time_inclusive_at_deadline():
    g = WeightedGraph([(0, 1, 2.0)])
    net = Network(g, lambda v: Chain())
    result = net.run(max_time=2.0)  # delivery at exactly t=2 still runs
    assert result.time == 2.0


def test_run_result_status_stopped_and_quiescent():
    g = path_graph(3)
    quiescent = Network(g, lambda v: Chain()).run()
    assert quiescent.status == "quiescent"
    assert not quiescent.aborted
    stopped = Network(g, lambda v: Chain()).run(
        stop_when=lambda n: n.metrics.message_count >= 1
    )
    assert stopped.status == "stopped"
    assert not stopped.aborted


# --------------------------------------------------------------------- #
# Chaos runner classification
# --------------------------------------------------------------------- #


def test_run_chaos_classifies_wrong_answers():
    g = path_graph(3)
    out = run_chaos(g, lambda v: FloodProcess(v == 0, "x"), reliable=False,
                    answer=lambda r: "not-it", expect="the-answer")
    assert out.status == "wrong"
    assert out.silent_failure


def test_run_chaos_timeout_is_detectable():
    class Ticker(Process):
        def on_start(self):
            self.send(self.neighbors()[0], 0)

        def on_message(self, frm, k):
            self.send(frm, k + 1)

    g = WeightedGraph([(0, 1, 1.0)])
    out = run_chaos(g, lambda v: Ticker(), reliable=False,
                    watchdog_time=50.0)
    assert out.status == "timeout"
    assert out.detectable_failure


def test_run_chaos_event_storm_reported_not_raised():
    class Storm(Process):
        def on_start(self):
            self.send(self.neighbors()[0], 0)

        def on_message(self, frm, payload):
            self.send(frm, payload)

    g = WeightedGraph([(0, 1, 1.0)])
    out = run_chaos(g, lambda v: Storm(), reliable=False, max_events=100)
    assert out.status == "timeout"
    assert out.error is not None


def test_run_chaos_error_is_detectable():
    class Fragile(Process):
        def on_start(self):
            if self.node_id == 0:
                self.send(1, ("tagged", 1))

        def on_message(self, frm, payload):
            assert payload[0] == "tagged"  # blows up on corrupted frames

    g = path_graph(2)
    plan = FaultPlan(corrupt=1.0, seed=0)
    out = run_chaos(g, lambda v: Fragile(), plan=plan, reliable=False)
    assert out.status == "error"
    assert out.detectable_failure


class _Failing(Process):
    """Sends to every neighbour at start; its handler then fails by
    ``how`` (``"storm"`` echoes every message back forever)."""

    def __init__(self, how):
        self.how = how

    def on_start(self):
        for v in self.neighbors():
            self.send(v, 0)

    def on_message(self, frm, payload):
        if self.how == "not_implemented":
            raise NotImplementedError("no handler for this payload")
        if self.how == "recursion":
            self.on_message(frm, payload)
        if self.how == "value":
            raise ValueError("bad payload")
        self.send(frm, payload)


@pytest.mark.parametrize("how, status, error", [
    # RuntimeError subclasses a handler raises are errors, not hangs.
    ("not_implemented", "error",
     "NotImplementedError: no handler for this payload"),
    ("recursion", "error", "RecursionError: maximum recursion depth"),
    ("value", "error", "ValueError: bad payload"),
    ("storm", "timeout", "exceeded 500 events"),
])
def test_run_chaos_times_out_only_on_the_event_backstop(how, status, error):
    g = random_connected_graph(8, 6, seed=1)
    out = run_chaos(g, lambda v: _Failing(how), reliable=False,
                    max_events=500)
    assert out.status == status
    assert out.error.startswith(error)
    assert out.detectable_failure


@pytest.mark.parametrize("stop_when", [None, lambda net: False],
                         ids=["drain", "step"])
def test_max_events_raises_the_backstop_exception(stop_when):
    assert issubclass(MaxEventsExceeded, RuntimeError)
    net = Network(random_connected_graph(8, 6, seed=1),
                  lambda v: _Failing("storm"))
    with pytest.raises(MaxEventsExceeded, match="exceeded 500 events"):
        net.run(max_events=500, stop_when=stop_when)
    assert net.queue.fired == 500

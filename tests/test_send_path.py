"""The send path a Network chooses at construction, and how runs stop.

A hook-free run (no faults, recorder, trace callback, race detector or
serialized channels) sends through a lean branch of
``Network._transmit``; any armed hook selects the general branch.  The
differential tests here run the same protocols both ways and require
identical metrics, event counts, statuses and per-node results.  Under
faults every run takes the general branch; there a run with an
aggregates-only recorder must match one without it in the same way.

``Network.run(stop_when=all_finished)`` halts the queue's fast drain
loop from the last ``finish()``; any other predicate is polled before
every event.  The stop-semantics tests require both to end every kind of
run the same way.

A run the communication budget stopped holds the refused send; run again
under a larger budget, it must end exactly as a fresh run at that budget.
The resume tests compare the two at every stop.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.chaos import make_cases
from repro.faults import FaultPlan, reliable_factory
from repro.graphs import WeightedGraph, path_graph, random_connected_graph
from repro.graphs.paths import diameter
from repro.obs import TraceRecorder
from repro.protocols.broadcast import FloodProcess
from repro.protocols.dfs import DfsProcess
from repro.protocols.max_consensus import SyncMaxConsensus
from repro.protocols.mst_ghs import GhsProcess
from repro.protocols.spt_recur import StripBfsProcess, unit_expansion
from repro.sim import (
    MaximalDelay,
    Network,
    Process,
    ScaledDelay,
    UniformDelay,
    all_finished,
)
from repro.sim.network import _GENERAL
from repro.synch.gamma_w import GammaWConfig, GammaWHost

# --------------------------------------------------------------------- #
# Lean branch == general branch
# --------------------------------------------------------------------- #

GRAPH = random_connected_graph(14, 12, seed=5)


def _flood():
    return GRAPH, lambda v: FloodProcess(v == GRAPH.vertices[0], "x"), None


def _dfs():
    return GRAPH, lambda v: DfsProcess(v == GRAPH.vertices[0]), None


def _ghs(parallel_scan):
    def case():
        n = GRAPH.num_vertices
        return (GRAPH, lambda v: GhsProcess(parallel_scan, n_total=n),
                all_finished)
    return case


def _strip_bfs():
    expanded, _ = unit_expansion(GRAPH)
    stride = max(1, math.ceil(math.sqrt(diameter(GRAPH))))
    n = expanded.num_vertices
    source = GRAPH.vertices[0]
    return (expanded, lambda v: StripBfsProcess(v == source, stride, n),
            all_finished)


def _gamma_w():
    g = random_connected_graph(8, 6, seed=3)
    cfg = GammaWConfig(g, k=2)
    stop = int(diameter(g)) + 1
    w_max = int(max(w for _u, _v, w in g.edges()))
    max_pulse = 4 * (stop + 1) + 4 * w_max + 8

    def factory(v):
        return GammaWHost(v, cfg, lambda u: SyncMaxConsensus(u, stop),
                          max_pulse)

    return cfg.normalized, factory, all_finished


PROTOCOLS = {
    "flood": _flood,
    "dfs": _dfs,
    "ghs": _ghs(False),
    "ghs_parallel_scan": _ghs(True),
    "strip_bfs": _strip_bfs,
    "gamma_w": _gamma_w,
}

DELAYS = {
    "maximal": MaximalDelay,
    "uniform": UniformDelay,
    "scaled": lambda: ScaledDelay(0.5),
}

HOOKS = {
    "recorder": lambda: {"recorder": TraceRecorder(limit=0)},
    "trace": lambda: {"trace": lambda *args: None},
}


def _node_state(proc):
    """What a run leaves at one node, beyond its finish() result."""
    if isinstance(proc, GammaWHost):
        return proc.wrapper.inner_result
    if isinstance(proc, StripBfsProcess):
        return (proc.parent, proc.dist)
    if isinstance(proc, GhsProcess):
        return sorted(proc._branch_edges(), key=repr)
    return getattr(proc, "parent", None)


def _observe(protocol, delay, budget=None, *, polled=False, **hooks):
    graph, factory, stop_when = PROTOCOLS[protocol]()
    if polled and stop_when is all_finished:
        stop_when = lambda n: n.all_finished  # polled by the step loop
    net = Network(graph, factory, delay=DELAYS[delay](), seed=11,
                  comm_budget=budget, **hooks)
    return net, _summary(net, net.run(stop_when=stop_when))


def _summary(net, result):
    return {
        "metrics": result.metrics.as_dict(),
        "fired": net.queue.fired,
        "status": result.status,
        "results": [(repr(v), repr(r)) for v, r in result.results().items()],
        "state": [(repr(v), repr(_node_state(p)))
                  for v, p in result.processes.items()],
    }


@pytest.mark.parametrize("hook", sorted(HOOKS))
@pytest.mark.parametrize("delay", sorted(DELAYS))
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_lean_branch_matches_general_branch(protocol, delay, hook):
    lean_net, lean = _observe(protocol, delay)
    hooked_net, hooked = _observe(protocol, delay, **HOOKS[hook]())
    assert lean_net._send_path != _GENERAL
    assert hooked_net._send_path == _GENERAL
    assert lean["metrics"]["message_count"] > 0
    assert lean == hooked
    # The general branch under the per-event loop, as before the halting
    # stop existed, ends the same way too.
    assert lean == _observe(protocol, delay, polled=True, **HOOKS[hook]())[1]

    # A budget of half the full cost runs out mid-run on both branches.
    budget = lean["metrics"]["comm_cost"] / 2
    _, lean = _observe(protocol, delay, budget)
    _, hooked = _observe(protocol, delay, budget, **HOOKS[hook]())
    assert lean["status"] == "budget_exhausted"
    assert 0 < lean["metrics"]["comm_cost"] <= budget
    assert lean == hooked
    assert lean == _observe(protocol, delay, budget, polled=True,
                            **HOOKS[hook]())[1]


# --------------------------------------------------------------------- #
# Recording is observe-only on the hooked path
# --------------------------------------------------------------------- #

MATRIX = {case.name: case for case in make_cases()}


def _observe_faulted(protocol, delay, reliable, recorder=None):
    case = MATRIX[protocol]
    factory = reliable_factory(case.factory) if reliable else case.factory
    net = Network(case.graph, factory, delay=DELAYS[delay](), seed=11,
                  faults=FaultPlan.message_loss(0.2, seed=7),
                  recorder=recorder)
    result = net.run(max_time=1e6)
    return net, {
        "metrics": result.metrics.as_dict(),
        "fired": net.queue.fired,
        "status": result.status,
        "results": [(repr(v), repr(r)) for v, r in result.results().items()],
    }


@pytest.mark.parametrize("reliable", [True, False], ids=["reliable", "raw"])
@pytest.mark.parametrize("delay", ["maximal", "uniform"])
@pytest.mark.parametrize("protocol", sorted(MATRIX))
def test_recorder_is_observe_only_under_faults(protocol, delay, reliable):
    _, plain = _observe_faulted(protocol, delay, reliable)
    net, traced = _observe_faulted(protocol, delay, reliable,
                                   TraceRecorder(limit=0))
    assert plain["metrics"]["fault_counts"]["drop"] > 0
    if reliable:
        assert plain["metrics"]["count_by_tag"]["rel-ack"] > 0
        assert net.recorder.count_by_span["rel-ack"] > 0
    assert plain == traced


@pytest.mark.parametrize("hooks", [
    {"faults": object()},
    {"serialize": True},
    {"race_detect": "record"},
    {"recorder": TraceRecorder(limit=0)},
    {"trace": lambda *args: None},
], ids=["faults", "serialize", "race", "recorder", "trace"])
def test_any_hook_selects_the_general_branch(hooks):
    net = Network(path_graph(3), lambda v: Process(), **hooks)
    assert net._send_path == _GENERAL


def test_budget_alone_keeps_the_lean_branch():
    net = Network(path_graph(3), lambda v: Process(), comm_budget=1.0)
    assert net._send_path != _GENERAL


class _Once(Process):
    def on_start(self):
        if self.node_id == 0:
            self.send(1, "x")


def test_lean_uniform_delay_keeps_its_range_check():
    delay = UniformDelay()
    delay.lo = delay.hi = 1.5  # out of range: every draw exceeds w(e)
    for hooks in ({}, {"trace": lambda *args: None}):
        net = Network(path_graph(2), lambda v: _Once(), delay=delay, **hooks)
        with pytest.raises(ValueError, match="outside"):
            net.run()


def test_lean_branch_honours_a_delay_model_subclass():
    class Instant(UniformDelay):
        def delay(self, u, v, weight, rng):
            return 0.0

    net = Network(path_graph(2), lambda v: _Once(), delay=Instant())
    assert net._send_path != _GENERAL
    assert net.run().time == 0.0


# --------------------------------------------------------------------- #
# A budget exhausted during on_start
# --------------------------------------------------------------------- #


class _OverspendAtStart(Process):
    """Node 0 sends to 1 and 2 at start (the second send overspends);
    node 1 forwards what it receives to 3."""

    def on_start(self):
        if self.node_id == 0:
            self.send(1, "a")
            self.send(2, "b")

    def on_message(self, frm, payload):
        if self.node_id == 1:
            self.send(3, payload)


@pytest.mark.parametrize("stop_when", [None, all_finished, lambda n: False],
                         ids=["fast", "halting", "step"])
def test_budget_exhausted_in_on_start_fires_no_event(stop_when):
    g = WeightedGraph([(0, 1, 5), (0, 2, 5), (1, 3, 1)])
    net = Network(g, lambda v: _OverspendAtStart(), comm_budget=6)
    result = net.run(stop_when=stop_when)
    assert result.status == "budget_exhausted"
    assert net.queue.fired == 0
    assert result.message_count == 1
    assert result.comm_cost == 5.0


# --------------------------------------------------------------------- #
# A budget-stopped run resumed under a larger budget == a fresh run there
# --------------------------------------------------------------------- #

MODES = {"lean": dict, **HOOKS}
_FULL_COST: dict = {}


def _full_cost(protocol, delay):
    if (protocol, delay) not in _FULL_COST:
        summary = _observe(protocol, delay)[1]
        _FULL_COST[protocol, delay] = summary["metrics"]["comm_cost"]
    return _FULL_COST[protocol, delay]


@settings(max_examples=60, deadline=None)
@given(protocol=st.sampled_from(sorted(PROTOCOLS)),
       delay=st.sampled_from(sorted(DELAYS)),
       mode=st.sampled_from(sorted(MODES)),
       polled=st.booleans(),
       shares=st.lists(st.floats(0.0, 1.1), min_size=2, max_size=4,
                       unique=True).map(sorted))
def test_a_resumed_run_matches_a_fresh_run_at_every_stop(
        protocol, delay, mode, polled, shares):
    full = _full_cost(protocol, delay)
    graph, factory, stop_when = PROTOCOLS[protocol]()
    if polled and stop_when is all_finished:
        stop_when = lambda n: n.all_finished
    net = Network(graph, factory, delay=DELAYS[delay](), seed=11,
                  **MODES[mode]())
    for share in shares:
        budget = share * full
        net.comm_budget = budget
        resumed = _summary(net, net.run(stop_when=stop_when))
        fresh = _observe(protocol, delay, budget, polled=polled,
                         **MODES[mode]())[1]
        assert resumed == fresh
        if resumed["status"] != "budget_exhausted":
            break
        assert resumed["metrics"]["comm_cost"] <= budget


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("stop_when", [None, all_finished, lambda n: False],
                         ids=["fast", "halting", "step"])
def test_a_refusal_in_on_start_resumes(stop_when, mode):
    # Budget 6 stops in on_start, 10 in node 1's forward, 11 completes.
    g = WeightedGraph([(0, 1, 5), (0, 2, 5), (1, 3, 1)])
    net = Network(g, lambda v: _OverspendAtStart(), comm_budget=6,
                  **MODES[mode]())
    statuses = []
    for budget in (6, 10, 11):
        net.comm_budget = budget
        resumed = _summary(net, net.run(stop_when=stop_when))
        fresh_net = Network(g, lambda v: _OverspendAtStart(),
                            comm_budget=budget, **MODES[mode]())
        assert resumed == _summary(fresh_net,
                                   fresh_net.run(stop_when=stop_when))
        statuses.append((resumed["status"], resumed["fired"]))
    # At 10 the drain stops inside the t = 5 batch (delivery to node 2
    # still queued), and resuming fires the rest of that batch first.
    assert statuses == [("budget_exhausted", 0), ("budget_exhausted", 1),
                        ("quiescent", 3)]


class _Fan(Process):
    """Node 1 answers node 0's message with one send to every other
    neighbor and then a timer that pings node 0; the leaves answer node 1.
    Every handler appends to the log the factory shares."""

    def __init__(self, log):
        self.log = log

    def on_start(self):
        if self.node_id == 0:
            self.send(1, "go")

    def on_message(self, frm, payload):
        self.log.append((self.now, self.node_id, frm, payload))
        if self.node_id == 1 and payload == "go":
            for v in self.neighbors():
                if v != frm:
                    self.send(v, "fan")
            self.set_timer(2.0, self._tick)
        elif self.node_id > 1:
            self.send(1, "back")

    def _tick(self):
        self.log.append((self.now, self.node_id, "tick"))
        self.send(0, "tick")


def _fan(delay, mode, budget=None):
    g = WeightedGraph([(0, 1, 1), (1, 2, 2), (1, 3, 1), (1, 4, 3)])
    log = []
    net = Network(g, lambda v: _Fan(log), delay=DELAYS[delay](), seed=3,
                  comm_budget=budget, **MODES[mode]())
    return net, log


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("delay", ["maximal", "uniform"])
def test_one_events_sends_cross_two_budgets(delay, mode):
    # Node 1's fan costs 2, 1 and 3 after the first hop's 1.  At budget 2
    # the first fan send is refused and the second (which fits) is held
    # and charged; at 4 the third is refused again, in the same event's
    # re-sent sends; at 100 the run completes.  The timer set after the
    # held sends fires at t = 3 with the delivery to node 2 under
    # MaximalDelay, after it, as in a fresh run.
    net, log = _fan(delay, mode)
    charged = []
    for budget in (2, 4, 100):
        net.comm_budget = budget
        resumed = _summary(net, net.run())
        fresh, fresh_log = _fan(delay, mode, budget)
        assert (resumed, log) == (_summary(fresh, fresh.run()), fresh_log)
        charged.append((resumed["status"], resumed["metrics"]["comm_cost"],
                        resumed["metrics"]["message_count"]))
    assert charged == [("budget_exhausted", 2.0, 2),
                       ("budget_exhausted", 4.0, 3),
                       ("quiescent", 14.0, 8)]


def test_a_held_send_is_recorded_when_it_is_sent():
    net, _log = _fan("maximal", "recorder", budget=2)
    rec = net.recorder
    net.run()
    # Charged: the first hop and the held send that fits; sent: the hop.
    assert net.metrics.message_count == 2
    assert rec.counts["send"] == 1
    net.comm_budget = None
    net.run()
    assert rec.counts["send"] == net.metrics.message_count == 8
    assert rec.meta["events_fired"] == net.queue.fired


# --------------------------------------------------------------------- #
# stop_when=all_finished == stop_when=lambda n: n.all_finished
# --------------------------------------------------------------------- #


class _Relay(Process):
    """Every node finishes when the token reaches it and passes it on.

    ``extra`` more tokens follow the first one down the path; the last
    node optionally tries an over-budget send in its finishing event.
    """

    def __init__(self, last, extra=0, overspend=False):
        self.last = last
        self.extra = extra
        self.overspend = overspend

    def on_start(self):
        if self.node_id == 0:
            self.finish("root")
            for k in range(1 + self.extra):
                self.send(1, k)

    def on_message(self, frm, payload):
        self.finish(frm)
        if self.node_id < self.last:
            self.send(self.node_id + 1, payload)
        elif self.overspend:
            self.send(frm, "too much")


class _FinishAtStart(Process):
    def on_start(self):
        self.finish("start")
        if self.node_id == 0:
            self.send(1, "pending")


class _Star(Process):
    """The hub finishes at start and sends two waves to every leaf; a leaf
    finishes on its first message.  The last leaf finishes in the middle
    of a same-time batch, with the second wave still queued."""

    def on_start(self):
        if self.node_id == 0:
            self.finish("hub")
            for wave in range(2):
                for v in self.neighbors():
                    self.send(v, wave)

    def on_message(self, frm, payload):
        self.finish(payload)


def _star(k):
    return WeightedGraph([(0, v, 1.0) for v in range(1, k + 1)])


def _outcome(graph, factory, stop_when, budget=None, **run_kwargs):
    net = Network(graph, factory, comm_budget=budget)
    try:
        status = net.run(stop_when=stop_when, **run_kwargs).status
    except RuntimeError as exc:
        assert "exceeded" in str(exc)
        status = "raised"
    m = net.metrics
    return (status, net.queue.fired, m.message_count, m.comm_cost,
            m.completion_time, net.all_finished)


# name -> (graph, factory, run and budget kwargs, (status, fired events))
STOP_CASES = {
    # The finishing event is the last one in the queue.
    "quiescent": (path_graph(5), lambda v: _Relay(4), {}, ("quiescent", 4)),
    # Every node finishes in on_start with a delivery still pending.
    "finished_at_start": (path_graph(3), lambda v: _FinishAtStart(), {},
                          ("stopped", 0)),
    # The finishing event halts the drain with events still pending ...
    "stopped": (path_graph(5), lambda v: _Relay(4, extra=2), {},
                ("stopped", 10)),
    # ... in the middle of a same-time batch.
    "stopped_mid_batch": (_star(6), lambda v: _Star(), {}, ("stopped", 6)),
    # The budget runs out in the finishing event.
    "budget": (path_graph(5), lambda v: _Relay(4, overspend=True),
               {"budget": 4.0}, ("budget_exhausted", 4)),
    "budget_pending": (path_graph(5),
                       lambda v: _Relay(4, extra=1, overspend=True),
                       {"budget": 8.0}, ("budget_exhausted", 7)),
    # max_events is reached on the finishing event: both loops raise.
    "max_events": (path_graph(5), lambda v: _Relay(4), {"max_events": 4},
                   ("raised", 4)),
    "max_events_after": (path_graph(5), lambda v: _Relay(4, extra=2),
                         {"max_events": 11}, ("stopped", 10)),
    # max_time is reached before every node finished ...
    "max_time": (path_graph(5), lambda v: _Relay(4), {"max_time": 2.5},
                 ("max_time", 2)),
    # ... or the finishing event lies exactly at the deadline.
    "max_time_at_finish": (path_graph(5), lambda v: _Relay(4, extra=2),
                           {"max_time": 4.0}, ("stopped", 10)),
}


@pytest.mark.parametrize("case", sorted(STOP_CASES))
def test_halting_stop_matches_the_step_loop(case):
    graph, factory, kwargs, expected = STOP_CASES[case]
    halting = _outcome(graph, factory, all_finished, **kwargs)
    stepped = _outcome(graph, factory, lambda n: n.all_finished, **kwargs)
    assert halting == stepped
    assert halting[:2] == expected


def test_all_finished_predicate():
    net = Network(path_graph(3), lambda v: _FinishAtStart())
    assert not all_finished(net)
    net.run(stop_when=all_finished)
    assert all_finished(net) and net.all_finished

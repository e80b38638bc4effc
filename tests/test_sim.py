"""Tests for the discrete-event simulator: events, delays, network, metrics."""

import random

import pytest

from repro.graphs import WeightedGraph, path_graph, ring_graph
from repro.sim import (
    EventQueue,
    MaximalDelay,
    Network,
    PerEdgeDelay,
    Process,
    ScaledDelay,
    UniformDelay,
)


# --------------------------------------------------------------------- #
# Event queue
# --------------------------------------------------------------------- #


def test_event_queue_ordering():
    q = EventQueue()
    fired = []
    q.schedule(3.0, lambda: fired.append("c"))
    q.schedule(1.0, lambda: fired.append("a"))
    q.schedule(2.0, lambda: fired.append("b"))
    while q.step():
        pass
    assert fired == ["a", "b", "c"]
    assert q.now == 3.0


def test_event_queue_fifo_ties():
    q = EventQueue()
    fired = []
    for i in range(5):
        q.schedule(1.0, lambda i=i: fired.append(i))
    while q.step():
        pass
    assert fired == [0, 1, 2, 3, 4]


def test_event_queue_rejects_negative_and_past():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.schedule(-1.0, lambda: None)
    q.schedule(5.0, lambda: None)
    q.step()
    with pytest.raises(ValueError):
        q.schedule_at(1.0, lambda: None)


# --------------------------------------------------------------------- #
# Delay models
# --------------------------------------------------------------------- #


def test_delay_models_within_bounds():
    rng = random.Random(0)
    assert MaximalDelay().delay(0, 1, 7.0, rng) == 7.0
    assert ScaledDelay(0.5).delay(0, 1, 8.0, rng) == 4.0
    for _ in range(50):
        d = UniformDelay().delay(0, 1, 3.0, rng)
        assert 0.0 <= d <= 3.0
    for _ in range(50):
        d = UniformDelay(0.25, 0.75).delay(0, 1, 4.0, rng)
        assert 1.0 <= d <= 3.0


def test_delay_model_validation():
    with pytest.raises(ValueError):
        ScaledDelay(1.5)
    with pytest.raises(ValueError):
        UniformDelay(0.9, 0.1)
    bad = PerEdgeDelay(lambda u, v, w: w * 2)
    with pytest.raises(ValueError):
        bad.delay(0, 1, 1.0, random.Random(0))


def test_per_edge_delay_adversary():
    sched = {(0, 1): 0.0, (1, 0): 1.0}
    model = PerEdgeDelay(lambda u, v, w: sched[(u, v)] * w)
    rng = random.Random(0)
    assert model.delay(0, 1, 5.0, rng) == 0.0
    assert model.delay(1, 0, 5.0, rng) == 5.0


# --------------------------------------------------------------------- #
# Network mechanics via a tiny ping-pong protocol
# --------------------------------------------------------------------- #


class PingPong(Process):
    def __init__(self, starter, rounds):
        self.starter = starter
        self.rounds = rounds

    def on_start(self):
        if self.starter:
            self.send(self.neighbors()[0], self.rounds, tag="ping")

    def on_message(self, frm, k):
        if k <= 0:
            self.finish("done")
            return
        self.send(frm, k - 1, tag="pong")


def test_ping_pong_cost_and_time():
    g = WeightedGraph([(0, 1, 5.0)])
    net = Network(g, lambda v: PingPong(v == 0, 3))
    result = net.run()
    # messages: 3, 2, 1, 0 -> 4 transmissions of cost 5 each
    assert result.message_count == 4
    assert result.comm_cost == 20.0
    assert result.time == 20.0  # maximal delay model: each hop takes 5


def test_scaled_delay_halves_time_not_cost():
    g = WeightedGraph([(0, 1, 5.0)])
    net = Network(g, lambda v: PingPong(v == 0, 3), delay=ScaledDelay(0.5))
    result = net.run()
    assert result.comm_cost == 20.0
    assert result.time == 10.0


def test_send_to_non_neighbor_rejected():
    class Bad(Process):
        def on_start(self):
            if self.node_id == 0:
                self.send(2, "x")

    g = path_graph(3)
    net = Network(g, lambda v: Bad())
    with pytest.raises(ValueError):
        net.run()


def test_fifo_per_channel():
    """A later fast message must not overtake an earlier slow one."""
    order = []

    class Sender(Process):
        def on_start(self):
            if self.node_id == 0:
                self.send(1, "first")
                self.send(1, "second")

    class Receiver(Sender):
        def on_message(self, frm, payload):
            order.append(payload)

    # Adversary: first message max delay, second zero delay.
    delays = iter([1.0, 0.0])
    model = PerEdgeDelay(lambda u, v, w: next(delays) * w)
    g = WeightedGraph([(0, 1, 4.0)])
    net = Network(g, lambda v: Receiver(), delay=model)
    net.run()
    assert order == ["first", "second"]


def test_serialized_channel_accumulates_delay():
    class Burst(Process):
        def __init__(self):
            self.got = 0

        def on_start(self):
            if self.node_id == 0:
                for _ in range(3):
                    self.send(1, "x")

        def on_message(self, frm, payload):
            self.got += 1

    g = WeightedGraph([(0, 1, 2.0)])
    net = Network(g, lambda v: Burst(), serialize=True)
    result = net.run()
    assert result.time == 6.0  # 3 messages serialized at 2.0 each

    net2 = Network(g, lambda v: Burst(), serialize=False)
    result2 = net2.run()
    assert result2.time == 2.0  # pipelined


def test_metrics_tags():
    g = WeightedGraph([(0, 1, 3.0)])
    net = Network(g, lambda v: PingPong(v == 0, 1))
    result = net.run()
    m = result.metrics
    assert m.count_by_tag["ping"] == 1
    assert m.count_by_tag["pong"] == 1
    assert m.cost_by_tag["ping"] == 3.0
    assert "ping" in m.summary()


def test_timers():
    class TimerProc(Process):
        def on_start(self):
            if self.node_id == 0:
                self.set_timer(7.5, lambda: self.finish("timer fired"))
            else:
                self.finish(None)

    g = path_graph(2)
    net = Network(g, lambda v: TimerProc())
    result = net.run()
    assert result.result_of(0) == "timer fired"


def test_max_events_backstop():
    class Storm(Process):
        def on_start(self):
            self.send(self.neighbors()[0], 0)

        def on_message(self, frm, payload):
            self.send(frm, payload)

    g = WeightedGraph([(0, 1, 1.0)])
    net = Network(g, lambda v: Storm())
    with pytest.raises(RuntimeError):
        net.run(max_events=100)


def test_stop_when():
    g = ring_graph(4)
    net = Network(g, lambda v: PingPong(v == 0, 100))
    result = net.run(stop_when=lambda n: n.metrics.message_count >= 10)
    assert result.message_count == 10


def test_run_result_accessors():
    g = WeightedGraph([(0, 1, 1.0)])
    net = Network(g, lambda v: PingPong(v == 0, 0))
    result = net.run()
    assert result.result_of(1) == "done"
    assert set(result.results()) == {0, 1}


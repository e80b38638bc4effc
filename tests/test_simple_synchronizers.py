"""Tests for network synchronizers alpha_w and beta_w (gamma_w's baselines)."""

import pytest

from repro.graphs import (
    diameter,
    dijkstra,
    network_params,
    path_graph,
    random_connected_graph,
    ring_graph,
)
from repro.protocols.spt_synch import SyncBellmanFord
from repro.sim import UniformDelay
from repro.synch import (
    InSynchWrapper,
    next_multiple,
    power,
    run_alpha_w,
    run_beta_w,
    run_gamma_w,
)


def _bf_factory(graph, source=0):
    stop = int(diameter(graph)) + 1
    return lambda v: SyncBellmanFord(v == source, stop), stop


def _max_pulse(graph, stop):
    w_max = int(max(w for _, _, w in graph.edges()))
    return 4 * (stop + 1) + 4 * w_max + 8


def _verify(graph, res, source=0):
    dist, _ = dijkstra(graph, source)
    for v in graph.vertices:
        d, _p = res.result_of(v)
        assert d == pytest.approx(dist[v])


@pytest.mark.parametrize("maker,seed", [
    (lambda: path_graph(8, weight=3.0), 0),
    (lambda: ring_graph(10, weight=2.0), 1),
    (lambda: random_connected_graph(15, 20, seed=8, max_weight=6), 2),
])
def test_alpha_w_reproduces_synchronous_output(maker, seed):
    g = maker()
    factory, stop = _bf_factory(g)
    res = run_alpha_w(g, factory, max_pulse=_max_pulse(g, stop), seed=seed)
    _verify(g, res)


@pytest.mark.parametrize("maker,seed", [
    (lambda: path_graph(8, weight=3.0), 0),
    (lambda: ring_graph(10, weight=2.0), 1),
    (lambda: random_connected_graph(15, 20, seed=8, max_weight=6), 2),
])
def test_beta_w_reproduces_synchronous_output(maker, seed):
    g = maker()
    factory, stop = _bf_factory(g)
    res = run_beta_w(g, factory, max_pulse=_max_pulse(g, stop), seed=seed)
    _verify(g, res)


def test_alpha_w_under_random_delays():
    g = random_connected_graph(12, 18, seed=9, max_weight=5)
    factory, stop = _bf_factory(g)
    res = run_alpha_w(g, factory, max_pulse=_max_pulse(g, stop),
                      delay=UniformDelay(), seed=3)
    _verify(g, res)


def test_beta_w_under_random_delays():
    g = random_connected_graph(12, 18, seed=9, max_weight=5)
    factory, stop = _bf_factory(g)
    res = run_beta_w(g, factory, max_pulse=_max_pulse(g, stop),
                     delay=UniformDelay(), seed=3)
    _verify(g, res)


@pytest.mark.parametrize("runner", [run_alpha_w, run_beta_w, run_gamma_w])
def test_messages_arrive_exactly_w_hat_pulses_after_sending(runner,
                                                            monkeypatch):
    """The shared data plane: a message the wrapper sends at outer pulse p
    on an edge of normalized weight w_hat is in the inbox of pulse
    p + w_hat, not a pulse earlier or later, under every synchronizer."""
    g = random_connected_graph(12, 18, seed=9, max_weight=5)
    factory, stop = _bf_factory(g)
    arrivals = []
    on_pulse = InSynchWrapper.on_pulse

    def recording_on_pulse(self, pulse, inbox):
        for frm, (_payload, inner_t) in inbox:
            w_hat = power(self.original_weights[frm])
            sent = next_multiple(InSynchWrapper.SLOWDOWN * inner_t, w_hat)
            arrivals.append((pulse, sent + w_hat))
        on_pulse(self, pulse, inbox)

    monkeypatch.setattr(InSynchWrapper, "on_pulse", recording_on_pulse)
    res = runner(g, factory, max_pulse=_max_pulse(g, stop),
                 delay=UniformDelay(), seed=3)
    _verify(g, res)
    assert arrivals
    assert all(got == expected for got, expected in arrivals)


@pytest.mark.parametrize("runner", [run_alpha_w, run_beta_w])
def test_undersized_max_pulse_raises(runner):
    """Like gamma_w's, an alpha_w/beta_w stall raises instead of returning
    a partial result."""
    g = path_graph(6, weight=4.0)
    factory, _stop = _bf_factory(g)
    with pytest.raises(RuntimeError, match=r"6 of 6 .*max_pulse=2"):
        runner(g, factory, max_pulse=2)


def test_beta_w_explicit_tree_requires_root():
    from repro.graphs import shortest_path_tree

    g = ring_graph(6, weight=2.0)
    factory, stop = _bf_factory(g)
    t = shortest_path_tree(g, 0)
    with pytest.raises(ValueError):
        run_beta_w(g, factory, max_pulse=_max_pulse(g, stop), tree=t)


def test_alpha_w_cost_per_pulse_theta_E():
    g = random_connected_graph(15, 25, seed=10, max_weight=4)
    p = network_params(g)
    factory, stop = _bf_factory(g)
    res = run_alpha_w(g, factory, max_pulse=_max_pulse(g, stop))
    # Per pulse: one SAFE per directed edge (cost <= 2 E-hat <= 4 E), plus
    # acks of the payload amortized in.
    assert res.control_cost / res.pulses <= 4 * p.E + 1e-9
    assert res.control_cost / res.pulses >= 0.5 * p.E


def test_beta_w_cheaper_control_than_alpha_w():
    """beta_w's per-pulse control cost is w(T) ~ V vs alpha_w's ~ E."""
    g = random_connected_graph(20, 60, seed=11, max_weight=4)
    factory, stop = _bf_factory(g)
    mp = _max_pulse(g, stop)
    a = run_alpha_w(g, factory, max_pulse=mp)
    b = run_beta_w(g, factory, max_pulse=mp)
    _verify(g, a)
    _verify(g, b)
    assert b.control_cost / b.pulses < a.control_cost / a.pulses


def test_gamma_w_beats_alpha_w_time_on_heavy_edges():
    """With one huge edge, alpha_w's pulses gate on W while gamma_w's
    level stratification touches the heavy edge only every W pulses."""
    from repro.graphs import heavy_edge_clock_graph

    g = heavy_edge_clock_graph(10, heavy=64.0)
    factory, stop = _bf_factory(g)
    mp = _max_pulse(g, stop)
    a = run_alpha_w(g, factory, max_pulse=mp)
    c = run_gamma_w(g, factory, k=2, max_pulse=mp)
    _verify(g, a)
    _verify(g, c)
    assert c.time_per_pulse < a.time_per_pulse

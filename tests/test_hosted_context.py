"""Every host hands its inner process the whole Process surface.

The reliable transport, the controller, Dijkstra-Scholten termination
detection and the id audit each run an inner process behind a
:class:`~repro.sim.process.HostedContext`.  A probe that opens a trace
span, records a pulse, sets a timer and finishes must behave the same
under all four, traced or not.
"""

import pytest

from repro.control import run_controlled
from repro.core import run_audited
from repro.faults import ReliableProcess
from repro.graphs import WeightedGraph
from repro.obs import tracing
from repro.protocols import run_with_termination_detection
from repro.sim import HostedContext, Network, Process

#: Star around 0; the probe's span covers the root's three sends.
_SPOKES = {1: 2.0, 2: 3.0, 3: 5.0}
_EXPECTED = {0: ("root", 0), 1: ("leaf", 0), 2: ("leaf", 0), 3: ("leaf", 0)}


def _star() -> WeightedGraph:
    g = WeightedGraph(vertices=range(4))
    for v, w in _SPOKES.items():
        g.add_edge(0, v, w)
    return g


class _Probe(Process):
    """The root sends one probe per spoke inside a span; every node
    records a pulse and finishes on a timer."""

    def __init__(self, root: bool) -> None:
        self.root = root

    def on_start(self) -> None:
        if self.root:
            with self.trace_span("probe"):
                for v in self.neighbors():
                    self.send(v, ("probe",), tag="probe")
            self._finish_later(0, ("root", self.node_id))

    def on_message(self, frm, payload) -> None:
        self._finish_later(1, ("leaf", frm))

    def _finish_later(self, pulse: int, result) -> None:
        self.trace_pulse(pulse)
        self.set_timer(0.5, lambda: self.finish(result))


def _probe(v):
    return _Probe(v == 0)


def _reliable(g):
    result = Network(g, lambda v: ReliableProcess(_probe(v))).run()
    return result, result.results()


def _controlled(g):
    outcome = run_controlled(g, _probe, 0, threshold=100.0)
    inner = {v: outcome.inner_result_of(v) for v in g.vertices}
    assert outcome.net_result.results() == inner
    return outcome.net_result, inner


def _terminated(g):
    result = run_with_termination_detection(g, _probe, 0)
    assert {status for status, _ in result.results().values()} == \
        {"terminated"}
    return result, {v: inner for v, (_, inner) in result.results().items()}


def _audited(g):
    result = run_audited(g, _probe)
    return result, result.results()


HOSTS = {"reliable": _reliable, "controlled": _controlled,
         "terminated": _terminated, "audited": _audited}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("host", sorted(HOSTS))
def test_hosted_probe_has_the_whole_process_surface(host, traced):
    g = _star()
    if traced:
        with tracing() as session:
            result, inner = HOSTS[host](g)
        [(_, rec)] = session.recorders
        assert rec.cost_by_span["probe"] == sum(_SPOKES.values())
        assert rec.count_by_span["probe"] == len(_SPOKES)
        assert sum(rec.cost_by_span.values()) == result.comm_cost
        assert rec.counts["pulse"] == g.num_vertices
    else:
        result, inner = HOSTS[host](g)
    assert inner == _EXPECTED
    for proc in result.processes.values():
        assert isinstance(proc.inner.ctx, HostedContext)
        assert proc.inner.finished

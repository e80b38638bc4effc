"""Tests for repro.analysis: the determinism linter and the race detector."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    RaceDetector,
    SharedStateViolation,
    analyze_source,
)
from repro.analysis.__main__ import collect_findings, main
from repro.analysis.rules import RULES
from repro.faults import run_chaos
from repro.graphs import WeightedGraph
from repro.protocols.broadcast import FloodProcess
from repro.sim.network import Network
from repro.sim.process import Process

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


# --------------------------------------------------------------------- #
# Static linter: planted fixtures
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("fixture, rule", [
    ("rs001_set_iteration.py", "RS001"),
    ("rs002_global_rng.py", "RS002"),
    ("rs003_wall_clock.py", "RS003"),
    ("rs004_adjacency.py", "RS004"),
    ("rs005_ctx_write.py", "RS005"),
    ("rs006_unhandled_kind.py", "RS006"),
    ("rs007_dead_handler.py", "RS007"),
    ("rs008_untagged_send.py", "RS008"),
    ("rs009_reachable_nondet.py", "RS009"),
    ("rs010_payload_write.py", "RS010"),
])
def test_fixture_triggers_exactly_its_rule(fixture, rule):
    source = (FIXTURES / fixture).read_text()
    findings = analyze_source(source, path=fixture)
    assert findings, f"{fixture} planted violations but none were found"
    assert {f.rule for f in findings} == {rule}


def test_clean_fixture_triggers_nothing():
    source = (FIXTURES / "clean.py").read_text()
    assert analyze_source(source, path="clean.py") == []


def test_every_rule_has_a_fixture():
    covered = set()
    for file in FIXTURES.glob("rs*.py"):
        for f in analyze_source(file.read_text(), path=file.name):
            covered.add(f.rule)
    assert covered == set(RULES)


def test_findings_are_sorted_and_stable():
    source = (FIXTURES / "rs001_set_iteration.py").read_text()
    a = analyze_source(source, path="x.py")
    b = analyze_source(source, path="x.py")
    assert a == b
    assert a == sorted(a)


def test_allow_marker_suppresses_only_named_rule():
    flagged = "for v in {1, 2}:\n    pass\n"
    assert analyze_source(flagged)  # sanity: fires without the marker
    allowed = "for v in {1, 2}:  # repro: allow RS001 -- test\n    pass\n"
    assert analyze_source(allowed) == []
    wrong_code = "for v in {1, 2}:  # repro: allow RS002 -- test\n    pass\n"
    assert analyze_source(wrong_code)


def test_rule_selection_filters():
    source = (FIXTURES / "rs002_global_rng.py").read_text()
    assert analyze_source(source, rules=["RS001"]) == []
    assert analyze_source(source, rules=["RS002"])


def test_render_format():
    source = "import random\nrandom.random()\n"
    (finding,) = analyze_source(source, path="mod.py")
    text = finding.render()
    assert text.startswith("mod.py:2:")
    assert "RS002" in text


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


def test_cli_exit_codes(tmp_path, capsys):
    clean = FIXTURES / "clean.py"
    dirty = FIXTURES / "rs002_global_rng.py"
    assert main([str(clean)]) == 0
    assert main([str(dirty)]) == 1
    assert main(["--explain"]) == 0
    assert main(["--rules", "RS999", str(clean)]) == 2
    capsys.readouterr()


def test_cli_jsonl_output(capsys):
    dirty = FIXTURES / "rs003_wall_clock.py"
    assert main([str(dirty), "--format", "jsonl"]) == 1
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    docs = [json.loads(ln) for ln in lines]
    assert docs and all(d["rule"] == "RS003" for d in docs)
    # Each line is exactly the finding's as_dict(), no extra keys.
    assert docs == [f.as_dict() for f in collect_findings([dirty])]


def test_cli_repo_tree_is_clean():
    """The committed source tree must lint clean (the CI gate)."""
    src = Path(__file__).parent.parent / "src" / "repro"
    findings = collect_findings([src])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_flow_restricts_to_flow_rules(capsys):
    # rs002 only plants a base-rule hazard: invisible under --flow.
    assert main(["--flow", str(FIXTURES / "rs002_global_rng.py")]) == 0
    assert main(["--flow", str(FIXTURES / "rs006_unhandled_kind.py")]) == 1
    assert main(["--flow", "--rules", "RS001",
                 str(FIXTURES / "clean.py")]) == 2
    capsys.readouterr()


def test_cli_github_format_annotations(capsys):
    dirty = FIXTURES / "rs006_unhandled_kind.py"
    assert main([str(dirty), "--format", "github"]) == 1
    out = capsys.readouterr().out
    (annotation,) = [ln for ln in out.splitlines()
                     if ln.startswith("::error ")]
    assert "title=RS006" in annotation
    assert "file=" in annotation and "line=9" in annotation


# --------------------------------------------------------------------- #
# Runtime race detector
# --------------------------------------------------------------------- #


def _two_node_graph():
    g = WeightedGraph(vertices=[0, 1])
    g.add_edge(0, 1, 1.0)
    return g


class _Meddler(Process):
    """Node 0 pokes node 1's process object directly on message receipt."""

    def __init__(self, registry, vid):
        registry[vid] = self
        self.registry = registry
        self.vid = vid
        self.poked = False

    def on_start(self):
        if self.vid == 0:
            self.send(1, "go")
        self.finish(None)

    def on_message(self, frm, payload):
        self.registry[frm].poked = True  # cross-process write


def test_cross_write_raises():
    registry: dict = {}
    net = Network(_two_node_graph(), lambda v: _Meddler(registry, v),
                  race_detect=True)
    with pytest.raises(SharedStateViolation) as exc_info:
        net.run()
    assert exc_info.value.kind == "cross-write"


def test_cross_write_record_mode_collects():
    registry: dict = {}
    net = Network(_two_node_graph(), lambda v: _Meddler(registry, v),
                  race_detect="record")
    net.run()
    violations = net.race_detector.violations
    assert len(violations) == 1
    assert violations[0].kind == "cross-write"


def test_own_writes_are_fine():
    net = Network(_two_node_graph(),
                  lambda v: FloodProcess(v == 0, "hello"), race_detect=True)
    result = net.run()
    assert all(p.finished for p in result.processes.values())


class _PostSendMutator(Process):
    def __init__(self, vid, copy_payload):
        self.vid = vid
        self.copy_payload = copy_payload

    def on_start(self):
        if self.vid == 0:
            buf = ["data"]
            self.send(1, list(buf) if self.copy_payload else buf)
            buf.append("tampered")
        self.finish(None)

    def on_message(self, frm, payload):
        pass


def test_post_send_mutation_raises():
    net = Network(_two_node_graph(),
                  lambda v: _PostSendMutator(v, copy_payload=False),
                  race_detect=True)
    with pytest.raises(SharedStateViolation) as exc_info:
        net.run()
    assert exc_info.value.kind == "payload-mutation"


def test_copied_payload_is_fine():
    net = Network(_two_node_graph(),
                  lambda v: _PostSendMutator(v, copy_payload=True),
                  race_detect=True)
    net.run()  # no violation: the in-flight copy never changed


def test_disabled_mode_leaves_processes_untouched():
    net = Network(_two_node_graph(), lambda v: FloodProcess(v == 0, "x"))
    assert net.race_detector is None
    for proc in net.processes.values():
        assert type(proc) is FloodProcess
        assert "_race_detector" not in proc.__dict__


def test_detector_mode_validation():
    with pytest.raises(ValueError):
        RaceDetector(mode="explode")


def test_run_chaos_classifies_race_as_error():
    outcome = run_chaos(
        _two_node_graph(),
        lambda v: _PostSendMutator(v, copy_payload=False),
        reliable=False, race_detect=True,
    )
    assert outcome.status == "error"
    assert "SharedStateViolation" in outcome.error


def test_race_detect_does_not_change_clean_outcomes():
    g = _two_node_graph()
    base = run_chaos(g, lambda v: FloodProcess(v == 0, "x"), reliable=True)
    checked = run_chaos(g, lambda v: FloodProcess(v == 0, "x"),
                        reliable=True, race_detect=True)
    assert (base.status, base.result.comm_cost, base.result.message_count) \
        == (checked.status, checked.result.comm_cost,
            checked.result.message_count)

"""RunSpec: the one canonical description of a chaos run.

Sweep cells, replay headers, fuzz evaluations, fleet corpora and serve
``trace`` requests are all :class:`RunSpec` values, so its contract is
pinned here: a lossless JSON round trip, validation at construction, a
canonical plan, and a field set equal to the replay header's.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import chaos
from repro.experiments.chaos import MATRIX, PROTOCOLS, RunSpec, make_cases
from repro.faults import CrashWindow, FaultPlan
from repro.obs import read_jsonl
from repro.replay import golden_paths

GOLDEN_DIR = Path(__file__).resolve().parent / "fixtures" / "golden"

_RATES = st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0])


@st.composite
def _plans(draw):
    if draw(st.booleans()):
        return None
    crashes = tuple(
        CrashWindow(node, start, None if span is None else start + span)
        for node, start, span in draw(st.lists(
            st.tuples(st.integers(0, 9),
                      st.floats(0.0, 50.0, allow_nan=False),
                      st.one_of(st.none(), st.floats(0.5, 20.0))),
            max_size=3))
    )
    edges = draw(st.one_of(st.none(), st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(
            lambda e: e[0] != e[1]),
        max_size=4)))
    return FaultPlan(drop=draw(_RATES), duplicate=draw(_RATES),
                     corrupt=draw(_RATES), reorder=draw(_RATES),
                     seed=draw(st.integers(0, 10**6)), edges=edges,
                     crashes=crashes)


_SPECS = st.builds(
    RunSpec,
    protocol=st.sampled_from(PROTOCOLS),
    n=st.integers(2, 40),
    extra_edges=st.integers(0, 40),
    graph_seed=st.integers(0, 10**6),
    seed=st.integers(0, 10**6),
    reliable=st.booleans(),
    plan=_plans(),
    limit=st.one_of(st.none(), st.integers(0, 500)),
    race=st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(_SPECS)
def test_json_round_trip_is_lossless(spec):
    again = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    assert hash(again) == hash(spec)


@pytest.mark.parametrize("fields,match", [
    ({"n": True}, "n must be an int"),
    ({"reliable": 1}, "reliable must be a bool"),
    ({"n": 8.5}, "n must be an int"),
    ({"limit": -1}, "limit must be >= 0"),
    ({"n": 1}, "n must be >= 2"),
    ({"plan": FaultPlan(script=lambda frm, to, i: None)}, "scripted"),
    ({"protocol": "nonesuch"}, "unknown protocol"),
], ids=["bool-as-int", "int-as-bool", "fractional", "negative-limit",
        "n-below-2", "scripted-plan", "unknown-protocol"])
def test_construction_rejects(fields, match):
    with pytest.raises(ValueError, match=match):
        RunSpec(**{"protocol": "dfs", **fields})


def test_from_dict_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown RunSpec keys"):
        RunSpec.from_dict({"protocol": "dfs", "graph_fp": "0" * 16})


def test_int_valued_floats_become_ints():
    spec = RunSpec("dfs", n=10.0, limit=5.0)
    assert type(spec.n) is int and type(spec.limit) is int
    assert spec == RunSpec("dfs", n=10, limit=5)


def test_plan_is_stored_canonical():
    plan = FaultPlan(crashes=(CrashWindow(5, 2.0, 8.0),
                              CrashWindow(3, 2.0, 8.0)), seed=4)
    spec = RunSpec("dfs", plan=plan)
    assert [cw.node for cw in spec.plan.crashes] == [3, 5]
    assert spec.to_dict()["plan"] == plan.to_dict()


def test_drop_and_trace_read_the_plan_and_limit():
    assert RunSpec("dfs").drop == 0.0
    assert RunSpec("dfs", plan=FaultPlan.message_loss(0.2)).drop == 0.2
    assert not RunSpec("dfs").trace
    assert RunSpec("dfs", limit=0).trace


@pytest.mark.parametrize("path", golden_paths(str(GOLDEN_DIR)),
                         ids=lambda p: Path(p).name)
def test_fields_are_the_replay_header_keys(path):
    header = read_jsonl(path).meta["replay"]
    assert set(RunSpec("dfs").to_dict()) == set(header) - {"graph_fp"}


def test_registry_declares_the_matrix_in_make_cases_order():
    assert tuple(c.name for c in make_cases(8, 6, 3)) == MATRIX
    assert PROTOCOLS == (*MATRIX, "gamma_w(max)")


def test_gamma_w_case_is_built_only_when_named():
    chaos._gamma_w_cases.cache_clear()
    assert chaos.case_of(RunSpec("dfs", 8, 6, 5)).name == "dfs"
    assert chaos._gamma_w_cases.cache_info().currsize == 0
    assert chaos.case_of(RunSpec("gamma_w(max)", 8, 6, 5)).name == "gamma_w(max)"

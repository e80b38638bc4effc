"""Request canonicalization: content addresses are knob-complete and stable.

Two properties carry the whole cache-correctness argument:

1. *Erasure* — representations that mean the same run (key order,
   omitted-vs-explicit defaults, dict-vs-flat generator specs) hash to
   the same address, so equivalent requests dedupe.
2. *Sensitivity* — changing ANY result-affecting knob changes the
   address, so the cache can never serve a stale result for a different
   run.

Pinned hash literals at the bottom freeze the addressing scheme itself:
they fail loudly if canonicalization, defaults, or SCHEMA_VERSION change
without a deliberate bump.
"""

import pytest

from repro.graphs.npkernels import kernel_backend
from repro.serve import (
    SCHEMA_VERSION,
    RequestError,
    canonical_request,
    request_address,
)

CHAOS = {"kind": "chaos", "protocol": "broadcast", "n": 8, "extra_edges": 6,
         "graph_seed": 3, "backend": "python"}


def addr(request):
    return request_address(request)[1]


# --------------------------------------------------------------------- #
# Erasure: equivalent requests hash identically
# --------------------------------------------------------------------- #

def test_key_order_is_erased():
    shuffled = dict(reversed(list(CHAOS.items())))
    assert addr(CHAOS) == addr(shuffled)


def test_omitted_defaults_hash_like_explicit_defaults():
    explicit = dict(CHAOS, drop=0.0, reliable=True, fault_seed=7,
                    trace=False, race_detect=False)
    assert addr(CHAOS) == addr(explicit)


def test_dict_and_flat_generator_specs_hash_identically():
    flat = {"kind": "snapshot", "spec": ["random_connected", 200, 400],
            "backend": "python"}
    named = {"kind": "snapshot", "backend": "python",
             "spec": {"family": "random_connected", "n": 200,
                      "extra_edges": 400}}
    named_full = {"kind": "snapshot", "backend": "python",
                  "spec": {"family": "random_connected", "n": 200,
                           "extra_edges": 400, "seed": 0,
                           "max_weight": 10.0}}
    assert addr(flat) == addr(named) == addr(named_full)


def test_int_valued_floats_normalize():
    # JSON round-trips may widen ints to floats; the address must not care.
    assert addr(dict(CHAOS, n=8.0)) == addr(CHAOS)


def test_none_backend_resolves_ambient():
    ambient = canonical_request({"kind": "chaos", "protocol": "broadcast"})
    assert ambient["backend"] == kernel_backend()


# --------------------------------------------------------------------- #
# Sensitivity: every knob is address-bearing
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("tweak", [
    {"protocol": "dfs"},
    {"n": 9},
    {"extra_edges": 7},
    {"graph_seed": 4},
    {"drop": 0.1},
    {"reliable": False},
    {"fault_seed": 8},
    {"trace": True},
    {"race_detect": True},
    {"backend": "numpy"},
])
def test_any_chaos_knob_changes_address(tweak):
    assert addr(dict(CHAOS, **tweak)) != addr(CHAOS)


def test_kinds_never_collide():
    sweep = {"kind": "sweep", "backend": "python"}
    trace = {"kind": "trace", "protocol": "broadcast", "backend": "python"}
    assert len({addr(CHAOS), addr(sweep), addr(trace)}) == 3


def test_trace_plan_and_limit_change_address():
    base = {"kind": "trace", "protocol": "dfs", "backend": "python"}
    with_plan = dict(base, plan={"drop": 0.2, "seed": 9})
    with_limit = dict(base, limit=50)
    assert len({addr(base), addr(with_plan), addr(with_limit)}) == 3


def test_sweep_drop_rates_change_address():
    base = {"kind": "sweep", "backend": "python"}
    assert addr(dict(base, drop_rates=[0.0, 0.5])) != addr(base)


def test_snapshot_spec_params_change_address():
    base = {"kind": "snapshot", "spec": ["random_connected", 200, 400],
            "backend": "python"}
    other = {"kind": "snapshot", "spec": ["random_connected", 200, 401],
             "backend": "python"}
    assert addr(base) != addr(other)


# --------------------------------------------------------------------- #
# Validation: malformed requests fail fast, before any execution
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("bad", [
    {"kind": "nope"},
    {"protocol": "broadcast"},                          # missing kind
    {"kind": "chaos"},                                  # missing protocol
    {"kind": "chaos", "protocol": "broadcast", "bogus": 1},
    {"kind": "chaos", "protocol": "broadcast", "drop": 1.5},
    {"kind": "chaos", "protocol": "broadcast", "n": -2},
    {"kind": "chaos", "protocol": "broadcast", "backend": "cuda"},
    {"kind": "snapshot", "spec": ["no_such_family", 10]},
    {"kind": "snapshot", "spec": ["random_connected"]},  # missing params
    {"kind": "trace", "protocol": "dfs", "plan": {"drop": "high"}},
    "not a dict",
    {"kind": "snapshot", "spec": ["random_connected", 10, 10], "limit": -1},
    {"kind": "trace", "protocol": "dfs", "limit": -1},
])
def test_malformed_requests_raise_request_error(bad):
    with pytest.raises(RequestError):
        canonical_request(bad)


@pytest.mark.parametrize("bad", [
    {"kind": "chaos", "protocol": "nonesuch"},
    {"kind": "trace", "protocol": "nonesuch"},
    {"kind": "sweep", "protocols": ["nonesuch"]},
], ids=lambda r: r["kind"])
def test_unknown_protocol_is_request_error(bad):
    # Refused at canonicalization, never an execution failure.
    with pytest.raises(RequestError, match="nonesuch"):
        canonical_request(bad)


def test_trace_canonical_form_is_the_run_spec_dict():
    from repro.experiments.chaos import RunSpec
    from repro.faults import CrashWindow, FaultPlan

    request = {"kind": "trace", "protocol": "dfs", "n": 10.0, "seed": 4,
               "plan": {"drop": 0.2, "seed": 9,
                        "crashes": [{"node": 5, "start": 2.0, "end": 8.0},
                                    {"node": 3, "start": 2.0, "end": 8.0}]},
               "backend": "python"}
    spec = RunSpec("dfs", 10, seed=4, plan=FaultPlan(
        drop=0.2, seed=9,
        crashes=(CrashWindow(5, 2.0, 8.0), CrashWindow(3, 2.0, 8.0))))
    assert canonical_request(request) == {"kind": "trace", **spec.to_dict(),
                                          "backend": "python"}


# --------------------------------------------------------------------- #
# Pinned literals: the addressing scheme itself is a regression surface
# --------------------------------------------------------------------- #

def test_schema_version_pinned():
    assert SCHEMA_VERSION == 1


PINNED = {
    "chaos": (CHAOS,
              "6face4010f782a8eb3120f542072df662a7a8f7074ecec7de136b32ebc84ebdd"),
    "snapshot": ({"kind": "snapshot", "spec": ["random_connected", 200, 400],
                  "backend": "python"},
                 "bf190795de97713c5d906e42882d1d75dba3924f891114977a8dee401046290f"),
    "sweep": ({"kind": "sweep", "backend": "python"},
              "68963565b7f006f0fcafafedd9471e9fe34cf726333897a583219db4cef6e174"),
    "trace": ({"kind": "trace", "protocol": "dfs", "backend": "python"},
              "a009a66bafa12d60bb0c0a0a4b80d6bdc683d4286a9afcedd07dd411a630b5f6"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_addresses(name):
    request, expected = PINNED[name]
    assert addr(request) == expected

"""Correctness tooling for the determinism contract (``repro.analysis``).

Everything the perf and chaos subsystems guarantee — serial == pool sweep
rows, byte-identical trace fingerprints, pinned serve addresses —
assumes each simulation is a pure function of its seeds.  This package
*enforces* the coding rules that make that true, in the spirit of the
distributed-verification line of work the paper's MST section builds on:

* a **static pass** (``python -m repro.analysis``): an AST linter with
  rule codes ``RS001``–``RS005`` covering hash-order iteration, seeded-RNG
  bypass, wall-clock reads, graph-cache invalidation, and shared-state
  aliasing (:mod:`repro.analysis.rules`); CI fails on any finding, and a
  ``# repro: allow RSxxx -- reason`` marker is the one escape hatch;

* a **message-flow pass** (``python -m repro.analysis --flow``): an
  interprocedural checker (:mod:`repro.analysis.flow`) that extracts each
  module's send sites, handler dispatch ladders, and helper call graph,
  then enforces the send/handle contract with rules ``RS006``–``RS010``
  (unhandled kinds, dead handler arms, off-taxonomy tags, handler-reachable
  nondeterminism, and static cross-process payload writes) and exports the
  kind graph as DOT/ASCII;

* a **runtime pass**: ``Network(race_detect=True)`` arms
  :class:`~repro.analysis.race.RaceDetector`, which ownership-tags every
  process and fingerprints every in-flight payload, raising (or, in
  ``"record"`` mode, logging) a :class:`SharedStateViolation` on
  cross-process writes and post-send payload mutation.
"""

from __future__ import annotations

from .findings import Finding
from .flow import (
    PROTOCOL_MODULES,
    ModuleFlow,
    extract_module_flow,
    flow_of_source,
    flow_to_ascii,
    flow_to_dot,
)
from .race import (
    RaceDetector,
    SharedStateViolation,
    violation_signature,
    violation_signatures,
)
from .rules import FLOW_CODES, RULES, analyze_source

__all__ = [
    "Finding",
    "FLOW_CODES",
    "RULES",
    "analyze_source",
    "ModuleFlow",
    "PROTOCOL_MODULES",
    "extract_module_flow",
    "flow_of_source",
    "flow_to_ascii",
    "flow_to_dot",
    "RaceDetector",
    "SharedStateViolation",
    "violation_signature",
    "violation_signatures",
]

"""repro.replay — trace-driven replay, differential debugging, fuzzing.

Closes the loop between the fault adversary (``repro.faults``), the
structured tracer (``repro.obs``), and the determinism tooling
(``repro.analysis``): because every run is a pure function of
``(graph, protocol, FaultPlan, seed)``, a recorded JSONL trace is an
*executable* artifact, not just a log.

* :mod:`~repro.replay.engine` — :func:`record_run` stamps a replay
  header into the trace; :func:`replay_trace` / :func:`verify_trace`
  re-execute it and assert byte-identity (graph-fingerprint-checked);
  :func:`record_golden` / :func:`check_golden` pin directories of traces
  as pytest-collected regression corpora.
* :mod:`~repro.replay.diff` — :func:`first_divergence` localizes the
  first divergent event between two traces with send-linked context;
  :func:`bisect_divergence` binary-searches an integer knob for the
  first value whose trace diverges.
* :mod:`~repro.replay.fuzz` — ``python -m repro.replay.fuzz``: a
  coverage-guided, self-minimizing chaos fuzzer over
  :class:`~repro.faults.plan.FaultPlan` mutants (deterministic corpus;
  ddmin-minimized failures; ``--verify`` replays every failure).

Every run here is a :class:`~repro.experiments.chaos.RunSpec`; the
``gamma_w(max)`` case (the paper's synchronizer hosting max-consensus)
is in its static registry, so synchronizer runs record, replay, and fuzz
like any other protocol.
"""

from .diff import Divergence, bisect_divergence, first_divergence
from .engine import (
    RecordedRun,
    ReplayError,
    ReplayReport,
    check_golden,
    golden_paths,
    record_golden,
    record_run,
    replay_trace,
    spec_of,
    verify_trace,
)
from .fleet import (
    FLEET_PROTOCOLS,
    check_fleet,
    fleet_paths,
    fleet_sample,
    fleet_specs,
    record_fleet,
)
#: Fuzzer names re-exported lazily (module ``__getattr__`` below) so that
#: ``python -m repro.replay.fuzz`` does not import the submodule twice
#: (once here, once as ``__main__`` — runpy warns about that).
_FUZZ_NAMES = frozenset({
    "FuzzResult", "evaluate_cell", "outcome_signature",
    "mutate_plan", "plan_atoms", "plan_from_atoms", "ddmin",
    "minimize_plan", "write_corpus", "verify_entry",
})


def __getattr__(name):
    # "fuzz" itself resolves to the submodule (call repro.replay.fuzz.fuzz
    # for the campaign driver); the import sets the package attribute, so
    # later accesses bypass this hook.  importlib, not ``from . import``:
    # the from-import form probes the package attribute first, which
    # re-enters this hook and recurses.
    if name == "fuzz" or name in _FUZZ_NAMES:
        import importlib

        _fuzz = importlib.import_module(".fuzz", __name__)
        return _fuzz if name == "fuzz" else getattr(_fuzz, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ReplayError",
    "RecordedRun",
    "ReplayReport",
    "record_run",
    "spec_of",
    "replay_trace",
    "verify_trace",
    "record_golden",
    "check_golden",
    "golden_paths",
    "Divergence",
    "first_divergence",
    "bisect_divergence",
    "FLEET_PROTOCOLS",
    "fleet_specs",
    "fleet_paths",
    "fleet_sample",
    "record_fleet",
    "check_fleet",
    "FuzzResult",
    "evaluate_cell",
    "outcome_signature",
    "mutate_plan",
    "plan_atoms",
    "plan_from_atoms",
    "ddmin",
    "minimize_plan",
    "fuzz",
    "write_corpus",
    "verify_entry",
]

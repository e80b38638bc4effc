"""End-to-end benchmark of the repro simulator, sweep engine and service.

Run it from the repository root::

    python3 perfbench/run.py --workload protocol-suite --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads, the metric table and the
traced (per-layer) run.
"""

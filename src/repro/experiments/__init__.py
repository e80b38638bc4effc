"""Programmatic reproduction of every table and figure in the paper.

Each experiment module regenerates one artifact of the paper's evaluation
and returns :class:`~repro.experiments.base.Table` objects:

>>> from repro.experiments import all_experiments
>>> desc, runner = all_experiments()["fig1"]
>>> tables = runner()        # measured rows + bound ratios

Render the full report from the command line:

    python -m repro.experiments              # plain text, all experiments
    python -m repro.experiments fig3 clock   # a subset
    python -m repro.experiments --markdown   # markdown (for EXPERIMENTS.md)
"""

from .base import Table, all_experiments, experiment, render_markdown, render_text
from .parallel import (
    cell_seed,
    chaos_cells,
    chaos_rows,
    pool_shm_stats,
    run_chaos_cell,
    run_parallel,
    shutdown_pool,
    snapshot_rows,
)
from .chaos import PROTOCOLS, RunSpec, case_of, run_spec

__all__ = [
    "Table",
    "experiment",
    "all_experiments",
    "render_text",
    "render_markdown",
    # one chaos run: spec, case registry, executor
    "RunSpec",
    "PROTOCOLS",
    "case_of",
    "run_spec",
    # parallel sweep engine
    "run_parallel",
    "cell_seed",
    "chaos_cells",
    "run_chaos_cell",
    "chaos_rows",
    "shutdown_pool",
    # snapshot sweeps (zero-copy shared-memory graphs)
    "snapshot_rows",
    "pool_shm_stats",
]

"""Synchronizers: clock synchronization (Sec 3) and network synchronization (Sec 4)."""

from .clock_alpha import AlphaStarProcess, run_alpha_star
from .clock_base import ClockProcess, ClockStats, check_causality, run_clock_sync
from .clock_beta import BetaStarProcess, center_spt, run_beta_star
from .clock_gamma import GammaStarConfig, GammaStarProcess, run_gamma_star
from .gamma import GammaNode
from .gamma_w import GammaWConfig, GammaWHost, pulse_bounds, run_gamma_w
from .host_base import SyncResult, SynchronizerHostBase
from .normalize import InSynchWrapper, next_multiple, normalize_graph, power
from .partition import ClusterInfo, ClusterPartition, build_partition

__all__ = [
    "ClockProcess",
    "ClockStats",
    "run_clock_sync",
    "check_causality",
    "AlphaStarProcess",
    "run_alpha_star",
    "BetaStarProcess",
    "run_beta_star",
    "center_spt",
    "GammaStarProcess",
    "GammaStarConfig",
    "run_gamma_star",
    "GammaNode",
    "ClusterPartition",
    "ClusterInfo",
    "build_partition",
    "power",
    "next_multiple",
    "normalize_graph",
    "InSynchWrapper",
    "SynchronizerHostBase",
    "SyncResult",
    "GammaWConfig",
    "GammaWHost",
    "pulse_bounds",
    "run_gamma_w",
]

from .simple_synchronizers import (  # noqa: E402
    AlphaWHost,
    BetaWHost,
    run_alpha_w,
    run_beta_w,
)

__all__ += [
    "AlphaWHost",
    "BetaWHost",
    "run_alpha_w",
    "run_beta_w",
]

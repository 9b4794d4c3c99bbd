"""Benchmark harness: cluster builders, micro-benchmarks, experiments, reports."""

from ..fabric import leaf_spine_3to1
from .cluster import CONFIG_NAMES, Cluster, ClusterConfig, make_cluster, named_config
from .crash import CrashResult, run_crash
from .failover import FailoverResult, run_failover
from .incast import IncastResult, run_incast
from .micro import (
    DEFAULT_SIZES,
    MICRO_BENCHMARKS,
    MicroResult,
    micro_sweep,
    run_micro,
    run_one_way,
    run_ping_pong,
    run_two_way,
)
from .report import Table, check_band, fmt

__all__ = [
    "Cluster",
    "ClusterConfig",
    "make_cluster",
    "named_config",
    "CONFIG_NAMES",
    "CrashResult",
    "run_crash",
    "FailoverResult",
    "run_failover",
    "IncastResult",
    "run_incast",
    "leaf_spine_3to1",
    "MicroResult",
    "run_micro",
    "run_ping_pong",
    "run_one_way",
    "run_two_way",
    "micro_sweep",
    "DEFAULT_SIZES",
    "MICRO_BENCHMARKS",
    "Table",
    "fmt",
    "check_band",
]

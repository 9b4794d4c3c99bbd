"""Benchmark harness: cluster builders, micro-benchmarks, runners, reports."""

from .cluster import CONFIG_NAMES, Cluster, ClusterConfig, make_cluster, named_config
from .crash import CrashResult, run_crash
from .fabric import leaf_spine_3to1, run_ecmp_evenness, run_fabric_incast
from .failover import FailoverResult, run_failover
from .incast import IncastResult, run_incast
from .micro import MicroResult, run_micro, run_one_way, run_ping_pong, run_two_way
from .report import Table, band_str, check_band, fmt
from .runner import (
    DEFAULT_SIZES,
    MICRO_BENCHMARKS,
    app_run,
    micro_point,
    micro_sweep,
)

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
    "run_fabric_incast",
    "run_ecmp_evenness",
    "MicroResult",
    "run_micro",
    "run_ping_pong",
    "run_one_way",
    "run_two_way",
    "micro_sweep",
    "micro_point",
    "app_run",
    "DEFAULT_SIZES",
    "MICRO_BENCHMARKS",
    "Table",
    "fmt",
    "check_band",
    "band_str",
]

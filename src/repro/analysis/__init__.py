"""Cluster-wide summaries and latency histograms."""

from .latency import LatencyHistogram, SloReport, SloSpec
from .summary import (
    ClusterSummary,
    RailCounters,
    SwitchCounters,
    ascii_histogram,
    summarize_cluster,
)

__all__ = [
    "LatencyHistogram",
    "SloSpec",
    "SloReport",
    "ClusterSummary",
    "RailCounters",
    "SwitchCounters",
    "summarize_cluster",
    "ascii_histogram",
]

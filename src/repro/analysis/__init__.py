"""Measurement probes and cluster-wide summaries."""

from .latency import LatencyHistogram, SloReport, SloSpec
from .probes import (
    CwndProbe,
    EdgeScoreProbe,
    InflightProbe,
    MarkedFractionProbe,
    QueueProbe,
    ReconnectLatencyProbe,
    Sample,
    ThroughputProbe,
)
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
    "ThroughputProbe",
    "QueueProbe",
    "InflightProbe",
    "EdgeScoreProbe",
    "CwndProbe",
    "MarkedFractionProbe",
    "ReconnectLatencyProbe",
    "Sample",
    "ClusterSummary",
    "RailCounters",
    "SwitchCounters",
    "summarize_cluster",
    "ascii_histogram",
]

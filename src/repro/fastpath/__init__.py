"""Hybrid-fidelity fast path: flow-level fast-forward under frame-level edges.

The simulator normally models every Ethernet frame as a cascade of
engine events.  During long steady-state stretches — window open, zero
loss, no ECN, no control-plane activity — that cascade computes a
perfectly predictable outcome at great expense.  This package detects
those stretches (:mod:`repro.fastpath.detector`), replaces them with a
closed-form service-curve transfer model over the edge set
(:mod:`repro.fastpath.model`), advances virtual time in one jump per
operation and synthesizes the cumulative counter deltas both hosts and
the fabric would have accumulated (:mod:`repro.fastpath.forwarder`).
Any discontinuity aborts the jump at the boundary and resumes exact
frame-level simulation.

Enable per cluster with ``ClusterConfig(fastpath=True)`` or
``cluster.layer(FastpathManager)``; coverage statistics surface through
:mod:`repro.analysis`.
"""

from .detector import UNSUPPORTED_OP_FLAGS, disqualify_reason
from .forwarder import FastpathManager, FlowForwarder
from .model import PathModel
from .stats import FastpathStats

__all__ = [
    "FastpathManager",
    "FlowForwarder",
    "PathModel",
    "FastpathStats",
    "disqualify_reason",
    "UNSUPPORTED_OP_FLAGS",
]

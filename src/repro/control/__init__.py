"""Edge lifecycle control plane (extends the paper's §2.4 fault model).

The MultiEdge paper argues that edges — not connections — are the right
failure domain for multi-rail clusters.  This subsystem makes that
concrete for the simulation:

* :mod:`~repro.control.health` — per-edge heartbeat probes with EWMA
  loss/latency/backlog scoring,
* :mod:`~repro.control.detector` — the UP → SUSPECT → DOWN → RECOVERING
  state machine with bounded detection latency,
* :mod:`~repro.control.lifecycle` — the manager that masks a dead rail,
  migrates its in-flight frames, and re-stripes on recovery,
* :mod:`~repro.control.faults` — declarative fault schedules for
  experiments.
"""

from .detector import EdgeFailureDetector, EdgeState, EdgeTransition
from . import faults
from .faults import *  # noqa: F401,F403 - the fault kinds, named once
from .grayscore import GrayScorer
from .health import EdgeHealthMonitor
from .lifecycle import EdgeLifecycleManager

__all__ = [
    "EdgeState",
    "EdgeTransition",
    "EdgeFailureDetector",
    "EdgeHealthMonitor",
    "EdgeLifecycleManager",
    "GrayScorer",
    *faults.__all__,
]

"""Runtime protocol verification (invariant checking + fuzzing).

The reproduction's claims rest on protocol-level bookkeeping — retransmit
counts, CPU charges, striping balance — being exactly right, and simulated
fidelity rots silently without continuous checking.  This package is the
standing gate:

* :class:`InvariantMonitor` — an opt-in runtime checker installed as the
  simulator's ``monitor``; connections, NICs and the edge lifecycle
  control plane reach it through their ``sim`` (a single ``is not None``
  test when disabled), and it asserts protocol invariants after every
  event.
* :mod:`repro.verify.fuzz` — a deterministic fuzz harness driving seeded
  random workloads crossed with fault schedules under the monitor, with a
  shrinker that reduces any failing seed to a minimal reproducer.
"""

from .monitor import ConnectionMonitor, InvariantMonitor, InvariantViolation

__all__ = ["InvariantMonitor", "ConnectionMonitor", "InvariantViolation"]

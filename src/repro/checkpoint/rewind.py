"""Rewind-to-violation: replay the window just before an invariant fired.

An :class:`~repro.verify.monitor.InvariantViolation` reports *that* state
went wrong, at a stamped instant (``time_ns``), long after the causing
frame was sent.  :func:`run_with_rewind` runs a fuzz scenario (untraced,
at full speed) while taking periodic checkpoints; when a violation fires
it restores the nearest checkpoint at or before the violation instant —
with frame tracing switched on — and replays up to the violation.  The
result is a live run paused exactly at the failure, whose tracer holds
the frames of the failure window, plus the verified checkpoint trail
bracketing it (step a restored trail entry forward in small ``run_to``
increments and diff ``capture_state`` between steps to bisect *which
event* corrupted state).  Restore is verified replay, so the debug run
does rebuild from t=0 — the win is automation and exact positioning, not
skipped simulation; fork-based continuation covers the wall-clock side.

The debug replay is exact: checkpoints pause on event boundaries
(:meth:`~repro.sim.core.Simulator.run_until_time` never snaps the clock)
and the rebuilt run executes the identical event sequence, so the traced
window shows precisely the frames the original run saw.  Tracing itself
is record-only and cannot perturb the replay — but it does change the
captured state shape, which is why :func:`~repro.checkpoint.restore`
treats the ``trace=True`` override as unverifiable and skips the
fingerprint check for this one hop (the same checkpoint verifies cleanly
without overrides, which the witness tests exercise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..verify.fuzz import FuzzResult, Scenario, ScenarioRun, _judge
from ..verify.monitor import InvariantViolation
from . import Checkpoint, restore, take_checkpoint

__all__ = ["RewindResult", "run_with_rewind"]


@dataclass
class RewindResult:
    """A scenario run, its checkpoint trail, and — on failure — the rewind."""

    result: FuzzResult
    checkpoints: list[Checkpoint] = field(default_factory=list, repr=False)
    violation: Optional[InvariantViolation] = None
    checkpoint: Optional[Checkpoint] = None  # the one rewound to
    debug_run: Optional[ScenarioRun] = None  # traced, paused at the violation

    @property
    def trace_records(self) -> list:
        """Frames traced across the rewound failure window."""
        if self.debug_run is None:
            return []
        return list(self.debug_run.cluster.tracer.records)


def run_with_rewind(
    sc: Scenario,
    interval_ns: int = 2_000_000,
    use_monitor: bool = True,
    collect: bool = False,
) -> RewindResult:
    """Run ``sc`` with a checkpoint every ``interval_ns``; rewind on failure.

    Returns a :class:`RewindResult`.  On a clean run only ``result`` and
    the checkpoint trail are set.  On an invariant violation,
    ``debug_run`` is a fresh replay restored from ``checkpoint`` (the
    nearest one at or before the violation) with tracing enabled and run
    up to the violation instant — its tracer covers the failure window.
    """
    if interval_ns <= 0:
        raise ValueError("interval_ns must be positive")
    run = ScenarioRun(sc, use_monitor=use_monitor, collect=collect)
    monitor = run.monitor
    sim = run.cluster.sim
    checkpoints = [take_checkpoint(run)]

    def checkpointed_finish() -> FuzzResult:
        t = interval_ns
        while t < sc.limit_ns:
            run.run_to(t)
            if monitor is not None and monitor.violations:
                break
            if not sim._queue and not sim._fast:
                break  # drained early: nothing left to checkpoint
            checkpoints.append(take_checkpoint(run))
            if run.workload_done:
                break  # run_to stops here; further grid points are no-ops
            t += interval_ns
        return run.finish()

    result = _judge("protocol", sc.seed, run, checkpointed_finish)
    violation = (
        monitor.violations[0]
        if monitor is not None and monitor.violations
        else None
    )
    if violation is None:
        return RewindResult(result=result, checkpoints=checkpoints)

    nearest = None
    for ck in checkpoints:
        if ck.time_ns <= violation.time_ns:
            nearest = ck
    if nearest is None:  # violation before the first grid point
        nearest = checkpoints[0]
    debug_run = restore(nearest, trace=True)
    try:
        debug_run.run_to(violation.time_ns)
    except InvariantViolation:
        pass  # a monitor that does not collect raises what it found, again
    return RewindResult(
        result=result,
        checkpoints=checkpoints,
        violation=violation,
        checkpoint=nearest,
        debug_run=debug_run,
    )

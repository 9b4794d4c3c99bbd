"""Checkpoint-accelerated shrinking of ``protocol`` recipes.

:func:`~repro.verify.fuzz.shrink` re-executes every candidate from t=0.
Its fault-drop pass — one full run per fault event — is pure waste: every
candidate is *identical* to the failing run until the dropped fault's
start time.  This module parks a
:class:`~repro.checkpoint.fork.ForkPoint` just before the first fault
fires and answers each fault-drop candidate from a forked grandchild that
merely withdraws the dropped faults' timers
(:meth:`~repro.control.faults.FaultSchedule.cancel_pending`) and finishes
the run.  The shared prefix is simulated once per parked base instead of
once per candidate.

Cancelling a never-fired fault is scheduling-identical to building the
run without it (timer installation shifts the event sequence counter by a
constant, which preserves relative order; lazily-deleted entries are
discarded unexecuted), so a fast probe's verdict is bit-equal to the cold
run's — asserted in ``tests/checkpoint/test_shrink.py``.

Candidates the checkpoint cannot answer (op drops, size halving, knob
simplification — anything that changes state *before* the fork point)
fall back to a cold run.  Only :class:`~repro.verify.fuzz.ScenarioRun`
recipes are answered this way: a serving run, for one, enables crash
recovery and edge control only when its faults list a ``Crash``, so
withdrawing a pending ``Crash`` from a paused serving run does not give
the run that was built without it.

The park survives fault-only adoptions: dropping a pending fault leaves
the pre-fault prefix untouched, so when the shrinker adopts a candidate
that merely sheds faults, the existing fork point still answers every
later fault-subset candidate (judged against the *parked* recipe, not
the moving base).  Only an adoption that changes something else — an op,
a size, a knob — invalidates the park; the next eligible probe re-parks
at the new base.  Without ``os.fork`` every probe is cold and the result
is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..verify.fuzz import ScenarioRun, _judge, run_scenario
from .fork import HAVE_FORK, ForkPoint

__all__ = ["ShrinkStats", "CheckpointedShrinker"]


@dataclass
class ShrinkStats:
    """Probe accounting for one shrink session."""

    fast_probes: int = 0  # answered from the fork point
    cold_probes: int = 0  # full re-executions from t=0
    reparks: int = 0  # fork points built (incl. the first)


def _dropped_fault_indices(base: dict, cand: dict) -> Optional[tuple[int, ...]]:
    """Indices of the faults of ``base["sc"]`` absent from ``cand["sc"]``.

    Returns None unless the recipe ``cand`` equals ``base`` with an
    (order-preserving) subset of its faults — the only candidate shape a
    parked fork point can answer.
    """
    have, keep = base["sc"].faults, cand["sc"].faults
    if {**cand, "sc": replace(cand["sc"], faults=have)} != base:
        return None
    dropped = []
    j = 0
    for i, f in enumerate(have):
        if j < len(keep) and keep[j] == f:
            j += 1
        else:
            dropped.append(i)
    if j != len(keep):  # cand has faults base doesn't: not a subset
        return None
    return tuple(dropped)


def _probe(run: ScenarioRun, dropped: tuple[int, ...]) -> bool:
    """Grandchild body: withdraw the dropped faults, finish, report failure."""
    for i in dropped:
        run.faults.cancel_pending(i)
    return not _judge("protocol", run.sc.seed, run).ok


class CheckpointedShrinker:
    """A ``fails`` oracle for :func:`~repro.verify.fuzz.shrink` on a
    ``protocol`` result that answers fault-drop candidates from a mid-run
    checkpoint.

    Use as a context manager (the parked child holds a live process)::

        with CheckpointedShrinker(res.recipe) as oracle:
            small = shrink(res, fails=oracle.fails)
        print(oracle.stats)
    """

    def __init__(self, recipe: dict) -> None:
        self.stats = ShrinkStats()
        self._base = recipe  # last recipe known to fail
        self._fp: Optional[ForkPoint] = None
        self._parked_at: Optional[dict] = None

    # -- fork-point lifecycle -------------------------------------------

    def _park_time(self, recipe: dict) -> Optional[int]:
        """Pause instant for ``recipe``: just before its earliest fault."""
        faults = recipe["sc"].faults
        if not HAVE_FORK or not faults:
            return None
        t = min(f.at_ns for f in faults) - 1
        return t if t > 0 else None

    def _ensure_parked(self) -> bool:
        """Park at the current base if no live park exists.

        An existing park is kept as-is — callers judge candidate
        eligibility against ``_parked_at``, which stays valid across
        fault-only base changes (invalidation happens at adoption time).
        """
        if self._fp is not None:
            return True
        t = self._park_time(self._base)
        if t is None:
            return False
        base = self._base

        def setup() -> ScenarioRun:
            run = ScenarioRun(**base)
            run.run_to(t)
            return run

        try:
            self._fp = ForkPoint(setup, _probe)
        except RuntimeError:
            return False
        self._parked_at = base
        self.stats.reparks += 1
        return True

    def _unpark(self) -> None:
        if self._fp is not None:
            self._fp.close()
            self._fp = None
            self._parked_at = None

    # -- the oracle ------------------------------------------------------

    def fails(self, cand: dict) -> bool:
        # Eligibility is judged against the parked recipe when a park
        # exists (a probe cancels the faults the candidate lacks relative
        # to *it*); otherwise against the base we would park at.
        ref = self._parked_at if self._fp is not None else self._base
        dropped = _dropped_fault_indices(ref, cand)
        failed = None
        if dropped is not None and self._ensure_parked():
            try:
                failed = self._fp.call(dropped)
                self.stats.fast_probes += 1
            except RuntimeError:
                # Parked child died (e.g. probe crashed the fork server):
                # rebuild lazily next time, answer this one cold.
                self._unpark()
        if failed is None:
            failed = not run_scenario(**cand).ok
            self.stats.cold_probes += 1
        if failed:
            # The shrinker adopts failing candidates as its new base.  A
            # fault-only adoption leaves the pre-fault prefix — and hence
            # the park — intact; anything else makes it stale (closed
            # now, rebuilt lazily at the new base on demand).
            self._base = cand
            if self._fp is not None and (
                _dropped_fault_indices(self._parked_at, cand) is None
            ):
                self._unpark()
        return failed

    def close(self) -> None:
        self._unpark()

    def __enter__(self) -> "CheckpointedShrinker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


"""The one lifecycle every run shares, and what rebuilds one.

A :class:`Run` subclass only builds (``__init__``) and reports
(``_report``); :class:`Run` pauses, finishes and rebuilds it.
:mod:`repro.checkpoint` restores a run by building it again and replaying
to the captured instant.  What builds it again is the constructor call
itself: :class:`Run` records the bound arguments, defaults applied, before
``__init__`` runs, so a parameter added to a subclass's signature is in the
recipe without being typed anywhere else.
"""

from __future__ import annotations

import inspect
from typing import Sequence

__all__ = ["Run", "drive"]


def drive(cluster, procs: Sequence, limit_ns: int, drain=None) -> int:
    """Run a workload to its end, then ``drain()`` (by default
    :meth:`~repro.bench.cluster.Cluster.quiesce`); returns the instant the
    workload ended.  Each process runs in turn until it finishes, within the
    absolute bound ``limit_ns`` (:class:`~repro.sim.SimulationError` past
    it); a workload of no process is open-loop and runs up to ``limit_ns``.
    """
    sim = cluster.sim
    for proc in procs:
        sim.run_until_done(proc, limit=limit_ns)
    if not procs:
        sim.run_until_time(limit_ns)
    end_ns = sim.now
    (drain or cluster.quiesce)()
    return end_ns


class Run:
    """One experiment on one cluster: built, optionally paused, finished.

    A subclass's ``__init__`` wires ``self.cluster``, the workload processes
    ``self.procs`` (none for an open-loop workload), their bound
    ``self.limit_ns`` and any ``self.monitor``, without advancing simulated
    time.  ``type(run)(**run.recipe)`` is the same run again.  An error that
    stops the run escapes ``run_to`` and ``finish``.
    """

    monitor = None  # an InvariantMonitor, final-checked once drained
    procs: Sequence = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Resolved once per class, not per run; ``self`` is not an argument.
        params = list(inspect.signature(cls.__init__).parameters.values())[1:]
        cls._signature = inspect.Signature(params)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls)
        bound = cls._signature.bind(*args, **kwargs)
        bound.apply_defaults()
        self.recipe = dict(bound.arguments)
        return self

    def state(self) -> dict:
        """Capture root for the checkpoint walker: all the run holds."""
        return {k: v for k, v in vars(self).items() if k != "recipe"}

    @property
    def workload_done(self) -> bool:
        """True once every workload process has finished."""
        return all(p._finished for p in self.procs)

    def run_to(self, time_ns: int) -> None:
        """Execute every event due at or before ``time_ns``, then pause (the
        clock stays at the last executed event) — never past the end of the
        workload, so ``run_to(T)`` + ``finish()`` is ``finish()``: this is
        :func:`drive`'s own sequence, bounded (DESIGN.md §8)."""
        sim = self.cluster.sim
        bound = min(time_ns, self.limit_ns)
        for proc in self.procs:
            sim.run_until_time(bound, proc)
            if not proc._finished:
                return
        if not self.procs:
            sim.run_until_time(bound)

    def finish(self):
        """Drive the workload to its end (``end_ns``), drain, run the
        monitor's final check, report."""
        self.end_ns = drive(self.cluster, self.procs, self.limit_ns, self._drain)
        if self.monitor is not None:
            self.monitor.final_check()
        return self._report()

    def _drain(self) -> None:
        self.cluster.quiesce()

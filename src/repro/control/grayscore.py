"""Differential gray-failure detection across the edge population.

A *gray* edge is alive enough to answer every heartbeat — the failure
detector (:mod:`repro.control.detector`) never fires — yet slow or lossy
enough to drag tail latency for everything striped across it.  Absolute
thresholds cannot catch this: a loaded-but-healthy fabric and a gray rail
look identical to any single edge's monitor.

The :class:`GrayScorer` therefore compares *peers*.  Every
:data:`CHECK_INTERVAL_NS` it collects the per-edge EWMAs the health monitors
already maintain (RTT, probe loss, TX-ring backlog) over the population
of UP/DEGRADED edges it watches, takes the population median of each,
and flags edges that deviate from the median by more than a margin.  An
edge flagged :data:`DEGRADE_AFTER` consecutive checks enters the DEGRADED
lifecycle state; one clean for :data:`RECOVER_AFTER` checks returns to UP.
Hysteresis on both sides keeps a noisy sample from flapping the state.

DEGRADED is deliberately gentle: the rail keeps carrying traffic and its
probes keep flowing, but the scorer installs a score *cap*
(:attr:`~repro.control.lifecycle.EdgeLifecycleManager.gray_cap`) so the
adaptive striping policy drains weight off the gray rail long before the
probe path could ever declare it SUSPECT.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..sim import Simulator
from .detector import EdgeState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .lifecycle import EdgeLifecycleManager

__all__ = ["GrayScorer"]

# Population comparison period.
CHECK_INTERVAL_NS = 1_000_000
# An edge is deviant whose RTT EWMA exceeds RTT_FACTOR times the population
# median, or whose loss or TX-backlog EWMA exceeds the median by more than
# these margins.
RTT_FACTOR = 2.0
LOSS_MARGIN = 0.15
BACKLOG_MARGIN = 0.25
# Below this many comparable edges no median is trustworthy.
MIN_POPULATION = 3
# Consecutive deviant checks that mark an edge DEGRADED, and consecutive
# clean checks that return it to UP.
DEGRADE_AFTER = 2
RECOVER_AFTER = 2
# Striping score cap while DEGRADED.
DEGRADED_SCORE = 0.2


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class GrayScorer:
    """Population-median outlier detection over watched edge managers."""

    def __init__(
        self,
        sim: Simulator,
        managers: Optional[list["EdgeLifecycleManager"]] = None,
        name: str = "grayscore",
    ) -> None:
        self.sim = sim
        self.managers: list["EdgeLifecycleManager"] = []
        # Hysteresis counters keyed by (manager index, rail); manager
        # index (list position) keeps iteration order deterministic.
        self._deviant_streak: dict[tuple[int, int], int] = {}
        self._clean_streak: dict[tuple[int, int], int] = {}
        self.checks = 0
        self.degrade_marks = 0
        self.degrade_clears = 0
        self._running = True
        for mgr in managers or []:
            self.watch(mgr)
        sim.process(self._body(), name=name)

    def watch(self, manager: "EdgeLifecycleManager") -> None:
        """Add a connection endpoint's edges to the compared population."""
        self.managers.append(manager)

    def stop(self) -> None:
        self._running = False

    @property
    def flagged(self) -> list[tuple[int, int]]:
        """Currently-DEGRADED (manager index, rail) pairs."""
        out = []
        for mi, mgr in enumerate(self.managers):
            for rail, det in enumerate(mgr.detectors):
                if det.state is EdgeState.DEGRADED:
                    out.append((mi, rail))
        return out

    # -- periodic comparison ----------------------------------------------

    def _body(self):
        while self._running:
            yield CHECK_INTERVAL_NS
            if not self._running:
                return
            self._check()

    def _population(self) -> list[tuple[int, "EdgeLifecycleManager", int]]:
        """Comparable edges: UP or DEGRADED, with at least one acked probe."""
        pop = []
        for mi, mgr in enumerate(self.managers):
            for rail, det in enumerate(mgr.detectors):
                if det.state not in (EdgeState.UP, EdgeState.DEGRADED):
                    continue
                if mgr.monitors[rail].probes_acked == 0:
                    continue
                pop.append((mi, mgr, rail))
        return pop

    def _check(self) -> None:
        self.checks += 1
        pop = self._population()
        if len(pop) < MIN_POPULATION:
            return
        rtt_med = _median([m.monitors[r].rtt_ewma_ns for _, m, r in pop])
        loss_med = _median([m.monitors[r].loss_ewma for _, m, r in pop])
        backlog_med = _median([m.monitors[r].backlog_ewma for _, m, r in pop])
        for mi, mgr, rail in pop:
            mon = mgr.monitors[rail]
            deviant = (
                (rtt_med > 0 and mon.rtt_ewma_ns > RTT_FACTOR * rtt_med)
                or mon.loss_ewma > loss_med + LOSS_MARGIN
                or mon.backlog_ewma > backlog_med + BACKLOG_MARGIN
            )
            key = (mi, rail)
            if deviant:
                self._clean_streak[key] = 0
                streak = self._deviant_streak.get(key, 0) + 1
                self._deviant_streak[key] = streak
                if (
                    streak >= DEGRADE_AFTER
                    and mgr.detectors[rail].state is EdgeState.UP
                ):
                    self._mark(mgr, rail)
            else:
                self._deviant_streak[key] = 0
                streak = self._clean_streak.get(key, 0) + 1
                self._clean_streak[key] = streak
                if (
                    streak >= RECOVER_AFTER
                    and mgr.detectors[rail].state is EdgeState.DEGRADED
                ):
                    self._clear(mgr, rail)

    # -- acting on a verdict -----------------------------------------------

    def _mark(self, mgr: "EdgeLifecycleManager", rail: int) -> None:
        self.degrade_marks += 1
        mgr.detectors[rail].mark_degraded(self.sim.now)
        mgr.gray_cap[rail] = DEGRADED_SCORE
        mgr._push_score(rail)

    def _clear(self, mgr: "EdgeLifecycleManager", rail: int) -> None:
        self.degrade_clears += 1
        mgr.gray_cap.pop(rail, None)
        mgr.detectors[rail].clear_degraded(self.sim.now)
        mgr._push_score(rail)

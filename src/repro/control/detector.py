"""Per-edge failure detection: an explicit lifecycle state machine.

Every edge (rail) of a connection owns one :class:`EdgeFailureDetector`
fed by the health monitor's probe outcomes.  The machine is:

::

    UP --(losses / low score)--> SUSPECT --(confirm window)--> DOWN
     ^ |                          ^ |                            |
     | +--(differential flag)--+  | |                            |
     |   (score recovers)      |  | |                            |
     +-------------------------|--+ |                 (probe answered)
     ^                         v    |                            |
     |      (flag clears)  DEGRADED-+ (losses / low score)       |
     +---------------------+   |                                 |
     ^                                                           |
     +--(RECOVERY_PROBES successes)-- RECOVERING <---------------+
                                          |
                                          +--(any loss)--> DOWN

DEGRADED sits *between* UP and SUSPECT: the edge still answers probes
(no failure detector would ever fire) but the differential gray scorer
(:mod:`repro.control.grayscore`) found its RTT/loss/backlog EWMAs to be
population outliers.  A DEGRADED edge keeps carrying traffic — the
adaptive striping policy just drains it — and can still escalate to
SUSPECT/DOWN through the ordinary probe path.

Detection latency is bounded by the constants alone
(:data:`DETECT_BOUND_NS`), which is what the failover
acceptance test asserts against.  The machine is pure bookkeeping — no
simulator access — so it is unit-testable by driving it with synthetic
probe outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

__all__ = ["EdgeState", "EdgeFailureDetector", "EdgeTransition"]


class EdgeState(Enum):
    """Lifecycle state of one edge (rail) of a connection."""

    UP = "up"
    DEGRADED = "degraded"  # gray: alive but a population outlier
    SUSPECT = "suspect"
    DOWN = "down"
    RECOVERING = "recovering"

    def __str__(self) -> str:  # compact trace payloads
        return self.value


# The probe-path health score below which an edge is suspect.
SUSPECT_SCORE = 0.5


# Detect/confirm windows, sized for 1-GbE rails with deep TX rings: a probe
# stuck behind a full 256-frame ring plus a loaded switch queue can take a
# few milliseconds legitimately, so the probe timeout must not declare a
# merely *congested* rail lost.
PROBE_INTERVAL_NS = 500_000  # heartbeat period per edge
PROBE_TIMEOUT_NS = 4_000_000  # unanswered probe counts as lost
SUSPECT_AFTER_LOSSES = 2  # consecutive losses before SUSPECT
CONFIRM_WINDOW_NS = 1_000_000  # SUSPECT must persist this long
RECOVERY_PROBES = 2  # successes needed to leave RECOVERING

# Worst-case ns from edge death to the DOWN transition: SUSPECT_AFTER_LOSSES
# probe periods accumulate the losses, the last lost probe surfaces after
# PROBE_TIMEOUT_NS, the SUSPECT state must age CONFIRM_WINDOW_NS, and the
# confirming loss can lag one further period plus its own timeout-resolution
# slack.
DETECT_BOUND_NS = (
    SUSPECT_AFTER_LOSSES * PROBE_INTERVAL_NS
    + PROBE_TIMEOUT_NS
    + CONFIRM_WINDOW_NS
    + 2 * PROBE_INTERVAL_NS
)


@dataclass(slots=True)
class EdgeTransition:
    """One recorded state change of one edge."""

    time_ns: int
    rail: int
    old: EdgeState
    new: EdgeState
    reason: str


class EdgeFailureDetector:
    """State machine for one edge, driven by probe outcomes."""

    def __init__(
        self,
        rail: int,
        on_transition: Optional[
            Callable[[int, EdgeState, EdgeState, int, str], None]
        ] = None,
    ) -> None:
        self.rail = rail
        self.on_transition = on_transition
        self.state = EdgeState.UP
        self.consecutive_losses = 0
        self.recovery_successes = 0
        self.suspect_since: Optional[int] = None
        self.down_since: Optional[int] = None
        self.degraded_since: Optional[int] = None
        self.transitions = 0

    def _move(self, new: EdgeState, now: int, reason: str) -> None:
        old = self.state
        if new is old:
            return
        self.state = new
        self.transitions += 1
        if new is EdgeState.SUSPECT:
            self.suspect_since = now
            self.degraded_since = None
        elif new is EdgeState.DOWN:
            self.down_since = now
            self.recovery_successes = 0
            self.degraded_since = None
        elif new is EdgeState.UP:
            self.consecutive_losses = 0
            self.suspect_since = None
            self.down_since = None
            self.degraded_since = None
        elif new is EdgeState.RECOVERING:
            self.recovery_successes = 1
        elif new is EdgeState.DEGRADED:
            self.degraded_since = now
        if self.on_transition is not None:
            self.on_transition(self.rail, old, new, now, reason)

    # -- probe outcomes (called by the health monitor) --------------------

    def on_probe_success(self, now: int, score: float) -> None:
        self.consecutive_losses = 0
        state = self.state
        if state is EdgeState.UP or state is EdgeState.DEGRADED:
            # DEGRADED behaves like UP to the probe path: recovery back to
            # UP belongs to the differential scorer, escalation stays here.
            if score < SUSPECT_SCORE:
                self._move(EdgeState.SUSPECT, now, f"score {score:.2f}")
        elif state is EdgeState.SUSPECT:
            if score >= SUSPECT_SCORE:
                self._move(EdgeState.UP, now, "score recovered")
        elif state is EdgeState.DOWN:
            self._move(EdgeState.RECOVERING, now, "probe answered")
            if self.recovery_successes >= RECOVERY_PROBES:
                self._move(EdgeState.UP, now, "recovery confirmed")
        elif state is EdgeState.RECOVERING:
            self.recovery_successes += 1
            if self.recovery_successes >= RECOVERY_PROBES:
                self._move(EdgeState.UP, now, "recovery confirmed")

    def on_probe_loss(self, now: int, score: float) -> None:
        self.consecutive_losses += 1
        state = self.state
        if state is EdgeState.UP or state is EdgeState.DEGRADED:
            if (
                self.consecutive_losses >= SUSPECT_AFTER_LOSSES
                or score < SUSPECT_SCORE
            ):
                self._move(
                    EdgeState.SUSPECT,
                    now,
                    f"{self.consecutive_losses} consecutive losses",
                )
        elif state is EdgeState.SUSPECT:
            since = self.suspect_since if self.suspect_since is not None else now
            if now - since >= CONFIRM_WINDOW_NS:
                self._move(EdgeState.DOWN, now, "confirm window elapsed")
        elif state is EdgeState.RECOVERING:
            self._move(EdgeState.DOWN, now, "loss during recovery")

    # -- differential gray scoring (repro.control.grayscore) ---------------

    def mark_degraded(self, now: int, reason: str = "differential") -> None:
        """Flag a population-outlier edge; legal only from UP."""
        if self.state is EdgeState.UP:
            self._move(EdgeState.DEGRADED, now, reason)

    def clear_degraded(self, now: int, reason: str = "differential") -> None:
        """The outlier flag cleared; DEGRADED returns to UP."""
        if self.state is EdgeState.DEGRADED:
            self._move(EdgeState.UP, now, reason)

    # -- external overrides ----------------------------------------------

    def force_down(self, now: int, reason: str = "administrative") -> None:
        """Administrative removal."""
        if self.state is not EdgeState.DOWN:
            self._move(EdgeState.DOWN, now, reason)

    def force_up(self, now: int, reason: str = "administrative") -> None:
        if self.state is not EdgeState.UP:
            self._move(EdgeState.UP, now, reason)

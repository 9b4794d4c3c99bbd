"""Shared machinery for window-adapting controllers (AIMD, DCTCP).

Keeps the congestion window as a float (so sub-frame additive increase
accumulates) and mirrors it into ``window.cwnd`` as an integer clamped to
``[MIN_CWND_FRAMES, window.size]``.  Also maintains a smoothed RTT from
Karn-filtered ack samples, which feeds the optional pacing rate
``cwnd_bytes / srtt * headroom``.
"""

from __future__ import annotations

from typing import Optional

from .base import (
    ADDITIVE_INCREASE_FRAMES,
    FULL_FRAME_WIRE_BYTES,
    MD_FACTOR,
    MIN_CWND_FRAMES,
    PACING_HEADROOM,
    RTT_GAIN,
    RTT_INIT_NS,
    CongestionController,
)


class AdaptiveController(CongestionController):
    """Base for controllers that actually move the window."""

    active = True

    def __init__(self, window, pacing: bool = False) -> None:
        super().__init__(window, pacing)
        # The window opens fully, at the flow-control cap.
        self._cwnd = float(window.size)
        self._srtt_ns = float(RTT_INIT_NS)
        # Loss/timeout reactions are rate-limited to once per smoothed
        # RTT: every drop in one overfull-queue episode is the same
        # congestion event and must cut the window only once.
        self._last_cut_ns = -(1 << 62)
        self._apply_cwnd()

    # -- window bookkeeping ----------------------------------------------

    def _apply_cwnd(self) -> None:
        lo = float(MIN_CWND_FRAMES)
        hi = float(self.window.size)
        if self._cwnd < lo:
            self._cwnd = lo
        elif self._cwnd > hi:
            self._cwnd = hi
        self.window.cwnd = int(self._cwnd)

    def _additive_increase(self, freed: int) -> None:
        # Classic congestion avoidance: +ai/cwnd per acked frame adds
        # ~ai frames per round trip regardless of ack coalescing.
        self._cwnd += ADDITIVE_INCREASE_FRAMES * freed / self._cwnd

    def _cut(self, now: int) -> bool:
        if now - self._last_cut_ns < self._srtt_ns:
            return False
        self._last_cut_ns = now
        self._cwnd *= MD_FACTOR
        return True

    def cwnd_stable(self, now: int) -> bool:
        """Stable once the window sits at the flow-control cap and no cut
        happened within the last few round trips (a recent cut means the
        controller is still probing back up, so frame-level dynamics
        matter)."""
        return (
            int(self._cwnd) >= self.window.size
            and now - self._last_cut_ns >= 4 * self._srtt_ns
        )

    def _note_rtt(self, rtt_sample_ns: Optional[int]) -> None:
        if rtt_sample_ns is None or rtt_sample_ns <= 0:
            return
        self._srtt_ns += RTT_GAIN * (rtt_sample_ns - self._srtt_ns)

    # -- pacing -----------------------------------------------------------

    def pacing_rate_bps(self) -> Optional[float]:
        if not self.pacing:
            return None
        return (
            self._cwnd
            * FULL_FRAME_WIRE_BYTES
            * 8
            * 1e9
            / self._srtt_ns
            * PACING_HEADROOM
        )

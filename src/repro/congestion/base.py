"""The congestion-controller base class, shared by AIMD and DCTCP.

The paper's protocol has *flow control* (a fixed window bounds in-flight
frames against receiver buffering) but no *congestion control*: under
many-to-one traffic the switch queue overflows and nothing reacts.  That
is the default, ``congestion="static"``, and the connection then has no
controller (``Connection.congestion`` is None).  A controller owns a
congestion window (cwnd, frames) under the flow-control window
(``SendWindow.size`` stays the hard cap), reacts to acks, ECN echoes,
NACK-driven losses and coarse timeouts, and may expose a pacing rate the
NIC token bucket enforces.  It sees only a duck-typed window (``size``,
``cwnd``), so this package does not import :mod:`repro.core`.

The base keeps cwnd as a float (sub-frame additive increase accumulates),
mirrors it into ``window.cwnd`` clamped to ``[MIN_CWND_FRAMES,
window.size]``, smooths Karn-filtered RTT samples for the pacing rate
``cwnd_bytes / srtt * headroom``, and owns the reactions both controllers
share: a NACK-driven loss halves cwnd and a coarse timeout (NACK recovery
already failed: the fabric is badly oversubscribed) collapses it to
``MIN_CWND_FRAMES``, each at most once per smoothed RTT.  Subclasses
supply :meth:`CongestionController.on_ack`: AIMD (TCP Reno) in
:mod:`repro.congestion.aimd`, DCTCP in :mod:`repro.congestion.dctcp`.
"""

from __future__ import annotations

from typing import Optional

from ..ethernet.frame import ETH_MTU, ETH_OVERHEAD_BYTES

__all__ = ["CongestionController"]

# Wire bytes of a full-MTU frame; pacing converts cwnd (frames) to bits/s.
FULL_FRAME_WIRE_BYTES = ETH_MTU + ETH_OVERHEAD_BYTES
# Additive increase: frames added to cwnd per round trip of acks.
ADDITIVE_INCREASE_FRAMES = 1.0
# Multiplicative decrease factor applied on loss (AIMD and DCTCP).
MD_FACTOR = 0.5
# SRTT EWMA gain for the pacing-rate estimate.
RTT_GAIN = 0.125
# Token-bucket pacing: rate headroom over cwnd/srtt, and burst allowance.
PACING_HEADROOM = 1.25
PACING_BURST_FRAMES = 8
# Floor for the congestion window; cwnd never drops below this.
MIN_CWND_FRAMES = 2
# DCTCP: gain of the marked-fraction EWMA (the paper's g = 1/16).
DCTCP_G = 1.0 / 16.0
# Seed RTT before the first sample (pacing only).
RTT_INIT_NS = 200_000


class CongestionController:
    """Per-connection congestion policy: the connection calls
    :meth:`on_ack` / :meth:`on_loss` / :meth:`on_timeout` and applies
    :meth:`pacing_rate_bps` to its NICs after each event."""

    def __init__(self, window, pacing: bool = False) -> None:
        self.window = window
        # Token-bucket pacing (PACING_HEADROOM, PACING_BURST_FRAMES).
        self.pacing = pacing
        # The window opens fully, at the flow-control cap.
        self._cwnd = float(window.size)
        self._srtt_ns = float(RTT_INIT_NS)
        # Loss/timeout reactions are rate-limited to once per smoothed
        # RTT: every drop in one overfull-queue episode is the same
        # congestion event and must cut the window only once.
        self._last_cut_ns = -(1 << 62)
        self._apply_cwnd()

    @property
    def cwnd_frames(self) -> int:
        """Current congestion window in frames."""
        return self.window.cwnd

    # -- events ------------------------------------------------------------

    def on_ack(
        self,
        freed: int,
        ece: bool,
        now: int,
        rtt_sample_ns: Optional[int] = None,
    ) -> None:
        """``freed`` frames were cumulatively acknowledged; ``ece`` is the
        ack's ECN echo (one echo covers the whole delayed-ack batch) and
        ``rtt_sample_ns`` a Karn-filtered RTT sample, or None."""
        raise NotImplementedError

    def on_loss(self, now: int) -> None:
        """A NACK-driven retransmission was enqueued (frame loss signal)."""
        if self._cut(now):
            self._apply_cwnd()

    def on_timeout(self, now: int) -> None:
        """The coarse retransmission timer fired (severe congestion)."""
        if now - self._last_cut_ns < self._srtt_ns:
            return
        self._last_cut_ns = now
        self._cwnd = float(MIN_CWND_FRAMES)
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
        """Is cwnd in analytic steady state?  The fast path
        (:mod:`repro.fastpath`) only jumps while it is: at the flow-control
        cap, and no cut within the last few round trips (the controller
        would still be probing back up)."""
        return (
            int(self._cwnd) >= self.window.size
            and now - self._last_cut_ns >= 4 * self._srtt_ns
        )

    def _note_rtt(self, rtt_sample_ns: Optional[int]) -> None:
        if rtt_sample_ns is None or rtt_sample_ns <= 0:
            return
        self._srtt_ns += RTT_GAIN * (rtt_sample_ns - self._srtt_ns)

    # -- pacing -----------------------------------------------------------

    def pacing_rate_bps(self) -> float:
        """Rate for the NIC token bucket (read only when ``pacing``)."""
        return (
            self._cwnd
            * FULL_FRAME_WIRE_BYTES
            * 8
            * 1e9
            / self._srtt_ns
            * PACING_HEADROOM
        )

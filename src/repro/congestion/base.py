"""Congestion-controller interface and the static (paper) policy.

The paper's sliding-window protocol has *flow control* (a fixed window
bounds in-flight frames against receiver buffering) but no *congestion
control*: under many-to-one traffic the switch output queue overflows and
frames drop with nothing above reacting.  A
:class:`CongestionController` closes that loop per connection: it owns a
congestion window (cwnd, in frames) layered under the flow-control window
(``SendWindow.size`` stays the hard cap), reacts to acknowledgements,
ECN echoes, NACK-driven losses, and coarse timeouts, and optionally
exposes a pacing rate the NIC token bucket enforces.

Controllers are deliberately decoupled from :mod:`repro.core`: they see a
duck-typed window object (``size``, ``cwnd``) and receive events from the
connection, so this package has no import cycle with the protocol core.

Three implementations ship:

* :class:`StaticWindow` — the paper's behaviour: cwnd pinned to the flow
  window, no reactions.  ``active`` is False, so the connection skips
  every hot-path hook and the event trace is bit-identical to a build
  without this subsystem.  This is the default.
* :class:`~repro.congestion.aimd.AimdController` — TCP-Reno-style
  additive increase / multiplicative decrease on loss.
* :class:`~repro.congestion.dctcp.DctcpController` — DCTCP: an EWMA of
  the ECN-marked fraction scales the decrease.
"""

from __future__ import annotations

from typing import Optional

from ..ethernet.frame import ETH_MTU, ETH_OVERHEAD_BYTES

__all__ = [
    "CongestionController",
    "StaticWindow",
]

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
    """Per-connection congestion policy.

    The connection calls :meth:`on_ack` / :meth:`on_loss` /
    :meth:`on_timeout` from its protocol state machine and applies
    :meth:`pacing_rate_bps` to its NICs after each event.  Controllers
    write their window through ``window.cwnd`` (frames); ``None`` means
    "no congestion limit", which is what the static policy leaves in
    place so the flow-control arithmetic is untouched.
    """

    name = "static"
    # When False the connection skips every hot-path hook (single
    # attribute test at attach time, zero per-event cost).
    active = False

    def __init__(self, window, pacing: bool = False) -> None:
        self.window = window
        # Token-bucket pacing (PACING_HEADROOM, PACING_BURST_FRAMES).
        self.pacing = pacing

    # -- observability ---------------------------------------------------

    @property
    def cwnd_frames(self) -> int:
        """Current congestion window in frames (static: the flow window)."""
        cwnd = self.window.cwnd
        return self.window.size if cwnd is None else cwnd

    @property
    def marked_fraction(self) -> float:
        """Controller's running estimate of the ECN-marked fraction."""
        return 0.0

    # -- events (no-ops for the static policy) ---------------------------

    def on_ack(
        self,
        freed: int,
        ece: bool,
        now: int,
        rtt_sample_ns: Optional[int] = None,
    ) -> None:
        """``freed`` frames were cumulatively acknowledged.

        ``ece`` is the ECN-echo bit of the acknowledgement: with delayed
        acks one echo covers the whole freed batch (the standard DCTCP
        coarsening).  ``rtt_sample_ns`` is a Karn-filtered RTT sample or
        None when the newest freed frame had been retransmitted.
        """

    def on_loss(self, now: int) -> None:
        """A NACK-driven retransmission was enqueued (frame loss signal)."""

    def on_timeout(self, now: int) -> None:
        """The coarse retransmission timer fired (severe congestion)."""

    def pacing_rate_bps(self) -> Optional[float]:
        """Rate for the NIC token bucket, or None to transmit unpaced."""
        return None

    def cwnd_stable(self, now: int) -> bool:
        """Is the congestion window in analytic steady state?

        The fast-forward detector (:mod:`repro.fastpath`) only arms while
        this holds: the closed-form transfer model assumes the window
        neither grows nor gets cut mid-jump.  The static policy imposes
        no congestion limit, so it is always stable.
        """
        return True


class StaticWindow(CongestionController):
    """Today's behaviour: the flow-control window is the only limit.

    Selected by default.  Leaves ``window.cwnd`` at None and reacts to
    nothing, so every frame trace is bit-identical to the pre-congestion
    protocol.
    """

    name = "static"
    active = False

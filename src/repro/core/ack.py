"""Acknowledgement policy (paper §2.4).

MultiEdge minimises explicit acknowledgement traffic three ways:

* **piggy-backing** — every outgoing sequenced frame carries the current
  cumulative ack, and doing so counts as having acknowledged;
* **delayed acks** — an explicit ACK is deferred until ``ack_every_frames``
  data frames have arrived unacknowledged, or until :data:`ACK_DELAY_NS`
  passes (whichever first);
* **NACK scheduling** — a sequence gap does not trigger an immediate NACK
  (with multiple links, gaps are usually just striping reorder and fill in
  microseconds); instead a NACK timer is armed, and fires only if the gap
  persists for :data:`NACK_DELAY_NS`.

The policy object is pure decision logic; the connection owns the timers
and the actual frame transmission.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AckPolicyParams", "AckPolicy"]

# An explicit ack leaves at most this long after the first unacked frame.
ACK_DELAY_NS = 400_000
# A sequence gap must persist this long to be NACKed.
NACK_DELAY_NS = 400_000
# Per-sequence NACK repetition floor.
RENACK_INTERVAL_NS = 600_000
# Missing sequences named per NACK frame.
NACK_MAX_ENTRIES = 64


@dataclass
class AckPolicyParams:
    """Tunables for the acknowledgement policy."""

    ack_every_frames: int = 32  # explicit ack after this many unacked frames

    def __post_init__(self) -> None:
        if self.ack_every_frames < 1:
            raise ValueError("ack_every_frames must be >= 1")


class AckPolicy:
    """Decides when an explicit acknowledgement is owed."""

    def __init__(self, params: AckPolicyParams | None = None) -> None:
        self.params = params or AckPolicyParams()
        self._unacked_frames = 0
        self._last_acked_value = 0
        #: True while an ECN echo is owed to the sender: a Congestion-
        #: Experienced frame arrived since the last ack left this node, so
        #: outgoing acks carry the ECN-echo bit.
        self.echo_pending = False

    @property
    def frames_pending_ack(self) -> int:
        return self._unacked_frames

    def note_ce(self) -> None:
        """A received sequenced frame carried the CE mark (new or dup)."""
        self.echo_pending = True

    def note_echo_sent(self) -> None:
        """An ECN echo left on a frame that is not an acknowledgement for
        delayed-ack purposes (a NACK or a retransmission): clear only the
        CE debt, leaving the unacked-frame count untouched."""
        self.echo_pending = False

    def on_data_frame(self) -> bool:
        """Register a received data frame; True if an explicit ack is due now."""
        self._unacked_frames += 1
        return self._unacked_frames >= self.params.ack_every_frames

    def needs_delayed_ack(self, current_cum_ack: int) -> bool:
        """Whether the delayed-ack timer, on firing, should emit an ack."""
        return (
            self._unacked_frames > 0 or current_cum_ack != self._last_acked_value
        )

    def on_ack_emitted(self, cum_ack: int, piggybacked: bool) -> None:
        """Reset state after ack information left this node.

        Both explicit acks and piggy-backed acks count (paper: piggy-backing
        reduces the number of explicit acknowledgements).  Any pending ECN
        echo rode out with the ack, so the CE debt clears too.
        """
        self._unacked_frames = 0
        self._last_acked_value = cum_ack
        self.echo_pending = False

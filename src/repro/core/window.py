"""Sliding-window flow control (paper §2.4).

The window operates on an Ethernet-frame basis with a fixed size chosen at
construction ("the size of the window is set at compile time").  Two state
machines live here:

* :class:`SendWindow` — tracks in-flight (sent, unacknowledged) frames,
  admits new transmissions while fewer than ``size`` frames are in flight,
  frees state on cumulative acks, and hands back frames for NACK- or
  timeout-driven retransmission.
* :class:`ReceiveTracker` — tracks the next expected sequence number and the
  set of out-of-order arrivals beyond it, yielding the cumulative ack value,
  duplicate detection, gap lists for NACKs, and the out-of-order statistics
  the paper analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..ethernet import Frame

__all__ = ["SendWindow", "ReceiveTracker", "InflightFrame"]

DEFAULT_WINDOW_FRAMES = 256


@dataclass(slots=True)
class InflightFrame:
    """Book-keeping for one unacknowledged frame.

    ``op`` is the sender-side ``Operation`` the frame belongs to: the one
    record of which operation an ack completes.  ``last_rail`` records the
    rail the most recent (re)transmission used, so the edge lifecycle
    control plane can migrate exactly the frames stranded on a dead rail.
    """

    frame: Frame
    op: Any
    first_sent_at: int
    last_sent_at: int = 0
    retransmits: int = 0
    last_rail: int = -1


class SendWindow:
    """Sender half of the sliding window."""

    def __init__(self, size: int = DEFAULT_WINDOW_FRAMES) -> None:
        if size < 1:
            raise ValueError("window size must be >= 1")
        self.size = size
        self.next_seq = 0
        # Congestion window (frames), set by a repro.congestion controller.
        # None — the static policy, which has no controller — means "no
        # congestion limit": the arithmetic below reduces exactly to the
        # fixed flow-control window.
        self.cwnd: Optional[int] = None
        # seq -> InflightFrame; dict preserves insertion (= seq) order.
        self.inflight: dict[int, InflightFrame] = {}

    @property
    def in_flight_count(self) -> int:
        return len(self.inflight)

    @property
    def limit(self) -> int:
        """Effective send limit: min(flow window, congestion window)."""
        cwnd = self.cwnd
        if cwnd is None or cwnd >= self.size:
            return self.size
        return cwnd

    @property
    def available(self) -> int:
        """How many new frames may enter the network right now."""
        cwnd = self.cwnd
        if cwnd is None:
            return self.size - len(self.inflight)
        limit = cwnd if cwnd < self.size else self.size
        avail = limit - len(self.inflight)
        # A controller may shrink cwnd below the in-flight count; the
        # excess drains via acks rather than being clawed back.
        return avail if avail > 0 else 0

    @property
    def can_send(self) -> bool:
        cwnd = self.cwnd
        if cwnd is None:
            return len(self.inflight) < self.size
        return len(self.inflight) < (cwnd if cwnd < self.size else self.size)

    def allocate_seq(self) -> int:
        """Claim the next sequence number (caller must then register)."""
        seq = self.next_seq
        self.next_seq += 1
        return seq

    def register(self, frame: Frame, op: Any, now: int, rail: int = -1) -> None:
        """Record a sequenced frame of operation ``op`` as in flight."""
        if not self.can_send:
            raise RuntimeError("window overflow: register() with a full window")
        self.inflight[frame.header.seq] = InflightFrame(
            frame=frame, op=op, first_sent_at=now, last_sent_at=now,
            last_rail=rail,
        )

    def on_ack(self, cum_ack: int) -> list[InflightFrame]:
        """Free every in-flight frame with ``seq < cum_ack``.

        Returns the freed records (the connection completes ops from them).
        Stale acks free nothing.
        """
        inflight = self.inflight
        freed: list[InflightFrame] = []
        # Records sit in seq order (registered in allocate_seq order, and a
        # retransmission never re-registers), so the freed ones are a prefix.
        for seq, rec in inflight.items():
            if seq >= cum_ack:
                break
            freed.append(rec)
        for rec in freed:
            del inflight[rec.frame.header.seq]
        return freed

    def get_for_retransmit(self, seq: int) -> Optional[InflightFrame]:
        """Look up an in-flight frame for retransmission (None if acked).

        Pure query: the ``retransmits`` counter is incremented by the caller
        at the point a retransmission is actually enqueued, never at lookup
        time, so repeated lookups cannot inflate the count.
        """
        return self.inflight.get(seq)

    def last_unacked(self) -> Optional[InflightFrame]:
        """The most recently sent unacknowledged frame (coarse timeout path).

        The paper retransmits "the last transmitted Ethernet frame" when the
        coarse timer fires, to provoke the receiver into (re)acknowledging.
        Pure query — see :meth:`get_for_retransmit` for why the retransmit
        counter is not touched here.
        """
        if not self.inflight:
            return None
        return self.inflight[max(self.inflight)]

    def oldest_unacked(self) -> Optional[InflightFrame]:
        if not self.inflight:
            return None
        return self.inflight[min(self.inflight)]

    def inflight_on_rail(self, rail: int) -> list[int]:
        """Sequence numbers whose latest transmission used ``rail``.

        Returned in sequence order — the control plane requeues them for
        retransmission in this order when the rail dies, so delivery
        ordering guarantees survive the migration unchanged.
        """
        return sorted(
            seq for seq, rec in self.inflight.items() if rec.last_rail == rail
        )


class ReceiveTracker:
    """Receiver half: cumulative ack state plus out-of-order bookkeeping."""

    def __init__(self) -> None:
        self.expected = 0  # next in-order sequence number
        self._beyond: set[int] = set()  # received seqs > expected

    @property
    def cum_ack(self) -> int:
        """Cumulative ack value: every seq < cum_ack has been received."""
        return self.expected

    def on_frame(self, seq: int) -> tuple[bool, bool]:
        """Record arrival of sequenced frame ``seq``.

        Returns ``(is_new, in_order)``:
        ``is_new`` False means duplicate (already received);
        ``in_order`` True means the frame had ``seq == expected`` on arrival.
        """
        if seq < self.expected or seq in self._beyond:
            return False, False
        if seq == self.expected:
            self.expected += 1
            # Absorb any previously buffered successors.
            while self.expected in self._beyond:
                self._beyond.remove(self.expected)
                self.expected += 1
            return True, True
        self._beyond.add(seq)
        return True, False

    def missing(self, limit: int = 64) -> list[int]:
        """Sequence numbers in the current gap window, oldest first.

        Stops as soon as ``limit`` gaps are collected, so a wide gap (a
        burst loss spanning thousands of sequence numbers) costs O(limit),
        not O(gap), on every NACK-timer fire.
        """
        beyond = self._beyond
        if not beyond:
            return []
        top = max(beyond)
        gaps: list[int] = []
        for s in range(self.expected, top):
            if s not in beyond:
                gaps.append(s)
                if len(gaps) >= limit:
                    break
        return gaps

    def has_gap(self) -> bool:
        return bool(self._beyond)

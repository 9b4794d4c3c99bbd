"""Protocol statistics counters.

One :class:`ConnectionStats` per connection endpoint.  These counters are
the raw material for the paper's network-level analysis:

* *extra frames* = explicit acks + nacks + retransmissions, reported as a
  fraction of data frames (paper: ≤5.5 % in micro-benchmarks, ≤15 % in
  applications),
* *out-of-order arrivals* = sequenced frames arriving with a sequence number
  different from the next expected one (paper: ≈0 % single link, 45–50 %
  with two links under round-robin striping),
* *reorder distance* histogram support (paper: "frames arrive out-of-order
  but closely spaced"),
* duplicates received (late retransmissions), frames dropped as detected by
  gap NACKs, and piggy-backed ack counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter

__all__ = ["ConnectionStats", "merge_stats"]


@dataclass(slots=True)
class ConnectionStats:
    """Counters for one connection endpoint (both directions)."""

    # Send side.
    ops_submitted: int = 0
    ops_completed: int = 0
    data_frames_sent: int = 0
    data_bytes_sent: int = 0
    retransmitted_frames: int = 0
    explicit_acks_sent: int = 0
    nacks_sent: int = 0
    piggybacked_acks: int = 0
    timeout_retransmits: int = 0
    nack_retransmits: int = 0
    # CPU-charge conservation: pump() bills its batch up front, then
    # reclassifies the unused remainder when the TX ring stalls the batch.
    # Invariant: pump_charged_ns == frames actually sent * PER_FRAME_SEND_NS.
    pump_charged_ns: int = 0
    pump_stalled_ns: int = 0

    # Edge lifecycle (control plane).
    edges_removed: int = 0
    edges_added: int = 0
    migrated_frames: int = 0
    probes_sent: int = 0
    probes_answered: int = 0

    # Receive side.
    data_frames_received: int = 0
    data_bytes_received: int = 0
    duplicate_frames: int = 0
    out_of_order_frames: int = 0
    buffered_frames: int = 0
    max_buffered_frames: int = 0
    reorder_distance_total: int = 0
    reorder_events: int = 0
    # Reorder-distance histogram: buckets 1, 2, 3, ..., 15, >=16.
    reorder_histogram: list = field(default_factory=lambda: [0] * 16)
    explicit_acks_received: int = 0
    nacks_received: int = 0
    notifications_delivered: int = 0

    # ECN (repro.congestion): CE-marked sequenced frames seen, and frames
    # (data, ack or nack) that carried the echo bit out / in.
    ce_frames_received: int = 0
    ecn_echoes_sent: int = 0
    ecn_echoes_received: int = 0

    # Crash recovery (repro.recovery): frames from a dead incarnation of
    # the peer dropped by the guard, and journal redeliveries deduplicated.
    stale_frames_rejected: int = 0
    duplicate_msgs_suppressed: int = 0

    def record_reorder(self, distance: int) -> None:
        self.reorder_events += 1
        self.reorder_distance_total += distance
        self.reorder_histogram[min(max(distance, 1), 16) - 1] += 1

    def record_buffered(self, depth: int) -> None:
        self.buffered_frames += 1
        if depth > self.max_buffered_frames:
            self.max_buffered_frames = depth

    @property
    def extra_frames_sent(self) -> int:
        """Frames beyond the minimum needed to move the data."""
        return self.explicit_acks_sent + self.nacks_sent + self.retransmitted_frames

    @property
    def extra_frame_fraction(self) -> float:
        """Extra frames / data frames sent (the paper's 'additional traffic')."""
        if self.data_frames_sent == 0:
            return 0.0
        return self.extra_frames_sent / self.data_frames_sent

    @property
    def out_of_order_fraction(self) -> float:
        if self.data_frames_received == 0:
            return 0.0
        return self.out_of_order_frames / self.data_frames_received

    @property
    def mean_reorder_distance(self) -> float:
        if self.reorder_events == 0:
            return 0.0
        return self.reorder_distance_total / self.reorder_events


def merge_stats(stats_list: list[ConnectionStats]) -> ConnectionStats:
    """Combine counters across connections (node- or cluster-level view).

    Driven by the dataclass fields, so a new counter merges without being
    named here: ``max_*`` fields take the maximum, list fields (the
    histogram) add element-wise, every other counter adds.  Each field is
    merged in one pass over its column of values.
    """
    return ConnectionStats(
        *[
            merge(column)
            for merge, column in zip(_MERGES, zip(*map(_ROW, stats_list)))
        ]
    )


def _add_elementwise(column) -> list:
    return [sum(bucket) for bucket in zip(*column)]


_FIELDS = tuple(f.name for f in fields(ConnectionStats))
_ROW = attrgetter(*_FIELDS)
_MERGES = tuple(
    max if name.startswith("max_")
    else _add_elementwise if isinstance(value, list)
    else sum
    for name, value in zip(_FIELDS, _ROW(ConnectionStats()))
)

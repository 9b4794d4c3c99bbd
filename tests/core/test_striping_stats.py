"""Unit tests for striping policies and statistics aggregation."""

from dataclasses import fields

import pytest

from repro.core import (
    ConnectionStats,
    RoundRobinStriping,
    ShortestQueueStriping,
    SingleRailStriping,
    make_striping_policy,
    merge_stats,
)
from repro.ethernet import Nic, NicParams
from repro.sim import Simulator


def make_nics(sim, count, ring=8):
    return [
        Nic(sim, NicParams(tx_ring_frames=ring, tx_jitter_ns=0), mac=i, name=f"n{i}")
        for i in range(count)
    ]


def fill_ring(nic, n):
    nic._tx_ring_used += n


class TestRoundRobin:
    def test_cycles_through_rails(self):
        sim = Simulator()
        policy = RoundRobinStriping(make_nics(sim, 3))
        assert [policy.next_rail() for _ in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_skips_full_rail(self):
        sim = Simulator()
        nics = make_nics(sim, 2, ring=4)
        policy = RoundRobinStriping(nics)
        fill_ring(nics[0], 4)
        assert [policy.next_rail() for _ in range(3)] == [1, 1, 1]

    def test_returns_none_when_all_full(self):
        sim = Simulator()
        nics = make_nics(sim, 2, ring=2)
        policy = RoundRobinStriping(nics)
        fill_ring(nics[0], 2)
        fill_ring(nics[1], 2)
        assert policy.next_rail() is None


class TestShortestQueue:
    def test_prefers_emptier_rail(self):
        sim = Simulator()
        nics = make_nics(sim, 2, ring=8)
        policy = ShortestQueueStriping(nics)
        fill_ring(nics[0], 5)
        assert policy.next_rail() == 1

    def test_none_when_all_full(self):
        sim = Simulator()
        nics = make_nics(sim, 2, ring=2)
        policy = ShortestQueueStriping(nics)
        fill_ring(nics[0], 2)
        fill_ring(nics[1], 2)
        assert policy.next_rail() is None


class TestSingleRail:
    def test_always_rail_zero(self):
        sim = Simulator()
        policy = SingleRailStriping(make_nics(sim, 2))
        assert [policy.next_rail() for _ in range(4)] == [0, 0, 0, 0]


def test_factory():
    sim = Simulator()
    nics = make_nics(sim, 2)
    assert isinstance(make_striping_policy("round_robin", nics), RoundRobinStriping)
    assert isinstance(
        make_striping_policy("shortest_queue", nics), ShortestQueueStriping
    )
    assert isinstance(make_striping_policy("single_rail", nics), SingleRailStriping)
    with pytest.raises(ValueError):
        make_striping_policy("nope", nics)
    with pytest.raises(ValueError):
        RoundRobinStriping([])


class TestStats:
    def test_extra_frame_fraction(self):
        s = ConnectionStats()
        s.data_frames_sent = 100
        s.explicit_acks_sent = 4
        s.retransmitted_frames = 1
        assert s.extra_frames_sent == 5
        assert s.extra_frame_fraction == pytest.approx(0.05)

    def test_fractions_zero_when_idle(self):
        s = ConnectionStats()
        assert s.extra_frame_fraction == 0.0
        assert s.out_of_order_fraction == 0.0
        assert s.mean_reorder_distance == 0.0

    def test_out_of_order_fraction(self):
        s = ConnectionStats()
        s.data_frames_received = 10
        s.out_of_order_frames = 5
        assert s.out_of_order_fraction == 0.5

    def test_record_buffered_tracks_max(self):
        s = ConnectionStats()
        s.record_buffered(3)
        s.record_buffered(1)
        assert s.buffered_frames == 2
        assert s.max_buffered_frames == 3

    def test_merge(self):
        a, b = ConnectionStats(), ConnectionStats()
        a.data_frames_sent = 10
        b.data_frames_sent = 5
        a.max_buffered_frames = 2
        b.max_buffered_frames = 7
        m = merge_stats([a, b])
        assert m.data_frames_sent == 15
        assert m.max_buffered_frames == 7

    def test_merge_covers_every_field_by_kind(self):
        """No name list: every dataclass field merges, by its kind — ``max_*``
        takes the maximum, the histogram adds element-wise, counters add."""
        parts = []
        for k in (1, 2, 3):
            s = ConnectionStats()
            for i, f in enumerate(fields(s)):
                if f.name == "reorder_histogram":
                    s.reorder_histogram = [k * (b + 1) for b in range(16)]
                else:
                    setattr(s, f.name, k * (i + 1))
            parts.append(s)
        m = merge_stats(parts)
        for i, f in enumerate(fields(m)):
            got = getattr(m, f.name)
            if f.name == "reorder_histogram":
                assert got == [6 * (b + 1) for b in range(16)]
            elif f.name == "max_buffered_frames":
                assert got == 3 * (i + 1)
            else:
                assert got == 6 * (i + 1), f.name
        # The inputs are left alone, and nothing merged is shared with them.
        assert parts[0].reorder_histogram == [b + 1 for b in range(16)]
        assert merge_stats([]) == ConnectionStats()
        assert merge_stats(parts[:1]) == parts[0]
        assert merge_stats(parts[:1]).reorder_histogram is not parts[0].reorder_histogram

    def test_moved_counters_are_stats_fields(self):
        names = {f.name for f in fields(ConnectionStats)}
        assert {
            "ce_frames_received", "ecn_echoes_sent", "ecn_echoes_received",
            "stale_frames_rejected", "duplicate_msgs_suppressed",
        } <= names

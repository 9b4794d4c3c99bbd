"""Unit tests for the sliding window and receive tracker."""

import random

import pytest

from repro.core import ReceiveTracker, SendWindow
from repro.ethernet import Frame, MultiEdgeHeader


def seq_frame(seq):
    return Frame(
        src_mac=1, dst_mac=2, header=MultiEdgeHeader(seq=seq, payload_length=0)
    )


class TestSendWindow:
    def test_initial_state(self):
        w = SendWindow(8)
        assert w.can_send and w.available == 8 and w.in_flight_count == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SendWindow(0)

    def test_allocate_seq_monotonic(self):
        w = SendWindow(8)
        assert [w.allocate_seq() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_register_fills_window(self):
        w = SendWindow(2)
        for _ in range(2):
            s = w.allocate_seq()
            w.register(seq_frame(s), op=None, now=0)
        assert not w.can_send
        with pytest.raises(RuntimeError):
            w.register(seq_frame(99), op=None, now=0)

    def test_cumulative_ack_frees_prefix(self):
        w = SendWindow(8)
        for _ in range(5):
            s = w.allocate_seq()
            w.register(seq_frame(s), op=None, now=0)
        freed = w.on_ack(3)
        assert sorted(r.frame.header.seq for r in freed) == [0, 1, 2]
        assert w.in_flight_count == 2
        # Stale ack frees nothing.
        assert w.on_ack(3) == []
        assert w.on_ack(2) == []

    def test_on_ack_prefix_walk_equals_full_scan(self):
        """on_ack stops at the first seq >= cum_ack; with holes in the
        window and retransmitted (never re-registered) records it must
        still free what a scan of the whole window frees, in that order."""
        rng = random.Random(13)
        for _ in range(200):
            w = SendWindow(64)
            for _ in range(rng.randint(0, 64)):
                s = w.allocate_seq()
                w.register(seq_frame(s), op=None, now=0)
            for s in rng.sample(sorted(w.inflight), len(w.inflight) // 4):
                del w.inflight[s]  # hole left by an out-of-order free
            for s in rng.sample(sorted(w.inflight), len(w.inflight) // 3):
                rec = w.get_for_retransmit(s)
                rec.retransmits += 1
                rec.last_sent_at = 5
            while w.inflight:
                cum_ack = rng.randint(0, w.next_seq + 1)
                expected = [r for s, r in w.inflight.items() if s < cum_ack]
                left = [s for s in w.inflight if s >= cum_ack]
                freed = w.on_ack(cum_ack)
                assert len(freed) == len(expected)
                assert all(a is b for a, b in zip(freed, expected))
                assert list(w.inflight) == left

    def test_get_for_retransmit(self):
        w = SendWindow(8)
        s = w.allocate_seq()
        w.register(seq_frame(s), op=None, now=0)
        rec = w.get_for_retransmit(0)
        assert rec is not None
        w.on_ack(1)
        assert w.get_for_retransmit(0) is None

    def test_retransmit_lookups_are_pure(self):
        """Lookups never bump the retransmit counter — only the caller's
        enqueue site does, so repeated queries can't inflate the count."""
        w = SendWindow(8)
        s = w.allocate_seq()
        w.register(seq_frame(s), op=None, now=0)
        for _ in range(5):
            rec = w.get_for_retransmit(0)
            assert rec is not None
            rec2 = w.last_unacked()
            assert rec2 is rec
        assert rec.retransmits == 0

    def test_last_and_oldest_unacked(self):
        w = SendWindow(8)
        for _ in range(3):
            s = w.allocate_seq()
            w.register(seq_frame(s), op=None, now=0)
        assert w.last_unacked().frame.header.seq == 2
        assert w.oldest_unacked().frame.header.seq == 0
        w.on_ack(3)
        assert w.last_unacked() is None
        assert w.oldest_unacked() is None


class TestReceiveTracker:
    def test_in_order_stream(self):
        t = ReceiveTracker()
        for seq in range(5):
            is_new, in_order = t.on_frame(seq)
            assert is_new and in_order
        assert t.cum_ack == 5
        assert not t.has_gap()

    def test_out_of_order_absorbed(self):
        t = ReceiveTracker()
        assert t.on_frame(1) == (True, False)
        assert t.has_gap()
        assert t.on_frame(0) == (True, True)
        assert t.cum_ack == 2
        assert not t.has_gap()

    def test_duplicate_below_expected(self):
        t = ReceiveTracker()
        t.on_frame(0)
        assert t.on_frame(0) == (False, False)

    def test_duplicate_beyond_expected(self):
        t = ReceiveTracker()
        t.on_frame(2)
        assert t.on_frame(2) == (False, False)

    def test_missing_list(self):
        t = ReceiveTracker()
        for seq in (1, 3, 5):
            t.on_frame(seq)
        assert t.missing() == [0, 2, 4]

    def test_missing_respects_limit(self):
        t = ReceiveTracker()
        t.on_frame(100)
        assert t.missing(limit=10) == list(range(10))

    def test_missing_wide_gap_is_bounded(self):
        """A burst loss spanning 100k seqs must cost O(limit), not O(gap).

        Instrumented via a counting set: pre-fix the scan probed every
        sequence number up to the gap's top; post-fix it stops after
        ``limit`` gaps.
        """

        class CountingSet(set):
            probes = 0

            def __contains__(self, item):
                CountingSet.probes += 1
                return super().__contains__(item)

        t = ReceiveTracker()
        t.on_frame(100_000)  # everything below is one giant gap
        t._beyond = CountingSet(t._beyond)
        CountingSet.probes = 0
        assert t.missing(limit=64) == list(range(64))
        assert CountingSet.probes <= 64

    def test_missing_empty_when_contiguous(self):
        t = ReceiveTracker()
        for seq in range(4):
            t.on_frame(seq)
        assert t.missing() == []

    def test_interleaved_two_rail_pattern(self):
        """Round-robin arrival with pairwise swaps: every other frame OOO."""
        t = ReceiveTracker()
        order = [1, 0, 3, 2, 5, 4]
        flags = [t.on_frame(s)[1] for s in order]
        assert flags == [False, True, False, True, False, True]
        assert t.cum_ack == 6

"""Regression tests for the protocol accounting bugs the fuzzer flushed out.

Each test here failed before its fix:

* coarse-timeout retransmit double-counting (counters bumped on lookup
  rather than at the enqueue site),
* pump CPU over-charge when the TX ring stalls mid-batch (stall time was
  billed as protocol work),
* control frames (explicit ACK / NACK) perturbing the data-plane striping
  state (byte-deficit counters and cursor),
* cross-fenced reads deadlocking both endpoints (read responses parked
  behind the local forward fence).
"""

import copy

from repro.bench.cluster import make_cluster
from repro.ethernet import OpFlags
from repro.host import tigon3_params
from repro.host.params import PER_FRAME_SEND_NS


def _drive(cluster, procs, limit=10**10):
    for proc in [cluster.sim.process(p) for p in procs]:
        cluster.sim.run_until_done(proc, limit=limit)
    cluster.sim.run()


def _bulk_write(handle, src, dst, size):
    def proc():
        h = yield from handle.rdma_write(src, dst, size)
        yield from h.wait()

    return proc()


class TestCoarseTimeoutCounting:
    def test_repeated_timer_fire_counts_once(self):
        """A timer that fires again while the seq is still queued must not
        inflate the retransmit counters (pre-fix: every fire counted)."""
        c = make_cluster("1L-1G", nodes=2, seed=1, synthetic_payloads=True)
        a, _ = c.connect(0, 1)
        conn = a.conn
        src = c.nodes[0].memory.alloc(1024)
        dst = c.nodes[1].memory.alloc(1024)

        def submit():
            yield from a.rdma_write(src, dst, 1024)

        c.sim.run_until_done(c.sim.process(submit()), limit=10**9)
        # Freeze the fabric so the frame can never be acked or re-sent.
        for nic in c.nodes[0].nics:
            nic._tx_ring_used = nic.params.tx_ring_frames
        assert conn.window.inflight, "expected an unacked frame in flight"
        conn._on_coarse_timeout()
        conn._on_coarse_timeout()
        conn._on_coarse_timeout()
        rec = conn.window.oldest_unacked()
        assert conn.stats.timeout_retransmits == 1
        assert rec.retransmits == 1
        assert list(conn._retransmit_q).count(rec.frame.header.seq) == 1


class TestPumpStallAccounting:
    def test_ring_stall_reclassified_not_charged_as_protocol(self):
        """With a tiny TX ring the pump stalls mid-batch; the surplus charge
        must move to the ``stall.tx_ring`` tag and the protocol charge must
        equal frames actually sent x per-frame cost."""
        c = make_cluster(
            "1L-1G",
            nodes=2,
            seed=1,
            synthetic_payloads=True,
            nic_factory=lambda: tigon3_params(tx_ring_frames=4),
        )
        a, _ = c.connect(0, 1)
        src = c.nodes[0].memory.alloc(256 * 1024)
        dst = c.nodes[1].memory.alloc(256 * 1024)
        _drive(c, [_bulk_write(a, src, dst, 256 * 1024)])

        stats = a.conn.stats
        assert stats.pump_stalled_ns > 0, "tiny ring should stall the pump"
        acct = c.nodes[0].accounting
        assert acct.total("stall.tx_ring") == stats.pump_stalled_ns
        # Conservation: protocol pump charge covers exactly the frames sent.
        sent = stats.data_frames_sent + stats.retransmitted_frames
        assert stats.pump_charged_ns == sent * PER_FRAME_SEND_NS

    def test_no_stall_without_ring_pressure(self):
        c = make_cluster("1L-1G", nodes=2, seed=1, synthetic_payloads=True)
        a, _ = c.connect(0, 1)
        src = c.nodes[0].memory.alloc(64 * 1024)
        dst = c.nodes[1].memory.alloc(64 * 1024)
        _drive(c, [_bulk_write(a, src, dst, 64 * 1024)])
        stats = a.conn.stats
        sent = stats.data_frames_sent + stats.retransmitted_frames
        assert stats.pump_charged_ns == sent * PER_FRAME_SEND_NS


class TestControlRailIsolation:
    def test_explicit_ack_leaves_striping_state_alone(self):
        """Pre-fix, control frames called ``next_rail(84)`` and charged the
        data-plane deficit counters, skewing subsequent striping."""
        c = make_cluster("2Lu-1G", nodes=2, seed=1, synthetic_payloads=True)
        _, b = c.connect(0, 1)
        conn = b.conn  # receiver side emits the explicit acks
        striping = conn.striping
        before_bytes = copy.deepcopy(striping._charged)
        before_cursor = striping._cursor
        acks_before = conn.stats.explicit_acks_sent
        conn._send_explicit_ack()
        assert conn.stats.explicit_acks_sent == acks_before + 1
        assert striping._charged == before_bytes
        assert striping._cursor == before_cursor

    def test_control_rail_rotates_and_skips_full_rings(self):
        c = make_cluster("2Lu-1G", nodes=2, seed=1, synthetic_payloads=True)
        a, _ = c.connect(0, 1)
        striping = a.conn.striping
        first = striping.control_rail()
        second = striping.control_rail()
        assert {first, second} == {0, 1}, "control frames rotate across rails"
        # Fill rail picked next; control_rail must route around it.
        nxt = striping.control_rail()
        nic = a.conn.nics[nxt]
        nic._tx_ring_used = nic.params.tx_ring_frames
        assert striping.control_rail() != nxt

    def test_single_rail_control_uses_data_rail(self):
        c = make_cluster("1L-1G", nodes=2, seed=1, synthetic_payloads=True)
        a, _ = c.connect(0, 1)
        assert a.conn.striping.control_rail() == 0


class TestReadFenceDeadlock:
    def test_cross_fenced_reads_complete(self):
        """Two endpoints issue forward-fenced reads of each other: the read
        responses must bypass the local fence or both sides deadlock
        (found by the fuzzer; see repro.verify.fuzz)."""
        c = make_cluster("2L-1G", nodes=2, seed=1)
        a, b = c.connect(0, 1)
        buf0 = c.nodes[0].memory.alloc(32 * 1024)
        buf1 = c.nodes[1].memory.alloc(32 * 1024)

        def reader(handle, local, remote):
            h1 = yield from handle.rdma_read(local, remote, 8_192)
            yield from h1.wait()
            h2 = yield from handle.rdma_read(
                local, remote, 16_384, flags=OpFlags.FENCE_FORWARD
            )
            yield from h2.wait()

        _drive(c, [reader(a, buf0, buf1), reader(b, buf1, buf0)])
        assert a.conn.stats.ops_completed >= 2
        assert b.conn.stats.ops_completed >= 2

    def test_response_jumps_fence_blocked_queue(self):
        """A READ_RESP submitted while a later op is fence-blocked must slot
        ahead of the blocked descriptors in the unsent queue."""
        c = make_cluster("1L-1G", nodes=2, seed=1)
        a, b = c.connect(0, 1)
        conn = b.conn
        buf0 = c.nodes[0].memory.alloc(4096)
        buf1 = c.nodes[1].memory.alloc(4096)

        def submit_only():
            # Fenced read followed by a write: the write is fence-blocked.
            yield from b.rdma_read(buf1, buf0, 1024, flags=OpFlags.FENCE_FORWARD)
            yield from b.rdma_write(buf1, buf0, 1024)

        c.sim.run_until_done(c.sim.process(submit_only()), limit=10**9)
        # Peer's READ_REQ arrives: the response lands ahead of the blocked
        # write (frames of the fenced read itself may already be gone).
        def peer_read():
            h = yield from a.rdma_read(buf0, buf1, 2048)
            yield from h.wait()

        c.sim.run_until_done(c.sim.process(peer_read()), limit=10**10)
        c.sim.run()
        assert a.conn.stats.ops_completed >= 1

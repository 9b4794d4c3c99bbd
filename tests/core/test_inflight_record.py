"""The in-flight record is the one place a sent frame's operation is kept.

``SendWindow.inflight[seq]`` carries the sender-side ``Operation``; the ack
path completes operations straight from the records an ack frees, and
``fail_pending_ops`` / ``destroy`` find unfinished operations there.  There
is no second ``seq -> op`` map to keep in step.
"""

from dataclasses import fields

import pytest

from repro.bench.cluster import make_cluster
from repro.core import PeerCrashed
from repro.core.window import InflightFrame
from repro.ethernet import max_payload_per_frame

FRAMES_PER_OP = 3
NOPS = 3
MS = 1_000_000


def _stranded(run_ns: int):
    """Three 3-frame writes sent into a dead uplink: nine frames in flight,
    never acknowledged.  Returns (cluster, sender connection, op handles)."""
    cluster = make_cluster("1L-1G", nodes=2)
    a, b = cluster.connect(0, 1)
    cluster.cable(0, 0).ab.fail_for(10**12)
    size = FRAMES_PER_OP * max_payload_per_frame()
    src = a.node.memory.alloc(size)
    dst = b.node.memory.alloc(size)
    handles = []

    def sender():
        for _ in range(NOPS):
            handles.append((yield from a.rdma_write(src, dst, size)))

    cluster.sim.process(sender())
    cluster.sim.run_until_time(run_ns)
    conn = a.conn
    assert sorted(conn.window.inflight) == list(range(NOPS * FRAMES_PER_OP))
    return cluster, conn, handles


def test_record_schema():
    names = [f.name for f in fields(InflightFrame)]
    assert "op" in names and "op_id" not in names


def test_records_carry_their_operation():
    _, conn, handles = _stranded(1 * MS)
    assert not hasattr(conn, "_frame_op")
    for seq, rec in conn.window.inflight.items():
        op = handles[seq // FRAMES_PER_OP]._op
        assert rec.op is op and rec.frame.header.op_id == op.op_id


def test_ack_completes_ops_from_the_freed_records():
    # Long enough for the coarse timeout to retransmit the last frame.
    _, conn, handles = _stranded(40 * MS)
    last = conn.window.inflight[NOPS * FRAMES_PER_OP - 1]
    assert last.retransmits >= 1 and conn.stats.retransmitted_frames >= 1
    ops = [h._op for h in handles]

    conn._process_ack_value(FRAMES_PER_OP)  # all of op 0
    assert [op.completed for op in ops] == [True, False, False]
    conn._process_ack_value(FRAMES_PER_OP + 1)  # one frame of op 1
    assert [op.frames_acked for op in ops] == [3, 1, 0]
    assert conn.stats.ops_completed == 1
    conn._process_ack_value(FRAMES_PER_OP + 1)  # stale: frees nothing
    assert [op.frames_acked for op in ops] == [3, 1, 0]
    conn._process_ack_value(NOPS * FRAMES_PER_OP)  # the rest, retransmitted one too
    assert all(op.completed and op.error is None for op in ops)
    assert conn.stats.ops_completed == NOPS and not conn.window.inflight
    assert all(h.test() for h in handles)


def test_destroy_mid_flight_fails_what_the_records_hold():
    _, conn, handles = _stranded(1 * MS)
    conn._process_ack_value(FRAMES_PER_OP)  # op 0 completes first
    assert conn.destroy() == NOPS - 1
    assert not conn.window.inflight
    assert handles[0].test()
    for h in handles[1:]:
        with pytest.raises(PeerCrashed):
            h.test()
    # A late ack finds no record and completes nothing.
    conn._process_ack_value(NOPS * FRAMES_PER_OP)
    assert conn.stats.ops_completed == 1
    assert [h._op.frames_acked for h in handles] == [3, 0, 0]

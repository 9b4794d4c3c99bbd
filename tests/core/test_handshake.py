"""Tests for wire-level connection setup and teardown."""

import pytest

from repro.bench.cluster import make_cluster
from repro.core import HandshakeError, close_connection, dial, enable_listener
from repro.core.handshake import _conn_id_for
from repro.ethernet import LinkParams


def fresh(config="1L-1G", nodes=2, **kw):
    cluster = make_cluster(config, nodes=nodes, **kw)
    for stack in cluster.stacks:
        enable_listener(stack)
    return cluster


def test_dial_creates_both_endpoints():
    cluster = fresh()
    a, b = cluster.stacks

    def app():
        handle = yield from dial(a, peer_node_id=1)
        return handle

    proc = cluster.sim.process(app())
    handle = cluster.sim.run_until_done(proc, limit=10_000_000_000)
    conn_id = handle.conn.conn_id
    assert conn_id in a.protocol.connections
    assert conn_id in b.protocol.connections
    assert b.protocol.connections[conn_id].peer_node_id == 0


def test_dialed_connection_carries_data():
    cluster = fresh()
    a, b = cluster.stacks
    size = 20_000
    src = a.node.memory.alloc(size)
    dst = b.node.memory.alloc(size)
    payload = bytes(i % 256 for i in range(size))
    a.node.memory.write(src, payload)

    def app():
        handle = yield from dial(a, 1)
        h = yield from handle.rdma_write(src, dst, size)
        yield from h.wait()

    proc = cluster.sim.process(app())
    cluster.sim.run_until_done(proc, limit=30_000_000_000)
    assert b.node.memory.read(dst, size) == payload


def test_dial_negotiates_rails():
    cluster = fresh("2L-1G")
    a = cluster.stacks[0]

    def app():
        handle = yield from dial(a, 1)
        return handle

    proc = cluster.sim.process(app())
    handle = cluster.sim.run_until_done(proc, limit=10_000_000_000)
    assert len(handle.conn.nics) == 2
    assert len(handle.conn.peer_macs) == 2


def test_dial_survives_lost_syn():
    # Heavy bit errors: some SYNs/SYN_ACKs die; retransmission recovers.
    cluster = fresh(link=LinkParams(speed_bps=1e9, bit_error_rate=2e-4))
    a = cluster.stacks[0]

    def app():
        handle = yield from dial(a, 1)
        return handle

    proc = cluster.sim.process(app())
    handle = cluster.sim.run_until_done(proc, limit=120_000_000_000)
    assert handle.conn.conn_id in cluster.stacks[1].protocol.connections


def test_dial_unreachable_peer_raises():
    cluster = fresh()
    a = cluster.stacks[0]
    # Cut node 0's uplink for the whole experiment.
    a.node.nics[0].tx_link.fail_for(10**12)

    def app():
        yield from dial(a, 1)

    proc = cluster.sim.process(app())
    with pytest.raises(Exception, match="SYN_ACK"):
        cluster.sim.run_until_done(proc, limit=600_000_000_000)


def test_concurrent_dials_get_distinct_connections():
    cluster = fresh(nodes=3)
    a = cluster.stacks[0]
    handles = []

    def app():
        h1 = yield from dial(a, 1)
        h2 = yield from dial(a, 2)
        handles.extend([h1, h2])

    proc = cluster.sim.process(app())
    cluster.sim.run_until_done(proc, limit=30_000_000_000)
    assert handles[0].conn.conn_id != handles[1].conn.conn_id
    assert handles[0].peer_node_id == 1
    assert handles[1].peer_node_id == 2


def test_conn_id_uniqueness_per_initiator():
    ids = {_conn_id_for(i, c) for i in range(16) for c in range(64)}
    assert len(ids) == 16 * 64


def test_close_rejects_new_operations():
    cluster = fresh()
    a, b = cluster.stacks
    src = a.node.memory.alloc(64)
    dst = b.node.memory.alloc(64)

    def app():
        handle = yield from dial(a, 1)
        h = yield from handle.rdma_write(src, dst, 64)
        yield from h.wait()
        yield from close_connection(a, handle)
        return handle

    proc = cluster.sim.process(app())
    handle = cluster.sim.run_until_done(proc, limit=60_000_000_000)
    assert handle.conn.closed

    def late():
        yield from handle.rdma_write(src, dst, 64)

    late_proc = cluster.sim.process(late())
    with pytest.raises(Exception, match="closed"):
        cluster.sim.run_until_done(late_proc, limit=10_000_000_000)


def test_close_marks_peer_closed_too():
    cluster = fresh()
    a, b = cluster.stacks

    def app():
        handle = yield from dial(a, 1)
        yield from close_connection(a, handle)
        return handle.conn.conn_id

    proc = cluster.sim.process(app())
    conn_id = cluster.sim.run_until_done(proc, limit=60_000_000_000)
    cluster.sim.run(until=cluster.sim.now + 10_000_000)
    assert b.protocol.connections[conn_id].closed


def test_closed_connection_drops_stray_data_frames():
    cluster = fresh()
    a, b = cluster.stacks
    size = 64
    src = a.node.memory.alloc(size)
    dst = b.node.memory.alloc(size)

    def app():
        handle = yield from dial(a, 1)
        yield from close_connection(a, handle)
        # Bypass the API guard and push a stale frame at the peer.
        conn_b = b.protocol.connections[handle.conn.conn_id]
        before = conn_b.frames_after_close
        from repro.core.messages import make_data_frame

        frame = make_data_frame(
            a.node.nics[0].mac, b.node.nics[0].mac,
            handle.conn.conn_id, seq=999, ack=0, op_id=1, op_seq=0,
            op_flags=0, remote_address=dst, op_length=size,
            payload=bytes(size),
        )
        a.node.nics[0].transmit(frame)
        yield 5_000_000
        return before, conn_b

    proc = cluster.sim.process(app())
    before, conn_b = cluster.sim.run_until_done(proc, limit=60_000_000_000)
    assert conn_b.frames_after_close == before + 1


@pytest.mark.parametrize("ftype", ["SYN", "FIN", "SYN_ACK"])
def test_non_listening_stack_counts_and_drops_handshake_frames(ftype):
    """A stack that never enabled its listener must not let a SYN / FIN for
    an *existing* connection id fall through to the data path, where it was
    taken for sequenced data frame 0 and corrupted the receive window."""
    from repro.ethernet import Frame, FrameType, MultiEdgeHeader

    cluster = make_cluster("1L-1G", nodes=2)  # no enable_listener()
    a, b = cluster.connect(0, 1)
    stray = Frame(
        src_mac=a.node.nics[0].mac,
        dst_mac=b.node.nics[0].mac,
        header=MultiEdgeHeader(
            frame_type=FrameType[ftype], connection_id=a.conn.conn_id, op_id=0
        ),
    )
    a.node.nics[0].transmit(stray)
    cluster.sim.run()
    protocol = cluster.stacks[1].protocol
    assert protocol.handshake_frames_dropped == 1
    assert protocol.unknown_connection_frames == 0
    assert b.conn.tracker.expected == 0 and not b.conn.closed
    assert b.conn.stats.data_frames_received == 0
    assert b.conn.stats.explicit_acks_sent == 0
    assert list(protocol.connections) == [a.conn.conn_id]

    # The connection is unharmed: sequence 0 is still free for real data.
    payload = bytes(range(64))
    src = a.node.memory.alloc(64)
    dst = b.node.memory.alloc(64)
    a.node.memory.write(src, payload)

    def app():
        h = yield from a.rdma_write(src, dst, 64)
        yield from h.wait()

    cluster.sim.run_until_done(cluster.sim.process(app()), limit=10**10)
    assert b.node.memory.read(dst, 64) == payload
    assert b.conn.stats.duplicate_frames == 0


def test_handshake_state_is_declared_not_invented():
    cluster = make_cluster("1L-1G", nodes=2)
    a, _ = cluster.connect(0, 1)
    protocol = cluster.stacks[0].protocol
    assert protocol.listening is False and protocol._pending_dials == {}
    assert protocol._dial_counter == 0 and protocol.handshake_frames_dropped == 0
    assert (a.conn.fin_sent, a.conn.fin_received, a.conn._fin_event) == (
        False, False, None,
    )
    enable_listener(cluster.stacks[0])
    enable_listener(cluster.stacks[0])  # idempotent
    assert protocol.listening is True
    # No instance attribute shadows the class's frame dispatch.
    assert "handle_frame" not in vars(protocol)

"""Run-length fragment descriptors emit the per-frame fragmentation.

``Connection`` queues an operation as runs ("N full-MTU fragments plus at
most one tail") and ``_send_one`` peels frames off the head run.  The
frames it emits must be exactly those of fragmenting frame by frame,
which these tests compute on their own and compare.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.cluster import make_cluster
from repro.core.errors import PeerCrashed
from repro.core.messages import make_read_req_frame
from repro.ethernet import FrameType, OpFlags, max_payload_per_frame

MTU = max_payload_per_frame()
BUF = 6 * MTU
RESPONSE_OP_ID = 4242
RESPONSE_DEST = 0x7000_0000


def _pattern(n):
    return bytes((i * 31 + 7) % 251 for i in range(n))


def _endpoint(synthetic):
    """One connection endpoint whose NIC hands frames to a list."""
    cluster = make_cluster("1L-1G", synthetic_payloads=synthetic)
    a, _ = cluster.connect(0, 1)
    conn = a.conn
    sent = []
    conn.nics[0].transmit = sent.append
    src = a.node.memory.alloc(BUF)
    a.node.memory.write(src, _pattern(BUF))
    return conn, src, sent


def _fragments(op_key, remote, length, data):
    """Reference fragmentation, one entry per frame."""
    out = []
    offset = 0
    while offset < length:
        n = min(MTU, length - offset)
        payload = None if data is None else data[offset : offset + n]
        out.append((op_key, remote + offset, n, payload, length))
        offset += n
    return out


def _send_all(conn, limit=None):
    """Drive ``_send_one``, acking each frame at once so the window never
    binds and an operation completes when its last frame leaves."""
    n = 0
    while (limit is None or n < limit) and conn._send_one():
        conn._process_ack_value(conn.window.next_seq)
        n += 1
    return n


write_strategy = st.tuples(
    st.integers(1, BUF),  # length
    st.integers(0, 2**40),  # remote address
    st.sampled_from(
        [0, OpFlags.NOTIFY, OpFlags.FENCE_FORWARD, OpFlags.FENCE_BACKWARD]
    ),
)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    writes=st.lists(write_strategy, min_size=1, max_size=4),
    synthetic=st.booleans(),
    response=st.one_of(
        st.none(),
        st.tuples(st.integers(1, BUF), st.integers(0, 6 * 6)),
    ),
)
def test_emitted_frames_equal_per_frame_fragmentation(writes, synthetic, response):
    conn, src, sent = _endpoint(synthetic)
    data = None if synthetic else _pattern(BUF)

    # Reference queue: (op_key, address, payload_len, payload, op_length),
    # op_key = (kind, op_seq, forward-fenced, op_id, flags).
    queue = []
    ops = []
    for op_seq, (length, remote, flags) in enumerate(writes):
        op = conn.submit_write(src, remote, length, flags)
        ops.append(op)
        key = ("write", op_seq, bool(flags & OpFlags.FENCE_FORWARD), op.op_id, flags)
        queue += _fragments(
            key, remote, length, None if data is None else data[:length]
        )
    assert conn.unsent_frames == len(queue)
    assert len(conn.unsent) <= 2 * len(writes)

    if response is not None:
        resp_len, sent_before = response
        sent_before = min(sent_before, len(queue))
        assert _send_all(conn, sent_before) == sent_before
        rest = queue[sent_before:]
        # A forward fence is live until the last frame of its op is acked.
        live = [f[0][1] for f in rest if f[0][2]]
        at = len(rest)
        if live:
            barrier = min(live)
            for k, f in enumerate(rest):
                if f[0][1] > barrier:
                    at = k
                    break
        req = make_read_req_frame(
            src_mac=2, dst_mac=1, connection_id=conn.conn_id, seq=0, ack=0,
            op_id=RESPONSE_OP_ID, op_seq=0, op_flags=0,
            remote_address=src, op_length=resp_len,
        )
        req.control = RESPONSE_DEST
        conn._submit_read_response(req)
        key = ("resp", None, False, RESPONSE_OP_ID, 0)
        resp = _fragments(
            key, RESPONSE_DEST, resp_len, None if data is None else data[:resp_len]
        )
        queue = queue[:sent_before] + rest[:at] + resp + rest[at:]
        assert conn.unsent_frames == len(queue) - sent_before

    _send_all(conn)
    assert conn.unsent_frames == 0 and not conn.unsent
    assert len(sent) == len(queue)
    for seq, (frame, want) in enumerate(zip(sent, queue)):
        (kind, _, _, op_id, flags), address, plen, payload, op_length = want
        h = frame.header
        assert h.seq == seq
        assert h.op_id == op_id
        assert h.remote_address == address
        assert h.payload_length == plen
        assert frame.payload == payload
        assert h.op_length == op_length
        assert h.frame_type == (
            FrameType.READ_RESP if kind == "resp" else FrameType.DATA
        )
        if kind == "write":
            assert h.flags & int(flags) == int(flags)
    assert all(op.completed and not op.failed for op in ops)


def test_one_mib_write_is_two_runs():
    conn, _, _ = _endpoint(synthetic=True)
    op = conn.submit_write(0, 0, 1 << 20)
    assert len(conn.unsent) <= 2
    assert conn.unsent_frames == op.frames_total == 717
    assert _send_all(conn) == 717
    assert conn.unsent_frames == 0 and op.completed


def test_failing_a_half_consumed_run_fails_the_op_once():
    for teardown in ("fail_pending_ops", "destroy"):
        conn, src, sent = _endpoint(synthetic=False)
        op = conn.submit_write(src, 0, 5 * MTU + 9)
        for _ in range(3):  # in flight, unacked; the head run is half gone
            assert conn._send_one()
        assert conn.unsent_frames == 3 and len(sent) == 3
        exc = PeerCrashed(conn.conn_id, conn.peer_node_id)
        assert getattr(conn, teardown)(exc) == 1
        assert op.failed and op.error is exc and op.completed
        # Event.trigger raises on a second trigger, so a double failure
        # could not pass silently.
        assert op.done.triggered and op.done.value is op
        assert conn.fail_pending_ops(exc) == 0
        if teardown == "destroy":
            assert conn.unsent_frames == 0 and not conn.unsent

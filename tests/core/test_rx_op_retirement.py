"""Receive-op state follows the operations in flight, not the run's length.

``OrderingManager.ops`` used to keep one record per operation ever
received.  These run whole stacks and watch the receiver's table after
every frame it is fed.
"""

import pytest

from repro.bench.cluster import make_cluster
from repro.ethernet import OpFlags
from repro.verify import InvariantMonitor

N_OPS = 1000
WINDOW = 8  # operations the sender keeps outstanding


def _watched_run(config, flags_of=lambda i: 0):
    """1 000 writes of 1-5 frames, at most WINDOW outstanding.

    Returns ``(peak live ops, times a complete op was seen waiting behind
    an incomplete earlier one)``.
    """
    cluster = make_cluster(config, nodes=2)
    a, b = cluster.connect(0, 1)
    rx = b.conn.ordering
    seen = {"peak": 0, "held_complete": 0}
    feed = rx.on_frame

    def on_frame(frame):
        out = feed(frame)
        in_flight = a.conn.stats.ops_submitted - a.conn.stats.ops_completed
        assert len(rx.ops) <= in_flight <= WINDOW
        assert all(op_seq >= rx.watermark for op_seq in rx.ops)
        seen["peak"] = max(seen["peak"], len(rx.ops))
        seen["held_complete"] += any(op.complete for op in rx.ops.values())
        return out

    rx.on_frame = on_frame
    size = 5 * 1400
    src = a.node.memory.alloc(size)
    dst = b.node.memory.alloc(size)

    def app():
        handles = []
        for i in range(N_OPS):
            if i >= WINDOW:
                yield from handles[i - WINDOW].wait()
            length = 64 + (i * 997) % (size - 64)
            h = yield from a.rdma_write(src, dst, length, flags=flags_of(i))
            handles.append(h)
        for h in handles[-WINDOW:]:
            yield from h.wait()

    proc = cluster.sim.process(app())
    cluster.sim.run_until_done(proc, limit=60_000_000_000)
    assert rx.watermark == N_OPS and rx.ops == {}
    assert rx.bytes_applied == b.conn.stats.data_bytes_received
    return seen["peak"], seen["held_complete"]


def test_in_order_delivery_holds_only_ops_in_flight():
    peak, _ = _watched_run("2L-1G")
    assert 1 <= peak <= WINDOW


def test_fence_delivery_holds_only_ops_in_flight():
    # Two unordered rails: operations complete out of order and wait in
    # the table for the gap to close; every fifth one is fenced.
    fenced = lambda i: int(OpFlags.FENCE_BACKWARD) if i % 5 == 4 else 0
    peak, held_complete = _watched_run("2Lu-1G", fenced)
    assert 1 <= peak <= WINDOW
    assert held_complete > 0


@pytest.mark.parametrize("config", ["1L-1G", "2L-1G"])
def test_rdma_read_is_served_after_its_request_op_was_retired(config):
    cluster = make_cluster(config, nodes=2)
    a, b = cluster.connect(0, 1)
    size = 6000
    remote = b.node.memory.alloc(size)
    local = a.node.memory.alloc(size)
    payload = bytes(i % 251 for i in range(size))
    b.node.memory.write(remote, payload)
    responder = b.conn.ordering
    at_response = []
    submit = b.conn._submit_read_response

    def spy(frame):
        at_response.append((dict(responder.ops), responder.watermark))
        return submit(frame)

    b.conn._submit_read_response = spy

    def app():
        for _ in range(2):
            h = yield from a.rdma_read(local, remote, size)
            yield from h.wait()

    proc = cluster.sim.process(app())
    cluster.sim.run_until_done(proc, limit=2_000_000_000)
    # The request was already complete and gone when the response was built.
    assert at_response == [({}, 1), ({}, 2)]
    assert a.node.memory.read(local, size) == payload
    assert a.conn.ordering.ops == {} and a.conn.ordering.watermark == 2


def test_monitor_byte_conservation_reads_the_running_total():
    """The monitor no longer sums every op; its check must still bite."""
    cluster = make_cluster("2Lu-1G", nodes=2)
    a, b = cluster.connect(0, 1)
    monitor = InvariantMonitor.attach(cluster)
    src = a.node.memory.alloc(20_000)
    dst = b.node.memory.alloc(20_000)

    def app():
        for i in range(40):
            h = yield from a.rdma_write(src, dst, 500 + 487 * i)
        yield from h.wait()

    proc = cluster.sim.process(app())
    cluster.sim.run_until_done(proc, limit=2_000_000_000)
    cluster.sim.run()  # drain trailing acks so the final check sees quiescence
    monitor.final_check()
    rx = b.conn.ordering
    assert monitor.checks_run > 0 and monitor.ok and rx.ops == {}
    assert rx.bytes_applied == sum(500 + 487 * i for i in range(40))
    # A byte that was never received makes the same check fail.
    rx.bytes_applied += 1
    with pytest.raises(AssertionError, match="rx-byte-conservation"):
        monitor.final_check()

"""Node memory a DSM run holds follows what it touched, not what it reserved."""

from repro.analysis import summarize_cluster
from repro.apps import FftApp
from repro.bench.cluster import make_cluster
from repro.dsm import DsmRuntime
from repro.dsm.runtime import CREDIT_EVERY, INBOX_SLOTS


def test_sixteen_node_fft_touches_a_fraction_of_what_it_reserves():
    """The benchmark's ``dsm_fft_1g_16n``: 240 mailboxes, 30 ever written."""
    cluster = make_cluster("1L-1G", nodes=16)
    runtime = DsmRuntime(cluster)
    app = FftApp()
    app.setup(runtime)
    reserved_at_setup = sum(n.memory.allocated_bytes for n in cluster.nodes)
    result = runtime.run(app.program)
    assert app.verify(runtime, result)

    reserved = sum(n.memory.allocated_bytes for n in cluster.nodes)
    resident = sum(n.memory.resident_bytes for n in cluster.nodes)
    assert 0 < resident <= 0.4 * reserved
    # Running reserved almost nothing more: 2 sender scratch regions a node.
    assert reserved - reserved_at_setup < 16 * 2 * 8192 + 1

    summary = summarize_cluster(cluster, result.elapsed_ns)
    assert summary.memory_reserved_bytes == reserved
    assert summary.memory_resident_bytes == resident


def _regions_after_lock_handoffs(rounds):
    """Region count per node after ``rounds`` lock acquire/release pairs.

    Every pair is a request and a grant through the mailboxes of a lock
    managed by the other node, with write notices staged alongside.
    """
    runtime = DsmRuntime(make_cluster("1L-1G", nodes=2))
    region = runtime.alloc_region("cell", 4096, home="fixed:0")

    def program(node):
        lock = 1 - node.rank  # managed by the peer
        for _ in range(rounds):
            yield from node.lock(lock)
            view = yield from node.access(region, 64 * node.rank, 8, mode="rw")
            view[0] = (int(view[0]) + 1) % 256
            yield from node.unlock(lock)
        yield from node.barrier(0)

    runtime.run(program)
    for node in runtime.nodes:
        # The inbox ring wrapped and credits flowed: every scratch was reused.
        assert node.stats.messages_sent > INBOX_SLOTS > CREDIT_EVERY
    return [n.stack.node.memory.region_count for n in runtime.nodes]


def test_region_count_does_not_grow_with_dsm_messages():
    assert _regions_after_lock_handoffs(50) == _regions_after_lock_handoffs(500)

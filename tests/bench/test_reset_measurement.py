"""``Cluster.reset_measurement()``: the one start of a measured interval."""

from dataclasses import asdict

from repro.bench import make_cluster
from repro.core import ConnectionStats
from repro.ethernet import OpFlags
from repro.fastpath.stats import FastpathStats


def test_reset_zeroes_cpu_accounting_connection_stats_and_fastpath_stats():
    cluster = make_cluster("1L-1G", nodes=2, fastpath=True)
    a, b = cluster.connect(0, 1)
    size = 1 << 20
    src, dst = a.node.memory.alloc(size), b.node.memory.alloc(size)

    def warm_up():  # one-way, long enough for the fast path to jump
        for _ in range(4):
            h = yield from a.rdma_write(src, dst, size, flags=OpFlags.NOTIFY)
        yield from h.wait()

    cluster.sim.run_until_done(cluster.sim.process(warm_up()), limit=10**12)
    nodes = [stack.node for stack in cluster.stacks]
    assert cluster.fastpath.stats.jumps > 0
    assert a.conn.stats.data_frames_sent > 0
    assert all(node.protocol_cpu_time() > 0 for node in nodes)
    assert any(cpu.resource.busy_time > 0 for node in nodes for cpu in node.cpus)

    cluster.reset_measurement()

    assert vars(cluster.fastpath.stats) == vars(FastpathStats())
    for stack in cluster.stacks:
        for conn in stack.protocol.connections.values():
            assert asdict(conn.stats) == asdict(ConnectionStats())
    assert all(node.protocol_cpu_time() == 0 for node in nodes)
    assert all(cpu.resource.busy_time == 0 for node in nodes for cpu in node.cpus)

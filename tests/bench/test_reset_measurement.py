"""``Cluster.reset_measurement()``: the one start of a measured interval."""

from dataclasses import asdict

from repro.analysis.summary import summarize_cluster
from repro.bench import make_cluster
from repro.bench.micro import run_one_way, run_ping_pong
from repro.core import ConnectionStats
from repro.ethernet import OpFlags
from repro.fastpath import FastpathManager
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
    assert cluster.layer(FastpathManager).stats.jumps > 0
    assert a.conn.stats.data_frames_sent > 0
    assert all(node.protocol_cpu_time() > 0 for node in nodes)
    assert any(cpu.resource.busy_time > 0 for node in nodes for cpu in node.cpus)

    cluster.reset_measurement()

    assert vars(cluster.layer(FastpathManager).stats) == vars(FastpathStats())
    for stack in cluster.stacks:
        for conn in stack.protocol.connections.values():
            assert asdict(conn.stats) == asdict(ConnectionStats())
    assert all(node.protocol_cpu_time() == 0 for node in nodes)
    assert all(cpu.resource.busy_time == 0 for node in nodes for cpu in node.cpus)


def test_rollup_after_a_reset_measures_from_the_reset():
    # Without an explicit interval the roll-up divides by the time since
    # the reset, not since 0: the warm-up's bytes are gone, so its time
    # must go too.  Given the run's own interval it reads the same.
    cluster = make_cluster("1L-1G", nodes=2)
    result = run_one_way(cluster, 262144, iterations=8)
    assert cluster.measured_since > 0
    assert cluster.sim.now - cluster.measured_since == result.elapsed_ns
    implied, explicit = (
        summarize_cluster(cluster), summarize_cluster(cluster, result.elapsed_ns)
    )
    assert implied.elapsed_ns == result.elapsed_ns
    assert implied.goodput_mbps == result.throughput_mbps == explicit.goodput_mbps
    assert implied.protocol_cpu_fraction_mean == explicit.protocol_cpu_fraction_mean


def test_results_count_device_counters_from_the_reset():
    # NIC, switch and link counters are never zeroed; a micro result
    # subtracts the roll-up the reset took, so its interrupts cover the
    # same interval as its frames.  64 B ping-pong: one data frame and one
    # interrupt per frame at each end, so exactly 2 (the warm-up's
    # interrupts made it 2.333).
    cluster = make_cluster("1L-1G", nodes=2)
    result = run_ping_pong(cluster, 64)
    base, whole_run = cluster.reset_summary, summarize_cluster(cluster)
    assert base.elapsed_ns == 0 and base.data_frames == 0
    assert 0 < base.irqs < whole_run.irqs
    assert result.irqs == whole_run.irqs - base.irqs
    assert result.interrupt_fraction == 2.0
    assert result.frames_dropped == whole_run.frames_dropped - base.frames_dropped

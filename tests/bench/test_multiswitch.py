"""Tests for the two-tier single-spine topology (paper §6 future work)."""

import pytest

from repro.bench import make_cluster
from repro.bench.micro import run_one_way
from repro.fabric import LeafSpineSpec

# 8 nodes over 2 leaves joined by one spine: cross-leaf traffic shares a
# single uplink per leaf (4:1 oversubscribed at equal link speeds).
TWO_LEAVES = LeafSpineSpec(leaves=2, spines=1, hosts_per_leaf=4)

# Virtual time at which 8 sequential 256 KiB rdma_writes from node 0 to
# node 7 finish on TWO_LEAVES (1 488 frames through the spine).
CROSS_LEAF_8X256K_NS = 20_313_229


def _tiers(cluster):
    """(spines, leaves) of rail 0's fabric."""
    switches = cluster.fabrics[0].switches
    return (
        [sw for sw in switches if sw.tier == "spine"],
        [sw for sw in switches if sw.tier == "leaf"],
    )


def test_leaf_spine_builds():
    cluster = make_cluster("1L-1G", nodes=8, fabric=TWO_LEAVES)
    spines, leaves = _tiers(cluster)
    assert len(leaves) == 2
    assert len(spines) == 1
    assert cluster.config.fabric.leaves == 2


def test_validation():
    with pytest.raises(ValueError):
        LeafSpineSpec(leaves=0, spines=1, hosts_per_leaf=1)
    with pytest.raises(ValueError):
        make_cluster(
            "1L-1G", nodes=5,
            fabric=LeafSpineSpec(leaves=4, spines=1, hosts_per_leaf=1),
        )


def test_same_leaf_traffic_avoids_spine():
    cluster = make_cluster("1L-1G", nodes=8, fabric=TWO_LEAVES)
    run_one_way(cluster, 65536)  # nodes 0 and 1: both on leaf 0
    spines, leaves = _tiers(cluster)
    assert spines[0].forwarded == 0
    assert leaves[0].forwarded > 0


def test_cross_leaf_traffic_uses_spine():
    cluster = make_cluster("1L-1G", nodes=8, fabric=TWO_LEAVES)
    a, b = cluster.connect(0, 5)
    size = 65536
    src = a.node.memory.alloc(size)
    dst = b.node.memory.alloc(size)
    payload = bytes(i % 256 for i in range(size))
    a.node.memory.write(src, payload)

    def app():
        h = yield from a.rdma_write(src, dst, size)
        yield from h.wait()

    proc = cluster.sim.process(app())
    cluster.sim.run_until_done(proc, limit=60_000_000_000)
    assert b.node.memory.read(dst, size) == payload
    assert _tiers(cluster)[0][0].forwarded > 0


def test_cross_leaf_transfer_time_pinned():
    cluster = make_cluster("1L-1G", nodes=8, fabric=TWO_LEAVES)
    a, b = cluster.connect(0, 7)
    size = 256 * 1024
    src = a.node.memory.alloc(size)
    dst = b.node.memory.alloc(size)
    a.node.memory.write(src, b"x" * size)

    def app():
        for _ in range(8):
            h = yield from a.rdma_write(src, dst, size)
            yield from h.wait()

    proc = cluster.sim.process(app())
    cluster.sim.run_until_done(proc, limit=60_000_000_000)
    assert cluster.sim.now == CROSS_LEAF_8X256K_NS
    spines, leaves = _tiers(cluster)
    assert [sw.forwarded for sw in spines + leaves] == [1488, 1488, 1488]
    assert sum(sw.dropped_total for sw in cluster.switches) == 0


def test_cross_leaf_latency_higher_than_same_leaf():
    def small_latency(i, j):
        cluster = make_cluster("1L-1G", nodes=8, fabric=TWO_LEAVES)
        from repro.ethernet import OpFlags

        a, b = cluster.connect(i, j)
        src = a.node.memory.alloc(64)
        dst = b.node.memory.alloc(64)
        arrived = []

        def sender():
            yield from a.rdma_write(src, dst, 64, flags=OpFlags.NOTIFY)

        def receiver():
            yield from b.wait_notification()
            arrived.append(cluster.sim.now)

        cluster.sim.process(sender())
        proc = cluster.sim.process(receiver())
        cluster.sim.run_until_done(proc, limit=10_000_000_000)
        return arrived[0]

    assert small_latency(0, 5) > small_latency(0, 1)


def test_oversubscribed_uplink_congests():
    """Many cross-leaf senders share one uplink: it must bottleneck."""
    cluster = make_cluster("1L-1G", nodes=8, fabric=TWO_LEAVES)
    size = 200_000
    procs = []
    # Nodes 0-3 (leaf 0) all send to nodes 4-7 (leaf 1): 4 flows, 1 uplink.
    for i in range(4):
        a, b = cluster.connect(i, 4 + i)
        src = a.node.memory.alloc(size)
        dst = b.node.memory.alloc(size)
        a.node.memory.write(src, b"u" * size)

        def app(a=a, src=src, dst=dst):
            h = yield from a.rdma_write(src, dst, size)
            yield from h.wait()

        procs.append(cluster.sim.process(app()))
    t0 = cluster.sim.now
    for p in procs:
        cluster.sim.run_until_done(p, limit=120_000_000_000)
    elapsed = cluster.sim.now - t0
    aggregate_mbps = 4 * size / (elapsed / 1e9) / 1e6
    # One 1-GbE uplink caps the aggregate near ~119 MB/s, far below the
    # 4 * 119 the flat topology would deliver.
    assert aggregate_mbps < 140


def test_fat_uplink_removes_bottleneck():
    cluster = make_cluster(
        "1L-1G", nodes=8,
        fabric=LeafSpineSpec(
            leaves=2, spines=1, hosts_per_leaf=4, trunk_speed_bps=10e9
        ),
    )
    size = 200_000
    procs = []
    for i in range(4):
        a, b = cluster.connect(i, 4 + i)
        src = a.node.memory.alloc(size)
        dst = b.node.memory.alloc(size)
        a.node.memory.write(src, b"u" * size)

        def app(a=a, src=src, dst=dst):
            h = yield from a.rdma_write(src, dst, size)
            yield from h.wait()

        procs.append(cluster.sim.process(app()))
    t0 = cluster.sim.now
    for p in procs:
        cluster.sim.run_until_done(p, limit=120_000_000_000)
    elapsed = cluster.sim.now - t0
    aggregate_mbps = 4 * size / (elapsed / 1e9) / 1e6
    assert aggregate_mbps > 300


def test_dsm_app_runs_on_leaf_spine():
    from repro.apps import FftApp, run_app

    result = run_app(FftApp(m=32), nodes=8, fabric=TWO_LEAVES)
    assert result.verified


def test_thirtytwo_node_cluster():
    """Beyond the paper's 16 nodes: a 32-node, 4-leaf fabric works."""
    cluster = make_cluster(
        "1L-1G", nodes=32,
        fabric=LeafSpineSpec(leaves=4, spines=1, hosts_per_leaf=8),
    )
    a, b = cluster.connect(0, 31)
    src = a.node.memory.alloc(4096)
    dst = b.node.memory.alloc(4096)
    a.node.memory.write(src, b"x" * 4096)

    def app():
        h = yield from a.rdma_write(src, dst, 4096)
        yield from h.wait()

    proc = cluster.sim.process(app())
    cluster.sim.run_until_done(proc, limit=60_000_000_000)
    assert b.node.memory.read(dst, 4096) == b"x" * 4096

"""Per-rail counters and edge lifecycle history in the cluster summary."""

from repro.analysis import RailCounters, summarize_cluster
from repro.bench import make_cluster
from repro.control import FaultSchedule, PermanentFailure, Repair

MS = 1_000_000


def run_transfer(cluster, size=1_000_000):
    a, b = cluster.connect(0, 1)
    src = a.node.memory.alloc(size)
    dst = b.node.memory.alloc(size)
    payload = bytes(i % 251 for i in range(size))
    a.node.memory.write(src, payload)

    def app():
        handle = yield from a.rdma_write(src, dst, size)
        yield from handle.wait()

    proc = cluster.sim.process(app())
    cluster.sim.run_until_done(proc, limit=1_000 * MS)
    assert b.node.memory.read(dst, size) == payload
    return a, b


def test_per_rail_counters_sum_to_totals():
    cluster = make_cluster("2Lu-1G", nodes=2)
    run_transfer(cluster)
    summary = summarize_cluster(cluster)
    assert len(summary.rails) == 2
    assert all(isinstance(r, RailCounters) for r in summary.rails)
    assert sum(r.tx_frames for r in summary.rails) == summary.wire_frames
    assert sum(r.tx_bytes for r in summary.rails) == summary.wire_bytes
    assert sum(r.irqs for r in summary.rails) == summary.irqs
    # Both rails actually carried traffic.
    assert all(r.tx_frames > 0 for r in summary.rails)


def test_edge_history_in_summary():
    cluster = make_cluster("2Lu-1G", nodes=2)
    cluster.enable_edge_control(0, 1)
    FaultSchedule([
        PermanentFailure(at_ns=5 * MS, node=0, rail=0),
        Repair(at_ns=30 * MS, node=0, rail=0),
    ]).apply(cluster)
    cluster.sim.run(until=40 * MS)
    summary = summarize_cluster(cluster)
    assert summary.edges_failed == 2  # one DOWN per endpoint
    assert summary.edges_recovered == 2
    assert summary.edge_history
    times = [t.time_ns for t in summary.edge_history]
    assert times == sorted(times)


def test_no_control_plane_yields_empty_history():
    cluster = make_cluster("2Lu-1G", nodes=2)
    run_transfer(cluster, size=100_000)
    summary = summarize_cluster(cluster)
    assert summary.edge_history == []
    assert summary.edges_failed == 0
    assert summary.frames_migrated == 0


def test_edge_score_probe_tracks_failure():
    cluster = make_cluster("2Lu-1G", nodes=2)
    ma, _mb = cluster.enable_edge_control(0, 1)
    FaultSchedule([PermanentFailure(at_ns=10 * MS, node=0, rail=0)]).apply(cluster)
    # Healthy before the kill, collapsed after it.
    cluster.sim.run(until=9 * MS)
    assert ma.edge_score(0) > 0.9
    cluster.sim.run(until=30 * MS)
    assert ma.edge_score(0) < 0.1

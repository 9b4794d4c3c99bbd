"""Health monitors + lifecycle manager against a live two-rail cluster."""

from repro.bench import make_cluster
from repro.control import (
    EdgeState,
    FaultSchedule,
    PermanentFailure,
    Repair,
)
from repro.control.detector import DETECT_BOUND_NS
from repro.core import AdaptiveStriping

MS = 1_000_000


def two_rail_cluster():
    cluster = make_cluster("2Lu-1G", nodes=2)
    a, b = cluster.connect(0, 1)
    ma, mb = cluster.enable_edge_control(0, 1)
    return cluster, a, b, ma, mb


def stream(cluster, a, b, size, limit_ns=400 * MS):
    src = a.node.memory.alloc(size)
    dst = b.node.memory.alloc(size)
    payload = bytes(i % 251 for i in range(size))
    a.node.memory.write(src, payload)

    def app():
        handle = yield from a.rdma_write(src, dst, size)
        yield from handle.wait()

    proc = cluster.sim.process(app())
    cluster.sim.run_until_done(proc, limit=limit_ns)
    return b.node.memory.read(dst, size) == payload


def test_probes_flow_and_score_healthy():
    cluster, a, b, ma, mb = two_rail_cluster()
    cluster.sim.run(until=10 * MS)
    for mon in ma.monitors + mb.monitors:
        assert mon.probes_sent >= 15
        assert mon.probes_acked >= mon.probes_sent - 2
        assert mon.probes_lost == 0
        assert mon.score > 0.9
    assert ma.states == [EdgeState.UP, EdgeState.UP]
    assert a.stats.probes_sent > 0
    assert a.stats.probes_answered > 0


def test_dead_rail_detected_and_masked():
    cluster, a, b, ma, mb = two_rail_cluster()
    FaultSchedule([PermanentFailure(at_ns=5 * MS, node=0, rail=0)]).apply(cluster)
    cluster.sim.run(until=5 * MS + DETECT_BOUND_NS)
    assert ma.edge_state(0) is EdgeState.DOWN
    assert mb.edge_state(0) is EdgeState.DOWN
    assert ma.edge_state(1) is EdgeState.UP
    assert a.conn.active_rails == [1]
    assert b.conn.active_rails == [1]


def test_repair_restores_both_rails():
    cluster, a, b, ma, mb = two_rail_cluster()
    FaultSchedule([
        PermanentFailure(at_ns=5 * MS, node=0, rail=0),
        Repair(at_ns=30 * MS, node=0, rail=0),
    ]).apply(cluster)
    cluster.sim.run(until=40 * MS)
    assert ma.states == [EdgeState.UP, EdgeState.UP]
    assert mb.states == [EdgeState.UP, EdgeState.UP]
    assert a.conn.active_rails == [0, 1]
    # Full cycle recorded, in order.
    states = [t.new for t in ma.transitions_for(0)]
    assert states == [
        EdgeState.SUSPECT, EdgeState.DOWN, EdgeState.RECOVERING, EdgeState.UP
    ]


def test_migration_requeues_stranded_frames():
    cluster, a, b, ma, mb = two_rail_cluster()
    FaultSchedule([PermanentFailure(at_ns=2 * MS, node=0, rail=0)]).apply(cluster)
    assert stream(cluster, a, b, 2_000_000)
    assert a.stats.migrated_frames > 0
    assert a.stats.edges_removed == 1


def test_congestion_does_not_trip_detector():
    # Saturate both rails with a large transfer; probe RTTs inflate behind
    # the full TX rings but no probe is lost, so every edge must stay UP.
    cluster, a, b, ma, mb = two_rail_cluster()
    assert stream(cluster, a, b, 4_000_000)
    assert ma.history == []
    assert mb.history == []
    # The striping score *does* see the congestion (backlog/RTT EWMA).
    assert all(m.probes_lost == 0 for m in ma.monitors)


def test_stale_probe_timeouts_do_not_flap_recovery():
    cluster, a, b, ma, mb = two_rail_cluster()
    FaultSchedule([
        PermanentFailure(at_ns=5 * MS, node=0, rail=0),
        Repair(at_ns=30 * MS, node=0, rail=0),
    ]).apply(cluster)
    cluster.sim.run(until=50 * MS)
    # Exactly one DOWN and one recovery per endpoint — no bonus flaps from
    # outage-era probes timing out after the repair.
    downs = [t for t in ma.transitions_for(0) if t.new is EdgeState.DOWN]
    assert len(downs) == 1
    assert ma.monitors[0].probes_stale > 0


def test_edge_transitions_traced():
    cluster, a, b, ma, mb = two_rail_cluster()
    FaultSchedule([PermanentFailure(at_ns=5 * MS, node=0, rail=0)]).apply(cluster)
    cluster.sim.run(until=20 * MS)
    recs = cluster.tracer.by_category("edge.state")
    assert recs, "transitions must be recorded through the tracer"
    payload = recs[0].payload
    assert {"conn", "rail", "old", "new", "reason"} <= set(payload)


def test_adaptive_striping_receives_scores():
    cluster = make_cluster("2Lu-1G", nodes=2)
    from dataclasses import replace

    cluster.config.protocol = replace(cluster.config.protocol, striping="adaptive")
    a, b = cluster.connect(0, 1)
    assert isinstance(a.conn.striping, AdaptiveStriping)
    ma, mb = cluster.enable_edge_control(0, 1)
    cluster.sim.run(until=5 * MS)
    assert a.conn.striping._divisor[0] > 0.9
    assert a.conn.striping._divisor[1] > 0.9


def test_adaptive_striping_skips_zero_score_rail():
    cluster = make_cluster("2Lu-1G", nodes=2)
    from dataclasses import replace

    cluster.config.protocol = replace(cluster.config.protocol, striping="adaptive")
    a, b = cluster.connect(0, 1)
    pol = a.conn.striping
    pol.set_score(0, 0.0)
    for _ in range(8):
        assert pol.next_rail(1500) == 1
    pol.set_score(0, 1.0)
    assert 0 in {pol.next_rail(1500) for _ in range(4)}


def test_stop_halts_probing():
    cluster, a, b, ma, mb = two_rail_cluster()
    cluster.sim.run(until=5 * MS)
    ma.stop()
    sent = [m.probes_sent for m in ma.monitors]
    cluster.sim.run(until=10 * MS)
    assert [m.probes_sent for m in ma.monitors] == sent

"""End-to-end ECN: fabric marks, receiver echoes, sender reacts.

Runs real incast traffic through a marking switch with the
:class:`~repro.verify.InvariantMonitor` attached (including the new
cwnd-bounds and ECN-conservation invariants) and checks the whole signal
path: CE marks at the switch, echo bits on acks, echo counts at the
sender, congestion-window reduction, and the analysis-layer roll-ups.
"""

import dataclasses

import pytest

from repro.analysis import summarize_cluster
from repro.bench import Cluster, named_config, run_incast
from repro.bench.incast import IncastRun
from repro.bench.serve import ServeRun
from repro.core import ProtocolParams
from repro.verify import InvariantMonitor

SENDERS = 4
SIZE = 120_000
ECN_THRESHOLD = 16


def _marking_cluster(congestion: str) -> Cluster:
    """A 1L-1G cluster whose switch marks CE at ECN_THRESHOLD frames."""
    cfg = named_config(
        "1L-1G",
        nodes=SENDERS + 1,
        protocol=ProtocolParams(in_order_delivery=False, congestion=congestion),
    )
    switch = dataclasses.replace(cfg.switch, ecn_threshold_frames=ECN_THRESHOLD)
    return Cluster(dataclasses.replace(cfg, switch=switch))


def run_marked_incast(congestion: str):
    """4-to-1 incast on a small marking queue; returns (cluster, monitor,
    sender endpoints)."""
    cluster = _marking_cluster(congestion)
    receiver = SENDERS
    payload = bytes(i % 241 for i in range(SIZE))
    targets = []
    procs = []
    for i in range(SENDERS):
        a, b = cluster.connect(i, receiver)
        src = a.node.memory.alloc(SIZE)
        dst = b.node.memory.alloc(SIZE)
        a.node.memory.write(src, payload)
        targets.append((b, dst))

        def app(a=a, src=src, dst=dst):
            h = yield from a.rdma_write(src, dst, SIZE)
            yield from h.wait()

        procs.append(cluster.sim.process(app()))
    monitor = InvariantMonitor.attach(cluster)
    sender_conns = [
        conn
        for stack in cluster.stacks[:SENDERS]
        for conn in stack.protocol.connections.values()
    ]
    for p in procs:
        cluster.sim.run_until_done(p, limit=60_000_000_000)
    cluster.quiesce()
    monitor.final_check()
    intact = all(
        b.node.memory.read(dst, SIZE) == payload for b, dst in targets
    )
    assert intact, "incast corrupted receiver memory"
    return cluster, monitor, sender_conns


def test_dctcp_reacts_to_marks_under_monitor():
    cluster, monitor, senders = run_marked_incast("dctcp")
    assert monitor.ok and monitor.checks_run > 0

    marked = sum(sw.ce_marked_total for sw in cluster.switches)
    assert marked > 0, "queue never crossed the ECN threshold"

    # Signal path: marks -> receiver CE counts -> echoes -> sender.
    all_conns = [
        c for s in cluster.stacks for c in s.protocol.connections.values()
    ]
    ce_received = sum(c.stats.ce_frames_received for c in all_conns)
    echoes_sent = sum(c.stats.ecn_echoes_sent for c in all_conns)
    echoes_received = sum(c.stats.ecn_echoes_received for c in all_conns)
    assert 0 < ce_received <= marked
    assert 0 < echoes_received <= echoes_sent

    # The controller actually closed the window below its starting point.
    for conn in senders:
        assert conn.congestion.name == "dctcp"
        assert conn.window.cwnd is not None
        assert conn.window.cwnd < conn.window.size
        assert conn.congestion.marked_fraction > 0.0

    # Analysis roll-up exposes the same counters.
    summary = summarize_cluster(cluster)
    assert summary.ce_marked == marked
    assert summary.ce_received == ce_received
    assert summary.ecn_echoes_sent == echoes_sent
    assert summary.ecn_echoes_received == echoes_received
    assert summary.congestion_controllers == ["dctcp"]
    assert 0 < summary.cwnd_final_mean < senders[0].window.size


def test_static_controller_echoes_but_never_reacts():
    """ECN marking with the static policy: the echo plumbing still works,
    the window never moves, and every invariant still holds."""
    cluster, monitor, senders = run_marked_incast("static")
    assert monitor.ok
    marked = sum(sw.ce_marked_total for sw in cluster.switches)
    all_conns = [
        c for s in cluster.stacks for c in s.protocol.connections.values()
    ]
    assert marked > 0
    assert sum(c.stats.ecn_echoes_sent for c in all_conns) > 0
    for conn in senders:
        assert conn.congestion is None  # the static policy has no controller
        assert conn.window.cwnd is None  # never clamped


def test_pacing_delays_departures_end_to_end():
    r = run_incast(
        senders=8,
        congestion="dctcp",
        ecn_threshold_frames=32,
        pacing=True,
    )
    assert r.pacing_stall_ns > 0, "token bucket never delayed a frame"
    assert r.data_intact


def test_inactive_congestion_params_change_nothing():
    """Pacing asked of the static controller is byte-identical to the
    all-defaults path: the static policy has no window to pace."""
    base = run_incast(senders=4, congestion="static")
    explicit = run_incast(senders=4, congestion="static", pacing=True)
    assert dataclasses.asdict(base) == dataclasses.asdict(explicit)


@pytest.mark.parametrize("run", [IncastRun, ServeRun])
def test_zero_ecn_threshold_is_rejected_at_build(run):
    """A threshold of 0 would CE-mark every admitted frame; the switch
    configuration refuses it before the cluster is built."""
    with pytest.raises(ValueError, match="ecn_threshold_frames"):
        run(ecn_threshold_frames=0)


def _start_marked_incast():
    cluster = _marking_cluster("dctcp")
    pairs, procs = [], []
    for i in range(SENDERS):
        a, b = cluster.connect(i, SENDERS)
        src = a.node.memory.alloc(SIZE)
        dst = b.node.memory.alloc(SIZE)

        def app(a=a, src=src, dst=dst):
            h = yield from a.rdma_write(src, dst, SIZE)
            yield from h.wait()

        procs.append(cluster.sim.process(app()))
        pairs.append((a.conn, b.conn))
    return cluster, pairs, procs


def test_measurement_reset_zeroes_ecn_counters_and_the_monitor_rebases():
    """The ECN counters live in ConnectionStats, so a measurement reset
    zeroes them; echo conservation is a lifetime law and must survive a
    reset taken while an echo is on the wire."""
    from repro.core import ConnectionStats

    # Probe run: the last instant some echo is still in flight.
    cluster, pairs, procs = _start_marked_incast()
    sim = cluster.sim
    reset_at = None
    while not all(p.finished for p in procs):
        sim.run_until_time(sim.next_event_time())
        for tx, rx in pairs:  # the receiver (rx) echoes, the sender counts them
            if rx.stats.ecn_echoes_sent > tx.stats.ecn_echoes_received:
                reset_at = sim.now
    assert reset_at is not None, "no echo was ever in flight"

    cluster, pairs, procs = _start_marked_incast()
    monitor = InvariantMonitor.attach(cluster)
    cluster.sim.run_until_time(reset_at)
    before = [(rx.stats.ecn_echoes_sent, tx.stats.ecn_echoes_received) for tx, rx in pairs]
    assert any(sent > received for sent, received in before)
    for stack in cluster.stacks:
        for conn in stack.protocol.connections.values():
            conn.stats = ConnectionStats()
    for p in procs:
        cluster.sim.run_until_done(p, limit=60_000_000_000)
    cluster.sim.run()
    monitor.final_check()
    assert monitor.ok, monitor.violations

    # The echo that was on the wire at the reset was counted as sent by a
    # retired stats object and as received by a fresh one ...
    assert any(
        tx.stats.ecn_echoes_received > rx.stats.ecn_echoes_sent for tx, rx in pairs
    )
    # ... and the monitor's lifetime totals still balance, and still hold
    # what the retired objects had counted.
    for (tx, rx), (sent0, received0) in zip(pairs, before):
        sent = monitor.conn_monitors[(rx.conn_id, rx.node.node_id)].echoes()[0]
        received = monitor.conn_monitors[(tx.conn_id, tx.node.node_id)].echoes()[1]
        assert received <= sent
        assert sent == sent0 + rx.stats.ecn_echoes_sent
        assert received == received0 + tx.stats.ecn_echoes_received

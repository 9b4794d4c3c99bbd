"""Detector refusal: every disqualifying condition keeps the flow frame-level.

Each test takes an otherwise-armable idle connection pair, introduces one
disqualifying condition, and asserts :func:`repro.fastpath.disqualify_reason`
names it — proving the fast path refuses to arm rather than jumping over a
discontinuity.
"""

from dataclasses import replace
from types import SimpleNamespace

from repro.bench.cluster import make_cluster, named_config
from repro.ethernet import LinkParams
from repro.fastpath import disqualify_reason
from repro.verify import InvariantMonitor


def _pair(config="1L-1G", **overrides):
    cluster = make_cluster(config, fastpath=True, **overrides)
    a, b = cluster.connect(0, 1)
    return cluster, a.conn, b.conn


def _reason(conn):
    return disqualify_reason(conn.fastpath)


def test_idle_connection_is_armable():
    _, conn, _ = _pair()
    assert _reason(conn) is None


def test_monitor_attached_refuses():
    cluster, conn, _ = _pair()
    InvariantMonitor.attach(cluster)
    assert _reason(conn) == "monitor-attached"


def test_closed_connection_refuses():
    _, conn, peer = _pair()
    peer.closed = True
    assert _reason(conn) == "connection-closed"


def test_journal_replay_in_flight_refuses():
    _, conn, _ = _pair()
    channel = SimpleNamespace(_ready=object())
    conn.protocol.recovery = SimpleNamespace(channels=[channel])
    assert _reason(conn) == "journal-replay-in-flight"


def test_recovery_attached_refuses():
    _, conn, _ = _pair()
    conn.protocol.recovery = SimpleNamespace(channels=[])
    assert _reason(conn) == "recovery-active"


def test_open_loss_episode_retransmit_queue_refuses():
    _, conn, _ = _pair()
    conn._retransmit_q.append(object())
    assert _reason(conn) == "open-loss-episode"


def test_open_loss_episode_receive_gap_refuses():
    _, conn, peer = _pair()
    peer.tracker._beyond.add(7)
    assert _reason(conn) == "open-loss-episode"


def test_frames_in_flight_refuses():
    _, conn, _ = _pair()
    conn.window.inflight[0] = object()
    assert _reason(conn) == "frames-in-flight"


def test_pending_ecn_echo_refuses():
    _, conn, peer = _pair()
    peer.ack_policy.note_ce()
    assert _reason(conn) == "pending-ecn-echo"


def test_unacked_frames_refuses():
    _, conn, peer = _pair()
    peer.ack_policy._unacked_frames = 3
    assert _reason(conn) == "unacked-frames"


def test_delayed_ack_timer_refuses():
    _, conn, peer = _pair()
    peer._delayed_ack_timer = peer.sim.timer(10_000, lambda: None)
    assert _reason(conn) == "delayed-ack-armed"


def test_nack_timer_refuses():
    _, conn, _ = _pair()
    conn._nack_timer = conn.sim.timer(10_000, lambda: None)
    assert _reason(conn) == "nack-timer-armed"


def test_active_fence_refuses():
    _, conn, _ = _pair()
    conn._forward_fences.append(object())
    assert _reason(conn) == "fence-active"


def test_read_in_flight_refuses():
    _, conn, _ = _pair()
    conn._pending_reads[1] = object()
    assert _reason(conn) == "read-in-flight"


def test_peer_sending_refuses():
    _, conn, peer = _pair()
    peer.unsent.append(object())
    assert _reason(conn) == "peer-sending"


def test_window_too_small_refuses():
    _, conn, _ = _pair()
    conn.window.size = 8  # < 2 * ack_every_frames (default 32)
    assert _reason(conn) == "window-too-small"


def test_cwnd_unstable_refuses():
    _, conn, _ = _pair()
    conn.congestion = SimpleNamespace(cwnd_stable=lambda now: False)
    assert _reason(conn) == "cwnd-unstable"


def test_pacing_enabled_refuses():
    _, conn, _ = _pair()
    conn._pacing_on = True
    assert _reason(conn) == "pacing-enabled"


def test_nic_pacer_refuses():
    _, conn, _ = _pair()
    conn.nics[0].pacer = object()
    assert _reason(conn) == "pacing-enabled"


def test_suspect_edge_refuses():
    _, conn, _ = _pair()
    conn.control_plane = SimpleNamespace(
        states=[SimpleNamespace(name="SUSPECT")]
    )
    assert _reason(conn) == "edge-not-up"


def test_nic_powered_off_refuses():
    _, conn, peer = _pair()
    peer.nics[0].powered = False
    assert _reason(conn) == "nic-powered-off"


def test_nic_tx_ring_busy_refuses():
    _, conn, _ = _pair()
    conn.nics[0]._tx_ring_used = 1
    assert _reason(conn) == "nic-busy"


def test_nic_rx_pending_refuses():
    _, conn, peer = _pair()
    peer.nics[0]._rx_pending.append(object())
    assert _reason(conn) == "nic-busy"


def test_multi_hop_fabric_refuses():
    from repro.fabric import LeafSpineSpec

    cluster = make_cluster(
        "1L-1G", nodes=4, fastpath=True,
        fabric=LeafSpineSpec(leaves=2, spines=1, hosts_per_leaf=2),
    )
    a, _ = cluster.connect(0, 1)
    assert _reason(a.conn) == "multi-hop-fabric"


def test_lossy_link_refuses():
    # Lossy as built, and lossy by a fault on one direction of one cable:
    # the detector asks the links, not the cluster's configuration.
    _, conn, _ = _pair(link=LinkParams(speed_bps=1e9, bit_error_rate=1e-9))
    assert _reason(conn) == "lossy-link"
    cluster, conn, _ = _pair()
    cluster.cable(1, 0).ba.set_bit_error_rate(1e-9)
    assert _reason(conn) == "lossy-link"
    cluster.cable(1, 0).repair()
    assert _reason(conn) is None


def test_impaired_device_on_the_path_refuses():
    # Either direction counts: data leaves node 0, acks come back from 1.
    for impair, restore, reason in (
        (lambda c: c.cable(0, 0).degrade(0.0, 2_000),
         lambda c: c.cable(0, 0).clear_degraded(), "link-degraded"),
        (lambda c: c.cable(1, 0).ab.fail_forever(),
         lambda c: c.cable(1, 0).repair(), "link-down"),
        (lambda c: c.nodes[1].nics[0].set_tx_throttle(4.0),
         lambda c: c.nodes[1].nics[0].set_tx_throttle(1.0), "nic-throttled"),
        (lambda c: c.nodes[1].set_slowdown(2.0),
         lambda c: c.nodes[1].set_slowdown(1.0), "node-slowed"),
    ):
        cluster, conn, _ = _pair()
        bumps = cluster.fastpath.stats.guard_bumps
        impair(cluster)
        assert _reason(conn) == reason
        restore(cluster)
        assert _reason(conn) is None
        # Every mutator told the guard, both ways.
        assert cluster.fastpath.stats.guard_bumps >= bumps + 2
    # A device off the path does not matter.
    cluster, conn, _ = _pair()
    cluster.cable(2, 0).fail_forever()
    cluster.nodes[3].set_slowdown(2.0)
    assert _reason(conn) is None


def test_ecn_enabled_refuses():
    switch = replace(named_config("1L-1G").switch, ecn_threshold_frames=8)
    _, conn, _ = _pair(switch=switch)
    assert _reason(conn) == "ecn-enabled"


def test_switch_queue_occupied_refuses():
    cluster, conn, _ = _pair()
    cluster.switches[0].ports[5]._queue.append(object())
    assert _reason(conn) == "switch-queue-occupied"


def test_fabric_busy_refuses():
    cluster, conn, _ = _pair()
    other, _ = cluster.connect(2, 3)
    other.conn.unsent.append(object())
    assert _reason(conn) == "fabric-busy"


def test_unsupported_op_shapes_rejected_by_planner():
    from repro.fastpath import UNSUPPORTED_OP_FLAGS
    from repro.ethernet import OpFlags

    for flag in (
        OpFlags.FENCE_BACKWARD,
        OpFlags.FENCE_FORWARD,
        OpFlags.SCATTER,
        OpFlags.JOURNALED,
    ):
        assert flag & UNSUPPORTED_OP_FLAGS


def test_denial_is_pure():
    """The detector draws no RNG and schedules nothing (event parity)."""
    cluster, conn, peer = _pair()
    sim = conn.sim
    queue_before = len(sim._queue)
    rng_states = {
        name: repr(rng.bit_generator.state)
        for name, rng in cluster.rng._streams.items()
    }
    peer.ack_policy._unacked_frames = 1
    assert _reason(conn) == "unacked-frames"
    assert len(sim._queue) == queue_before
    for name, rng in cluster.rng._streams.items():
        assert repr(rng.bit_generator.state) == rng_states[name]


def test_datacenter_fabric_refuses():
    """A repro.fabric multi-switch cluster must never arm the fast path:
    per-hop store-and-forward and ECMP path choice are not analytic."""
    from repro.fabric import LeafSpineSpec

    cluster = make_cluster(
        "1L-1G", nodes=4, fastpath=True,
        fabric=LeafSpineSpec(leaves=2, spines=2, hosts_per_leaf=2),
    )
    a, _ = cluster.connect(0, 1)
    assert _reason(a.conn) == "multi-hop-fabric"


def test_serve_arrivals_armed_refuses():
    """An armed open-loop arrival source guarantees future traffic the
    analytic jump cannot see — the detector must refuse while it lives."""
    cluster, conn, _ = _pair()
    cluster.serve = SimpleNamespace(arrivals_armed=True, active=False)
    assert _reason(conn) == "serve-arrivals-armed"


def test_serve_traffic_active_refuses():
    """Outstanding request/response pairs are bidirectional by
    construction; jumping one leg would skip the other."""
    cluster, conn, _ = _pair()
    cluster.serve = SimpleNamespace(arrivals_armed=False, active=True)
    assert _reason(conn) == "serve-traffic-active"


def test_serve_quiesced_rearms():
    """Once the serving layer fully drains, the fast path is eligible
    again — the refusal is load-shaped, not permanent."""
    cluster, conn, _ = _pair()
    cluster.serve = SimpleNamespace(arrivals_armed=False, active=False)
    assert _reason(conn) is None


def test_real_serve_runtime_disqualifies_while_armed():
    """End to end: enable_serving on a fastpath cluster -> disqualified
    for the whole loaded phase, re-eligible after the drain."""
    from repro.mp import MpWorld
    from repro.serve import ArrivalSpec, ServeConfig, enable_serving

    cluster = make_cluster("1L-1G", nodes=2, fastpath=True)
    world = MpWorld(cluster)
    rt = enable_serving(
        cluster,
        world,
        ServeConfig(
            clients=(0,),
            servers=(1,),
            arrival=ArrivalSpec(kind="poisson", rate_rps=20_000),
            duration_ns=1_000_000,
        ),
    )
    rt.start()
    a, _ = cluster.connect(0, 1)
    assert _reason(a.conn) == "serve-arrivals-armed"
    cluster.sim.run_until_time(1_000_000)
    cluster.sim.run(until=20_000_000)
    assert not rt.arrivals_armed and not rt.active
    assert _reason(a.conn) is None


def test_journal_replay_in_flight_refuses_against_real_recovery():
    """The same denial from a real ``ClusterRecovery`` whose journaled
    channel is between losing its connection and finishing the replay —
    not a stand-in object, which is how a misspelt attribute went unseen."""
    from repro.control import Crash, FaultSchedule, Restart

    MS = 1_000_000
    cluster = make_cluster("2Lu-1G", nodes=3, fastpath=True, synthetic_payloads=True)
    cluster.connect(0, 1)
    bystander, _ = cluster.connect(0, 2)
    cluster.enable_edge_control(0, 1)
    recovery = cluster.enable_crash_recovery()
    channel = recovery.channel(0, 1)
    FaultSchedule(
        [Crash(at_ns=2 * MS, node=1), Restart(at_ns=2 * MS, node=1, delay_ns=1 * MS)]
    ).apply(cluster)

    def stream():
        addr = 0
        while cluster.sim.now < 12 * MS:
            yield from channel.send(addr, addr, 2048)
            addr += 2048
            yield 50_000

    proc = cluster.sim.process(stream())
    assert _reason(bystander.conn) == "recovery-active"
    sim = cluster.sim
    while channel._ready is None:  # until PEER_DOWN blocks the channel
        sim.run_until_time(sim.next_event_time())
    assert recovery.peer_down_events == 1 and recovery.reconnects == 0
    assert _reason(bystander.conn) == "journal-replay-in-flight"
    sim.run_until_done(proc, limit=10**10)
    assert recovery.reconnects == 1 and channel.redeliveries > 0
    assert channel._ready is None
    assert _reason(bystander.conn) == "recovery-active"

"""Unit tests for the crash/recovery subsystem (repro.recovery).

Covers the pieces end-to-end scenarios exercise only in aggregate:
backoff policy arithmetic, retransmit-timer exhaustion edge cases, typed
exceptions surfacing through operation handles, NIC power cycling, the
incarnation stale-frame guard, receiver-side dedup, reconnect after a
*second* crash of the same peer, the DSM/MP crash hooks, and the crash
counters surfaced by ``summarize_cluster`` / ``reconnect_latencies``.
"""

import random
from types import SimpleNamespace

import pytest

from repro.analysis import summarize_cluster
from repro.bench import make_cluster
from repro.control import Crash, FaultSchedule, Restart
from repro.core import (
    BackoffPolicy,
    PeerCrashed,
    RetransmitExhausted,
    RetransmitTimer,
)
from repro.core.retransmit import (
    BACKOFF_FACTOR,
    COARSE_TIMEOUT_NS,
    MAX_RETRIES,
    MAX_TIMEOUT_NS,
)
from repro.dsm.region import PageState
from repro.dsm.runtime import DsmRuntime
from repro.ethernet import Frame, FrameType, MultiEdgeHeader
from repro.mp.endpoint import MpWorld
from repro.sim import Simulator

MS = 1_000_000


class TestBackoffPolicy:
    def test_geometric_growth_with_cap(self):
        policy = BackoffPolicy(base_ns=1 * MS, factor=2, cap_ns=8 * MS,
                               jitter_frac=0.0)
        delays = [policy.delay_ns(a) for a in range(6)]
        assert delays == [1 * MS, 2 * MS, 4 * MS, 8 * MS, 8 * MS, 8 * MS]

    def test_jitter_bounded_and_deterministic(self):
        policy = BackoffPolicy(base_ns=1 * MS, factor=2, cap_ns=8 * MS,
                               jitter_frac=0.25)
        a = [policy.delay_ns(i, random.Random("s")) for i in range(8)]
        b = [policy.delay_ns(i, random.Random("s")) for i in range(8)]
        assert a == b  # same seed, same delays
        for attempt, got in enumerate(a):
            base = min(1 * MS * 2**attempt, 8 * MS)
            assert base <= got <= int(base * 1.25)

    def test_worst_case_bounds_any_jittered_run(self):
        policy = BackoffPolicy(base_ns=3 * MS, factor=2, cap_ns=48 * MS,
                               jitter_frac=0.1, max_attempts=10)
        worst = policy.worst_case_total_ns()
        for seed in range(20):
            rng = random.Random(seed)
            total = sum(
                policy.delay_ns(a, rng) for a in range(policy.max_attempts)
            )
            assert total <= worst

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_ns=0)
        with pytest.raises(ValueError):
            BackoffPolicy(base_ns=1, factor=0)
        with pytest.raises(ValueError):
            BackoffPolicy(base_ns=1, jitter_frac=1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(base_ns=1, max_attempts=0)


class TestRetransmitTimerEdgeCases:
    def _timer(self, sim):
        fired, dead = [], []
        timer = RetransmitTimer(
            sim,
            on_timeout=lambda: (fired.append(sim.now), timer.arm()),
            on_dead=lambda: dead.append(sim.now),
        )
        return timer, fired, dead

    def test_exhaustion_fires_on_dead_once_and_stays_down(self):
        sim = Simulator()
        timer, fired, dead = self._timer(sim)
        timer.arm()
        sim.run()
        # MAX_RETRIES allowed timeouts, then the next silent one declares dead.
        assert len(fired) == MAX_RETRIES and len(dead) == 1
        assert timer.exhausted and not timer.armed
        timer.arm()  # no-op once exhausted
        assert not timer.armed
        sim.run()
        assert len(dead) == 1  # on_dead never re-fires

    def test_backoff_doubles_up_to_cap(self):
        sim = Simulator()
        timer, fired, dead = self._timer(sim)
        timer.arm()
        sim.run()
        gaps = [b - a for a, b in zip([0] + fired, fired + dead)]
        assert gaps == [
            min(COARSE_TIMEOUT_NS * BACKOFF_FACTOR**i, MAX_TIMEOUT_NS)
            for i in range(MAX_RETRIES + 1)
        ]
        assert gaps[-1] == MAX_TIMEOUT_NS

    def test_progress_resets_exhaustion_and_backoff(self):
        sim = Simulator()
        timer, fired, dead = self._timer(sim)
        timer.arm()
        sim.run()
        assert timer.exhausted
        timer.on_progress()
        assert not timer.exhausted and timer.consecutive_timeouts == 0
        timer.arm()
        assert timer.armed  # re-armable after fresh ack progress
        t0 = sim.now
        sim.run()
        assert fired[MAX_RETRIES] - t0 == COARSE_TIMEOUT_NS  # backoff restarted

    def test_cancel_prevents_fire(self):
        sim = Simulator()
        timer, fired, dead = self._timer(sim)
        timer.arm()
        timer.cancel()
        sim.run()
        assert fired == [] and dead == []


def _two_node_cluster(config="1L-1G", **kw):
    cluster = make_cluster(config, nodes=2, synthetic_payloads=True, **kw)
    a, b = cluster.connect(0, 1)
    return cluster, a, b


class TestTypedExceptions:
    def test_peer_crashed_raises_through_handle_wait(self):
        cluster, a, b = _two_node_cluster()
        cluster.enable_edge_control(0, 1)  # PEER_DOWN escalation path
        recovery = cluster.enable_crash_recovery()
        caught = []

        def app():
            handle = yield from a.rdma_write(0, 0, 256_000)
            try:
                yield from handle.wait()
            except PeerCrashed as exc:
                caught.append(exc)

        proc = cluster.sim.process(app())
        cluster.sim.timer(1 * MS, lambda: recovery.crash(1))
        cluster.sim.run_until_done(proc, limit=100 * MS)
        assert len(caught) == 1
        assert caught[0].peer_node == 1

    def test_peer_crashed_raises_through_handle_test(self):
        cluster, a, b = _two_node_cluster()
        cluster.enable_crash_recovery()
        handles = []

        def app():
            handle = yield from a.rdma_write(0, 0, 64_000)
            handles.append(handle)

        proc = cluster.sim.process(app())
        cluster.sim.run_until_done(proc, limit=10 * MS)
        a.conn.destroy()  # default exc is PeerCrashed
        with pytest.raises(PeerCrashed):
            handles[0].test()

    def test_coarse_death_raises_retransmit_exhausted(self):
        cluster, a, b = _two_node_cluster()
        caught = []

        def app():
            handle = yield from a.rdma_write(0, 0, 256_000)
            try:
                yield from handle.wait()
            except RetransmitExhausted as exc:
                caught.append(exc)

        proc = cluster.sim.process(app())
        cluster.sim.timer(100_000, a.conn._on_coarse_dead)
        cluster.sim.run_until_done(proc, limit=100 * MS)
        assert len(caught) == 1
        assert caught[0].conn_id == a.conn.conn_id


class TestNicPowerCycle:
    def test_power_off_drops_arrivals_and_power_on_restores(self):
        cluster, a, b = _two_node_cluster()
        nic = cluster.nodes[1].nics[0]

        def app():
            yield from a.rdma_write(0, 0, 64_000)
            yield 20 * MS

        nic.power_off()
        nic.power_off()  # idempotent
        proc = cluster.sim.process(app())
        cluster.sim.run_until_done(proc, limit=40 * MS)
        assert not nic.powered
        assert nic.counters.rx_dropped_powered_off > 0
        assert nic._tx_ring_used == 0 and not nic._rx_pending
        nic.power_on()
        assert nic.powered


class TestIncarnationGuard:
    def test_stale_incarnation_frame_rejected(self):
        cluster, a, b = _two_node_cluster()
        cluster.enable_crash_recovery()
        conn = b.conn
        before = conn.stats.stale_frames_rejected
        header = MultiEdgeHeader(
            frame_type=FrameType.DATA, connection_id=conn.conn_id,
            op_id=99, op_length=64, payload_length=64,
        )
        frame = Frame(src_mac=0, dst_mac=0, header=header)
        frame.incarnation = conn.peer_incarnation + 1  # from a dead epoch
        # The guard trips before the first yield of the receive generator.
        next(conn.handle_rx_frame(frame, None), None)
        assert conn.stats.stale_frames_rejected == before + 1

    def test_matching_incarnation_passes_the_guard(self):
        cluster, a, b = _two_node_cluster()
        cluster.enable_crash_recovery()
        received = []

        def app():
            handle = yield from a.rdma_write(0, 0, 4096)
            yield from handle.wait()
            received.append(handle)

        proc = cluster.sim.process(app())
        cluster.sim.run_until_done(proc, limit=100 * MS)
        assert received and b.conn.stats.stale_frames_rejected == 0

    def test_receiver_dedup_keyed_on_incarnation(self):
        cluster, a, b = _two_node_cluster()
        recovery = cluster.enable_crash_recovery()
        conn = SimpleNamespace(
            node=SimpleNamespace(node_id=1), peer_node_id=0,
            peer_incarnation=0,
        )
        rx_op = SimpleNamespace(op_seq=5)
        assert recovery.accept_delivery(conn, rx_op)
        assert not recovery.accept_delivery(conn, rx_op)  # replayed
        conn.peer_incarnation = 1  # fresh epoch: new key space
        assert recovery.accept_delivery(conn, rx_op)


def _crash_stream(crash_specs, run_ns, config="2Lu-1G"):
    """Journaled 0->1 stream with scheduled receiver crashes."""
    cluster = make_cluster(config, nodes=2, seed=0, synthetic_payloads=True)
    cluster.connect(0, 1)
    cluster.enable_edge_control(0, 1)
    recovery = cluster.enable_crash_recovery()
    channel = recovery.channel(0, 1)
    events = []
    for at_ns, delay_ns in crash_specs:
        events.append(Crash(at_ns=at_ns, node=1))
        events.append(Restart(at_ns=at_ns, node=1, delay_ns=delay_ns))
    FaultSchedule(events).apply(cluster)

    def stream():
        addr = 0
        while cluster.sim.now < run_ns:
            yield from channel.send(addr, addr, 2048)
            addr += 2048
            yield 50_000

    proc = cluster.sim.process(stream())
    cluster.sim.run_until_done(proc, limit=run_ns + 500 * MS)
    for mgr in list(cluster.control_planes.values()):
        mgr.stop()
    cluster.sim.run()
    return cluster, recovery, channel


class TestClusterRecoveryEndToEnd:
    def test_single_crash_exactly_once_with_probe_and_summary(self):
        cluster, recovery, channel = _crash_stream(
            [(6 * MS, 3 * MS)], run_ns=25 * MS
        )
        assert recovery.crashes == 1 and recovery.restarts == 1
        assert recovery.reconnects == 1 and recovery.reconnects_failed == 0
        # Exactly-once: each sent message acked and logged exactly once.
        assert all(e.delivered for e in channel.journal.entries)
        assert len(recovery.nodes[1].delivered) == channel.messages_sent
        assert channel.redeliveries > 0

        [(_at_ns, latency_ns)] = recovery.reconnect_latencies
        assert latency_ns > 0

        summary = summarize_cluster(cluster)
        assert summary.node_crashes == 1 and summary.node_restarts == 1
        assert summary.peer_down_events == 1 and summary.reconnects == 1
        assert summary.reconnect_latency_max_ns == latency_ns
        assert summary.messages_journaled == channel.messages_sent
        assert summary.messages_redelivered == channel.redeliveries
        assert summary.duplicate_msgs_suppressed >= 0

    def test_second_crash_of_same_peer_also_recovers(self):
        # The reconnect re-arms edge control, so crash #2 must be detected
        # and healed exactly like crash #1.
        cluster, recovery, channel = _crash_stream(
            [(6 * MS, 3 * MS), (25 * MS, 3 * MS)], run_ns=45 * MS
        )
        assert recovery.crashes == 2 and recovery.restarts == 2
        assert recovery.reconnects == 2
        assert len(recovery.reconnect_latencies) == 2
        assert all(e.delivered for e in channel.journal.entries)
        assert len(recovery.nodes[1].delivered) == channel.messages_sent
        assert recovery.nodes[1].incarnation == 2


class TestDomainHooks:
    def test_mp_recv_from_crashed_peer_raises(self):
        cluster = make_cluster("1L-1G", nodes=2, synthetic_payloads=True)
        cluster.connect(0, 1)
        recovery = cluster.enable_crash_recovery()
        world = MpWorld(cluster)
        caught = []

        def prog():
            try:
                yield from world.endpoints[0].recv(source=1)
            except PeerCrashed as exc:
                caught.append(exc)

        proc = cluster.sim.process(prog())
        cluster.sim.timer(1 * MS, lambda: recovery.crash(1))
        cluster.sim.run_until_done(proc, limit=50 * MS)
        assert len(caught) == 1 and caught[0].peer_node == 1

    def test_dsm_invalidates_cached_pages_homed_at_crashed_peer(self):
        cluster = make_cluster("1L-1G", nodes=2, synthetic_payloads=True)
        recovery = cluster.enable_crash_recovery()
        runtime = DsmRuntime(cluster)
        region = runtime.alloc_region("r", 4 * 4096, home="fixed:1")
        pt = runtime.nodes[0].page_tables[region.region_id]
        # Node 0 holds a clean cached copy of a page homed at node 1.
        pt.state[0] = PageState.VALID
        recovery.crash(1)
        assert pt.state[0] is PageState.INVALID
        # The home's own (authoritative, restored-on-reboot) copies stay.
        home_pt = runtime.nodes[1].page_tables[region.region_id]
        assert all(s is PageState.VALID for s in home_pt.state)

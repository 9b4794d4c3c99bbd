"""Message passing across a node crash: what a failed ring and the
crashed rank's memory hold afterwards."""

import pytest

from repro.bench import make_cluster
from repro.control import Crash, FaultSchedule, Restart
from repro.core import PeerCrashed
from repro.mp.endpoint import MpWorld
from repro.recovery import ClusterRecovery

MS = 1_000_000


def test_a_writer_that_takes_its_turn_on_a_failed_ring_raises():
    """Rank 2 crashes for good while rank 0 streams to it: once the window
    is spent, rank 0 raises instead of waiting for credit that cannot
    come, also when its writer stalls only after the crash hook ran."""
    cluster = make_cluster("1L-1G", nodes=3)
    cluster.layer(ClusterRecovery)
    world = MpWorld(cluster)
    FaultSchedule([Crash(at_ns=1 * MS, node=2)]).apply(cluster)
    sim = cluster.sim
    caught = []

    def sender():
        try:
            while True:
                yield from world.endpoints[0].send(2, bytes(64))
        except PeerCrashed as exc:
            caught.append((exc.peer_node, sim.now))

    proc = sim.process(sender(), name="sender")
    sim.run(until=200 * MS)
    assert proc.finished
    assert caught and caught[0][0] == 2 and caught[0][1] < 2 * MS


@pytest.mark.parametrize("size", [64, 32 * 1024], ids=["eager", "rendezvous"])
def test_a_message_unmatched_at_a_crashed_rank_is_gone(size):
    """Rank 0's first message lands at rank 1 before any receive is posted;
    rank 1 crashes and restarts.  Its first receive after the reconnect
    gets the message sent after it, not the one its memory lost."""
    cluster = make_cluster("1L-1G", nodes=2)
    cluster.layer(ClusterRecovery)
    cluster.enable_edge_control(0, 1)
    world = MpWorld(cluster)
    FaultSchedule([
        Crash(at_ns=1 * MS, node=1), Restart(at_ns=1 * MS, node=1, delay_ns=2 * MS),
    ]).apply(cluster)
    sim = cluster.sim
    got = []

    def sender():
        try:
            yield from world.endpoints[0].send(1, b"\x01" * size, tag=7)
        except PeerCrashed:
            pass  # a rendezvous waits for a clear-to-send that never comes
        yield 20 * MS - sim.now
        yield from world.endpoints[0].send(1, b"\x02" * size, tag=7)

    def receiver():
        yield 20 * MS
        msg = yield from world.endpoints[1].recv(source=0, tag=7)
        got.append(msg.data)

    sim.process(sender(), name="sender")
    proc = sim.process(receiver(), name="receiver")
    sim.run_until_done(proc, limit=100 * MS)
    assert cluster.layer(ClusterRecovery).reconnects == 1
    assert got == [b"\x02" * size]


def test_a_rendezvous_of_a_crashed_sender_dies_with_its_incarnation():
    """Rank 1 starts a 32 KiB rendezvous send before rank 0 posts a receive;
    rank 1 crashes and restarts.  The send raises ``PeerCrashed``, and rank
    0's receive after the reconnect gets what the new incarnation sends,
    not the payload of the dead one."""
    cluster = make_cluster("1L-1G", nodes=2)
    cluster.layer(ClusterRecovery)
    cluster.enable_edge_control(0, 1)
    world = MpWorld(cluster)
    FaultSchedule([
        Crash(at_ns=1 * MS, node=1), Restart(at_ns=1 * MS, node=1, delay_ns=2 * MS),
    ]).apply(cluster)
    sim = cluster.sim
    outcome, got = [], []

    def sender():
        try:
            yield from world.endpoints[1].send(0, b"\x01" * 32 * 1024)
            outcome.append(sim.now)
        except PeerCrashed as exc:
            outcome.append(exc.peer_node)
        yield 30 * MS - sim.now
        yield from world.endpoints[1].send(0, b"\x02" * 32 * 1024)

    def receiver():
        yield 20 * MS
        msg = yield from world.endpoints[0].recv(source=1)
        got.append((sim.now, msg.data))

    sim.process(sender(), name="sender")
    proc = sim.process(receiver(), name="receiver")
    sim.run_until_done(proc, limit=100 * MS)
    assert cluster.layer(ClusterRecovery).reconnects == 1
    assert outcome == [1]
    [(at, data)] = got
    assert at > 30 * MS and data == b"\x02" * 32 * 1024


def test_a_rendezvous_push_to_a_receiver_that_crashes_raises():
    """Rank 1 has accepted rank 0's 32 KiB rendezvous and crashes while the
    payload is on its way: rank 1's receive raises ``PeerCrashed`` with the
    crash, and rank 0's send once the crash is detected, instead of the push
    failing outside any caller."""
    cluster = make_cluster("1L-1G", nodes=2)
    cluster.layer(ClusterRecovery)
    cluster.enable_edge_control(0, 1)
    world = MpWorld(cluster)
    FaultSchedule([Crash(at_ns=MS // 5, node=1)]).apply(cluster)
    sim = cluster.sim
    outcome = []

    def sender():
        try:
            yield from world.endpoints[0].send(1, b"\x01" * 32 * 1024)
        except PeerCrashed as exc:
            outcome.append(exc.peer_node)

    def receiver():
        try:
            yield from world.endpoints[1].recv(source=0)
        except PeerCrashed as exc:
            outcome.append(exc.peer_node)

    sim.process(receiver(), name="receiver")
    proc = sim.process(sender(), name="sender")
    sim.run_until_done(proc, limit=100 * MS)
    assert outcome == [1, 1]

"""Message passing across a node crash: what a failed ring and the
crashed rank's memory hold afterwards."""

import pytest

from repro.bench import make_cluster
from repro.control import Crash, FaultSchedule, Restart
from repro.core import PeerCrashed
from repro.mp.endpoint import MpWorld

MS = 1_000_000


def test_a_writer_that_takes_its_turn_on_a_failed_ring_raises():
    """Rank 2 crashes for good while rank 0 streams to it: once the window
    is spent, rank 0 raises instead of waiting for credit that cannot
    come, also when its writer stalls only after the crash hook ran."""
    cluster = make_cluster("1L-1G", nodes=3)
    cluster.enable_crash_recovery()
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
    cluster.enable_crash_recovery()
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
    assert cluster.recovery.reconnects == 1
    assert got == [b"\x02" * size]

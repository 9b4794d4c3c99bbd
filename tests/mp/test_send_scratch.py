"""The mp send path reuses fixed scratch instead of allocating per message."""

from repro.bench import make_cluster
from repro.mp import MpWorld
from repro.mp.endpoint import CREDIT_EVERY, RING_SLOTS
from repro.sim import US


def _regions_after_ping_pong(rounds):
    """Region count per node after ``rounds`` eager messages each way."""
    w = MpWorld(make_cluster("1L-1G", nodes=2))

    def program(ep):
        other = 1 - ep.rank
        for i in range(rounds):
            payload = bytes([i % 256]) * (1 + (37 * i) % 3000)
            if ep.rank == 0:
                yield from ep.send(other, payload, tag=i)
                echo = yield from ep.recv(source=other, tag=i)
                assert echo.data == payload
            else:
                msg = yield from ep.recv(source=other, tag=i)
                yield from ep.send(other, msg.data, tag=i)

    w.run(program)
    for ep in w.endpoints:
        # The ring wrapped and credits flowed, so every scratch was reused.
        assert ep.stats_sent == rounds > RING_SLOTS >= CREDIT_EVERY
    return [ep.stack.node.memory.region_count for ep in w.endpoints]


def test_region_count_does_not_grow_with_eager_messages():
    assert _regions_after_ping_pong(50) == _regions_after_ping_pong(500)


def _sender_regions_after_rendezvous(count):
    w = MpWorld(make_cluster("1L-1G", nodes=2))
    payloads = [bytes([k + 1]) * (60_000 + 1000 * (k % 3)) for k in range(count)]

    def program(ep):
        if ep.rank == 0:
            for k, payload in enumerate(payloads):
                yield from ep.send(1, payload, tag=k)
        else:
            for k, payload in enumerate(payloads):
                msg = yield from ep.recv(source=0, tag=k)
                assert msg.data == payload

    w.run(program)
    return w.endpoints[0].stack.node.memory.region_count


def test_rendezvous_sender_scratch_grows_only_with_message_size():
    assert _sender_regions_after_rendezvous(4) == _sender_regions_after_rendezvous(24)


def test_overlapping_rendezvous_pushes_do_not_share_scratch():
    """Two rendezvous sends, to two peers, whose bulk writes overlap.

    Both clear-to-sends reach rank 0 within one listener wake-up, so the
    second push fills its scratch while the first, already filled, still
    waits for the protocol CPU to be copied out.  Each must deliver its
    own bytes.
    """
    w = MpWorld(make_cluster("1L-1G", nodes=3))
    size = 100_000
    payloads = {1: b"\xaa" * size, 2: b"\x55" * size}
    sender = w.endpoints[0]
    events = []
    memory = sender.stack.node.memory

    def watched_write(addr, data, write=memory.write):
        if len(data) == size:
            events.append("fill")
        write(addr, data)

    memory.write = watched_write
    for ps in sender._peers.values():
        conn = ps.conn.conn

        def watched_submit(local, remote, length, flags=0, submit=conn.submit_write):
            if length == size:
                events.append("submit")
            return submit(local, remote, length, flags)

        conn.submit_write = watched_submit

    def send_one(ep, dest):
        yield from ep.send(dest, payloads[dest], tag=dest)

    def program(ep):
        # One rendezvous first, so a free scratch exists to contend for.
        if ep.rank == 0:
            yield from ep.send(1, bytes(size), tag=9)
            procs = [ep.sim.process(send_one(ep, dest)) for dest in (1, 2)]
            for p in procs:
                yield p
        else:
            if ep.rank == 1:
                yield from ep.recv(source=0, tag=9)
            yield 5000 * US - ep.sim.now  # both answer at the same instant
            msg = yield from ep.recv(source=0, tag=ep.rank)
            return msg.data

    results = w.run(program)
    assert results[1] == payloads[1] and results[2] == payloads[2]
    # The overlap happened: the second scratch was filled before the first
    # had been copied out by submit_write.
    assert events[2:] == ["fill", "fill", "submit", "submit"]

"""Edge cases for the message-passing layer."""

import pytest

from repro.bench import make_cluster
from repro.ethernet import LinkParams
from repro.mp import ANY_SOURCE, MpWorld
from repro.mp.endpoint import SLOT_BYTES


def world(nodes=2, **kw):
    return MpWorld(make_cluster("1L-1G", nodes=nodes, **kw))


def test_concurrent_rendezvous_both_directions():
    w = world()
    size = 300_000

    def program(ep):
        peer = 1 - ep.rank
        payload = bytes([ep.rank + 1]) * size
        # Both ranks send a large message simultaneously, then receive.
        send_done = []

        def do_send():
            yield from ep.send(peer, payload, tag=1)
            send_done.append(True)

        sproc = ep.sim.process(do_send())
        msg = yield from ep.recv(source=peer, tag=1)
        yield sproc
        return msg.data[0]

    assert w.run(program) == [2, 1]


def test_interleaved_rendezvous_and_eager():
    """Eager messages can be consumed out of order around a rendezvous.

    (The rendezvous itself must be received in matching order — a blocking
    large send with no matching receive is a deadlock in MPI semantics
    too, which an earlier version of this test usefully demonstrated.)
    """
    w = world()

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, b"small-1", tag=1)
            yield from ep.send(1, b"B" * 100_000, tag=2)  # rendezvous
            yield from ep.send(1, b"small-3", tag=3)
        else:
            m2 = yield from ep.recv(source=0, tag=2)
            m3 = yield from ep.recv(source=0, tag=3)
            m1 = yield from ep.recv(source=0, tag=1)  # from unexpected queue
            return (m1.data, len(m2.data), m3.data)

    assert w.run(program)[1] == (b"small-1", 100_000, b"small-3")


def test_multiple_rendezvous_same_pair():
    w = world()
    n, size = 4, 80_000

    def program(ep):
        if ep.rank == 0:
            for i in range(n):
                yield from ep.send(1, bytes([i]) * size, tag=i)
        else:
            out = []
            for i in range(n):
                msg = yield from ep.recv(source=0, tag=i)
                out.append(msg.data[0])
            return out

    assert w.run(program)[1] == list(range(n))


def test_wildcard_recv_matches_rts():
    """A wildcard recv must match a rendezvous announcement too."""
    w = world()
    size = 120_000

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, b"Z" * size, tag=42)
        else:
            msg = yield from ep.recv(source=ANY_SOURCE)
            return (msg.source, msg.tag, len(msg.data))

    assert w.run(program)[1] == (0, 42, size)


def test_mp_rejects_non_bytes():
    w = world()

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, [1, 2, 3])  # type: ignore[arg-type]
        yield 0

    with pytest.raises(Exception):
        w.run(program)


def test_eager_exact_slot_fit():
    """Payload exactly filling a slot (minus envelope) stays eager."""
    w = world()
    from repro.mp.endpoint import ENVELOPE_BYTES

    size = SLOT_BYTES - ENVELOPE_BYTES

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, b"e" * size, tag=0)
        else:
            msg = yield from ep.recv(source=0, tag=0)
            return len(msg.data)

    assert w.run(program)[1] == size


def test_rendezvous_on_lossy_link():
    w = world(link=LinkParams(speed_bps=1e9, bit_error_rate=5e-7))
    size = 200_000
    payload = bytes(i % 256 for i in range(size))

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, payload, tag=1)
        else:
            msg = yield from ep.recv(source=0, tag=1)
            return msg.data == payload

    assert w.run(program, limit_ms=120_000)[1] is True


def test_send_loop_overlapping_a_rendezvous_accept_to_the_same_peer():
    """Two processes of one rank write the same peer's ring at once.

    Rank 0 streams eager messages to rank 1 from one process while its main
    process accepts a rendezvous *from* rank 1, which sends the
    clear-to-send through the same ring.  The ring serialises its writers;
    without that both computed the same slot, the second fill overwrote
    the shared scratch, and rank 1's listener died with "matches no ring
    slot or posted buffer".
    """
    w = world()
    eager = [bytes([k + 1]) * 16_000 for k in range(40)]
    big = b"\x7f" * 100_000

    def program(ep):
        if ep.rank == 0:
            def stream():
                for k, payload in enumerate(eager):
                    yield from ep.send(1, payload, tag=k)

            tx = ep.sim.process(stream())
            msg = yield from ep.recv(source=1, tag=99)
            yield tx
            return [msg.data]
        yield from ep.send(0, big, tag=99)
        got = []
        for k in range(len(eager)):
            msg = yield from ep.recv(source=0, tag=k)
            got.append(msg.data)
        return got

    assert w.run(program) == [[big], eager]

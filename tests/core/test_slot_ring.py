"""``repro.core.SlotRing``: the credit-returned message ring both message
layers are built on, driven directly on a two-node cluster."""

import pytest

from repro.bench.cluster import make_cluster
from repro.core import PeerCrashed, SlotRing
from repro.dsm import runtime as dsm
from repro.dsm.messages import MSG_SLOT_BYTES
from repro.ethernet import OpFlags
from repro.mp import endpoint as mp

MS = 1_000_000

# (slots, slot_bytes, window, credit_every), as the two clients build it.
GEOMETRIES = {
    "mp": (mp.RING_SLOTS, mp.SLOT_BYTES, mp.SEND_WINDOW, mp.CREDIT_EVERY),
    "dsm": (dsm.INBOX_SLOTS, MSG_SLOT_BYTES, dsm.SEND_WINDOW, dsm.CREDIT_EVERY),
}


@pytest.fixture(params=list(GEOMETRIES))
def geometry(request):
    return GEOMETRIES[request.param]


def message(k: int) -> bytes:
    return k.to_bytes(8, "big") * 16  # 128 bytes: fits either slot size


class Pair:
    """Ring ends ``a`` (node 0) and ``b`` (node 1), linked, with the
    listener a client writes: it asks the ring its three questions."""

    def __init__(self, geometry):
        self.cluster = make_cluster("1L-1G", nodes=2)
        self.sim = self.cluster.sim
        here, there = self.cluster.connect(0, 1)
        self.a = SlotRing(here, *geometry)
        self.b = SlotRing(there, *geometry)
        SlotRing.link(self.a, self.b)
        self.received = {0: [], 1: []}  # node -> messages consumed, in order
        self.credits = {0: 0, 1: 0}  # node -> credits absorbed
        self.strays = {0: [], 1: []}  # node -> addresses that were neither
        # Remote addresses of a's slot writes, in submission order.
        self.slot_writes = []
        conn = here.conn

        def watched(local, remote, length, flags=0, submit=conn.submit_write):
            if flags & OpFlags.FENCE_BACKWARD:
                self.slot_writes.append(remote)
            return submit(local, remote, length, flags)

        conn.submit_write = watched

    def listen(self):
        for ring in (self.a, self.b):
            self.sim.process(self._listener(ring))

    def _listener(self, ring):
        node = ring.conn.node
        while True:
            note = yield from ring.conn.wait_notification(cpu=node.protocol_cpu)
            if ring.absorb_credit(note.address):
                self.credits[node.node_id] += 1
            elif ring.consume(note.address) is None:
                self.strays[node.node_id].append(note.address)
            else:
                self.received[node.node_id].append(
                    node.memory.read(note.address, note.length)
                )
                if ring.credit_due():
                    yield from ring.return_credit()

    def run(self, ms=200):
        self.sim.run_until_time(self.sim.now + ms * MS)

    def expected_slot_addresses(self, count):
        base = self.slot_writes[0]
        return [
            base + (n % self.a.slots) * self.a.slot_bytes for n in range(count)
        ]


def test_more_messages_than_slots_arrive_in_order_within_the_window(geometry):
    slots, _, window, credit_every = geometry
    pair = Pair(geometry)
    pair.listen()
    count = 4 * slots
    ahead = []

    def writer():
        for k in range(count):
            yield from pair.a.send(message(k))
            ahead.append(k + 1 - len(pair.received[1]))

    pair.sim.process(writer())
    pair.run()
    assert pair.received[1] == [message(k) for k in range(count)]
    assert pair.slot_writes == pair.expected_slot_addresses(count)
    assert max(ahead) <= window
    assert pair.credits[0] == count // credit_every
    assert pair.strays == {0: [], 1: []}


@pytest.mark.parametrize(
    "name, count, credits", [("mp", 200, 50), ("dsm", 256, 16)]
)
def test_one_credit_write_per_credit_every_messages(name, count, credits):
    """The figures the two clients produced before they shared the ring:
    200 eager messages returned 50 credits, and each direction of
    ``test_mailbox_credit_recycling`` (256 messages) returned 16."""
    pair = Pair(GEOMETRIES[name])
    pair.listen()

    def writer():
        for k in range(count):
            yield from pair.a.send(message(k))

    pair.sim.process(writer())
    pair.run()
    assert len(pair.received[1]) == count
    assert pair.credits == {0: credits, 1: 0}


def test_writer_stalls_with_the_window_full_and_resumes_on_credit(geometry):
    _, _, window, credit_every = geometry
    pair = Pair(geometry)
    sent = []

    def writer():
        for k in range(window + 1):
            yield from pair.a.send(message(k))
            sent.append(k)

    pair.sim.process(writer())
    pair.run()  # nobody listens: nothing is consumed, no credit comes
    assert len(sent) == len(pair.slot_writes) == window
    pair.listen()
    pair.run()
    assert len(sent) == window + 1
    assert pair.credits[0] == window // credit_every
    assert pair.received[1] == [message(k) for k in range(window + 1)]


def test_failed_credit_wait_raises_and_passes_the_turn_on(geometry):
    _, _, window, _ = geometry
    pair = Pair(geometry)
    outcome = {}

    def writer(name, first, count):
        try:
            for k in range(first, first + count):
                yield from pair.a.send(message(k))
            outcome[name] = "sent"
        except PeerCrashed as exc:
            outcome[name] = exc

    pair.sim.process(writer("stalled", 0, window + 1))
    pair.run()
    pair.sim.process(writer("next", window, 1))  # parks behind the turn
    pair.run()
    assert outcome == {} and len(pair.slot_writes) == window
    crash = PeerCrashed(-1, 1)
    pair.a.fail(crash)
    pair.run()
    # The stalled writer raised and passed the turn on; the next one took
    # it and raised too, because a failed ring stays failed.
    assert outcome == {"stalled": crash, "next": crash}
    pair.listen()
    pair.run()
    # The failed messages never claimed a slot: no gap, nothing twice.
    assert pair.received[1] == [message(k) for k in range(window)]
    assert pair.slot_writes == pair.expected_slot_addresses(window)


def test_three_concurrent_writers_are_served_fifo_each_slot_once(geometry):
    slots = geometry[0]
    pair = Pair(geometry)
    pair.listen()
    each = slots  # 3 * slots messages: the ring wraps while they contend

    def writer(w):
        for k in range(each):
            yield from pair.a.send(message(1000 * w + k))

    for w in range(3):
        pair.sim.process(writer(w))
    pair.run()
    # FIFO hand-off of the turn: a writer that has just sent queues behind
    # the two that were waiting, so they alternate strictly.
    assert pair.received[1] == [
        message(1000 * w + k) for k in range(each) for w in range(3)
    ]
    assert pair.slot_writes == pair.expected_slot_addresses(3 * each)


def test_a_write_outside_the_ring_is_not_the_rings_and_consumes_nothing(geometry):
    pair = Pair(geometry)
    pair.listen()
    here = pair.a.conn
    src = here.node.memory.alloc(64)
    elsewhere = pair.b.conn.node.memory.alloc(64)

    def writer():
        yield from here.rdma_write(src, elsewhere, 64, flags=OpFlags.NOTIFY)
        yield from pair.a.send(message(7))

    pair.sim.process(writer())
    pair.run()
    assert pair.strays == {0: [], 1: [elsewhere]}
    assert pair.received[1] == [message(7)]  # still slot 0, in order
    assert pair.slot_writes == pair.expected_slot_addresses(1)
    # Out of order is not the ring's either: slot 0 again, when 1 is next.
    assert pair.b.consume(pair.slot_writes[0]) is None
    assert pair.b.consume(pair.slot_writes[0] + pair.b.slot_bytes) == 1


@pytest.mark.parametrize(
    "geometry",
    [(16, 128, 16, 4), (16, 128, 4, 8), (16, 128, 4, 0), (16, 0, 4, 2)],
)
def test_geometry_that_cannot_work_is_refused(geometry):
    here, _ = make_cluster("1L-1G", nodes=2).connect(0, 1)
    with pytest.raises(ValueError, match="credit_every"):
        SlotRing(here, *geometry)

"""Unit tests for CPU accounting, kernel dispatch, and node assembly."""

import pytest

from repro.ethernet import Frame, LinkParams, MultiEdgeHeader, connect_back_to_back
from repro.host import Cpu, CpuAccounting, Node
from repro.host.params import MEMCPY_BASE_NS, MEMCPY_NS_PER_KB, memcpy_ns
from repro.sim import RngRegistry, Simulator


def test_cpu_run_charges_tag():
    sim = Simulator()
    acc = CpuAccounting()
    cpu = Cpu(sim, 0, acc)

    def body():
        yield cpu.hold(1000, "app")
        yield cpu.hold(500, "protocol.recv")

    proc = sim.process(body())
    sim.run_until_done(proc)
    assert acc.by_tag["app"] == 1000
    assert acc.by_tag["protocol.recv"] == 500
    assert acc.total("protocol") == 500
    assert acc.total() == 1500


def test_cpu_run_zero_duration_is_noop():
    sim = Simulator()
    acc = CpuAccounting()
    cpu = Cpu(sim, 0, acc)

    def body():
        yield cpu.hold(0, "app")
        yield 10

    sim.run_until_done(sim.process(body()))
    assert acc.total() == 0
    # Nothing scheduled for it: the start hop and the 10 ns sleep only.
    assert (sim.now, sim.fastlane_hits, sim.heap_pushes) == (10, 1, 1)
    assert cpu.resource.busy_time == 0


def test_cpu_hold_rejects_a_negative_duration():
    cpu = Cpu(Simulator(), 0, CpuAccounting())
    with pytest.raises(ValueError, match=">= 0"):
        cpu.hold(-1, "app")
    assert cpu.resource.in_use == 0 and cpu.accounting.total() == 0


def test_cpu_hold_rejects_a_duration_that_is_not_an_int():
    cpu = Cpu(Simulator(), 0, CpuAccounting())
    with pytest.raises(TypeError, match="float"):
        cpu.hold(1.5, "app")
    assert cpu.resource.in_use == 0 and cpu.accounting.total() == 0


def test_cpu_bill_charges_each_tag_and_the_same_busy_time():
    sim = Simulator()
    acc = CpuAccounting()
    cpu = Cpu(sim, 0, acc)
    cpu.bill([("protocol.send", 300), ("interrupt", 200), ("interrupt", 50)])
    assert dict(acc.by_tag) == {"protocol.send": 300, "interrupt": 250}
    assert cpu.resource.busy_time == 550 and cpu.resource.in_use == 0


def test_cpu_serializes_two_processes():
    sim = Simulator()
    acc = CpuAccounting()
    cpu = Cpu(sim, 0, acc)
    ends = []

    def body(tag):
        yield cpu.hold(100, tag)
        ends.append(sim.now)

    sim.process(body("a"))
    sim.process(body("b"))
    sim.run()
    assert ends == [100, 200]


def test_accounting_epoch():
    acc = CpuAccounting()
    acc.charge("app", 100)
    acc.mark_epoch()
    acc.charge("app", 50)
    acc.charge("dsm", 25)
    assert acc.since_epoch() == {"app": 50, "dsm": 25}


def test_node_has_cpus_nics_memory():
    sim = Simulator()
    node = Node(sim, node_id=3)
    assert len(node.cpus) == 2
    assert node.app_cpu is node.cpus[0]
    assert node.protocol_cpu is node.cpus[1]
    assert len(node.nics) == 1
    assert node.memory.alloc(10) > 0


def test_memcpy_cost_model():
    assert memcpy_ns(0) == 0
    assert memcpy_ns(1024) == MEMCPY_BASE_NS + MEMCPY_NS_PER_KB
    assert memcpy_ns(4096) > memcpy_ns(1024)


class RecordingClient:
    """Driver client that records frames and charges a fixed CPU cost."""

    def __init__(self, cost=100):
        self.frames = []
        self.completions = []
        self.cost = cost

    def handle_frame(self, frame, cpu):
        yield cpu.hold(self.cost, "protocol.recv")
        self.frames.append(frame)

    def handle_tx_completions(self, nic, count, cpu):
        yield cpu.hold(self.cost, "protocol.send")
        self.completions.append(count)


def make_wired_pair(sim, rng=None):
    rng = rng or RngRegistry(0)
    a = Node(sim, 0, rng=rng, name="a")
    b = Node(sim, 1, rng=rng, name="b")
    connect_back_to_back(
        sim, a.nics[0], b.nics[0], LinkParams(propagation_ns=100), rng
    )
    return a, b


def frame_to(b_node, n=100, seq=0):
    return Frame(
        src_mac=0,
        dst_mac=b_node.nics[0].mac,
        header=MultiEdgeHeader(payload_length=n, seq=seq),
        payload=bytes(n),
    )


def test_kernel_delivers_frames_to_client():
    sim = Simulator()
    a, b = make_wired_pair(sim)
    client = RecordingClient()
    b.kernel.attach_client(client)
    for seq in range(10):
        a.nics[0].transmit(frame_to(b, seq=seq))
    sim.run()
    assert len(client.frames) == 10
    assert [f.header.seq for f in client.frames] == list(range(10))
    # Interrupt and protocol time were charged.
    assert b.accounting.total("interrupt") > 0
    assert b.accounting.total("protocol.recv") == 1000


def test_kernel_coalesces_interrupts_under_load():
    sim = Simulator()
    a, b = make_wired_pair(sim)
    client = RecordingClient(cost=2000)
    b.kernel.attach_client(client)
    n = 64
    for seq in range(n):
        a.nics[0].transmit(frame_to(b, seq=seq))
    sim.run()
    assert len(client.frames) == n
    # Far fewer interrupts than frames: polling + masking coalesces.
    assert b.kernel.irqs_handled < n / 2


def test_kernel_tx_completions_reach_sender_client():
    sim = Simulator()
    a, b = make_wired_pair(sim)
    client_a = RecordingClient()
    a.kernel.attach_client(client_a)
    b.kernel.attach_client(RecordingClient())
    for seq in range(5):
        a.nics[0].transmit(frame_to(b, seq=seq))
    sim.run()
    assert sum(client_a.completions) == 5


def test_node_protocol_cpu_time_and_utilization():
    sim = Simulator()
    a, b = make_wired_pair(sim)
    b.kernel.attach_client(RecordingClient(cost=1000))
    a.kernel.attach_client(RecordingClient(cost=0))
    for seq in range(20):
        a.nics[0].transmit(frame_to(b, seq=seq))
    sim.run()
    elapsed = sim.now
    assert b.protocol_cpu_time() >= 20_000
    assert 0.0 < b.protocol_utilization(elapsed) <= 2.0
    assert 0.0 < b.cpu_utilization(elapsed) <= 2.0


def test_interrupts_reenabled_after_drain():
    sim = Simulator()
    a, b = make_wired_pair(sim)
    b.kernel.attach_client(RecordingClient())
    a.kernel.attach_client(RecordingClient())
    a.nics[0].transmit(frame_to(b))
    sim.run()
    assert b.nics[0].interrupts_enabled
    # A second frame still gets processed (no lost-wakeup race).
    a.nics[0].transmit(frame_to(b, seq=1))
    sim.run()
    assert b.nics[0].interrupts_enabled


# -- interrupt handler as callbacks -------------------------------------------
#
# The numbers below were recorded at the parent commit (b9af88d), where every
# interrupt spawned a Process that held the protocol CPU for INTERRUPT_NS.


def test_irq_while_kthread_holds_cpu_is_charged_at_the_parents_instants():
    sim = Simulator()
    a, b = make_wired_pair(sim)
    b.kernel.attach_client(RecordingClient(cost=300))
    a.kernel.attach_client(RecordingClient(cost=0))
    charges = []
    charge = b.accounting.charge

    def recording(tag, duration):
        charges.append((sim.now, tag, duration))
        charge(tag, duration)

    b.accounting.charge = recording
    # A frame lands at 1 281 ns and its coalescing timeout raises the
    # interrupt at 6 281 ns — in the middle of the wake-up cost (3 000 to
    # 8 500 ns) of a kthread that was kicked awake, so the NIC is unmasked
    # and the protocol CPU is taken.  The handler queues for the CPU, gets it
    # when the kthread lets go, and opens the work gate when it is done: a
    # second wake-up follows.  Uncontended it would have been charged at 8 781.
    a.nics[0].transmit(frame_to(b, seq=0))
    sim.schedule(3_000, b.kernel._work.open)
    sim.schedule(40_000, a.nics[0].transmit, frame_to(b, seq=1))
    sim.run()
    assert charges == [
        (8_500, "protocol.wakeup", 5_500),
        (11_000, "interrupt", 2_500),
        (11_300, "protocol.recv", 300),
        (16_800, "protocol.wakeup", 5_500),
        (50_281, "interrupt", 2_500),
        (55_781, "protocol.wakeup", 5_500),
        (56_081, "protocol.recv", 300),
    ]
    assert sim.now == 56_081
    assert (b.kernel.irqs_handled, b.kernel.kthread_wakeups) == (2, 3)
    assert b.protocol_cpu.resource.busy_time == 22_100
    assert b.protocol_cpu.resource.in_use == 0


def test_pingpong_interrupt_accounting_equals_the_parents():
    from repro.bench.cluster import make_cluster
    from repro.bench.micro import run_micro

    cluster = make_cluster("1L-10G", nodes=2, seed=0, synthetic_payloads=True)
    result = run_micro("ping-pong", cluster, 64, iterations=2_000, warmup=5)
    cluster.sim.run()
    assert result.elapsed_ns == 110_908_117
    assert cluster.sim.now == 111_608_739
    for stack in cluster.stacks:
        node = stack.node
        assert node.accounting.by_tag["interrupt"] == 10_027_500
        assert node.accounting.by_tag["protocol.wakeup"] == 22_060_500
        assert node.kernel.irqs_handled == 4_011
        assert node.kernel.kthread_wakeups == 4_011
    # Same sequence numbers drawn, same fast-lane hops: only what sits dead
    # in the heap changed.
    assert cluster.sim._seq == 72_192
    assert cluster.sim.fastlane_hits == 20_059

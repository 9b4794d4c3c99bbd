"""Additional host-layer coverage: NIC parameter factories, kernel batching."""

import pytest

from repro.ethernet import Frame, LinkParams, MultiEdgeHeader, connect_back_to_back
from repro.host import Node, myri10g_params, tigon3_params
from repro.host.params import memcpy_ns
from repro.sim import RngRegistry, Simulator


class TestNicFactories:
    def test_tigon3_is_1g(self):
        p = tigon3_params()
        assert p.speed_bps == 1e9
        assert not p.unmaskable_tx_irq

    def test_myri10g_is_10g_with_unmaskable_tx(self):
        p = myri10g_params()
        assert p.speed_bps == 10e9
        assert p.unmaskable_tx_irq

    def test_factory_overrides(self):
        p = tigon3_params(tx_ring_frames=64, coalesce_frames=2)
        assert p.tx_ring_frames == 64
        assert p.coalesce_frames == 2
        # Defaults untouched.
        assert tigon3_params().tx_ring_frames == 512

    def test_memcpy_monotonic(self):
        costs = [memcpy_ns(n) for n in (1, 64, 1024, 4096, 65536)]
        assert costs == sorted(costs)
        assert costs[0] > 0


class SlowClient:
    """Client whose per-frame cost exceeds the inter-arrival gap."""

    def __init__(self, cost):
        self.cost = cost
        self.frames = []
        self.batches = []

    def handle_frame(self, frame, cpu):
        yield cpu.hold(self.cost, "protocol.recv")
        self.frames.append(frame)

    def handle_tx_completions(self, nic, count, cpu):
        self.batches.append(count)
        yield cpu.hold(100, "protocol.send")


class TestKernelBatching:
    def _pair(self, sim):
        rng = RngRegistry(0)
        a = Node(sim, 0, rng=rng, name="a")
        b = Node(sim, 1, rng=rng, name="b")
        connect_back_to_back(
            sim, a.nics[0], b.nics[0], LinkParams(propagation_ns=100), rng
        )
        return a, b

    def test_poll_batch_caps_harvest(self):
        from repro.host.kernel import POLL_BATCH

        sim = Simulator()
        a, b = self._pair(sim)
        client = SlowClient(cost=100)
        b.kernel.attach_client(client)
        a.kernel.attach_client(SlowClient(cost=0))
        n = POLL_BATCH + 20
        for seq in range(n):
            a.nics[0].transmit(
                Frame(
                    src_mac=a.nics[0].mac,
                    dst_mac=b.nics[0].mac,
                    header=MultiEdgeHeader(seq=seq, payload_length=32),
                    payload=bytes(32),
                )
            )
        sim.run()
        assert len(client.frames) == n

    def test_kthread_single_wakeup_for_burst(self):
        sim = Simulator()
        a, b = self._pair(sim)
        client = SlowClient(cost=5000)  # slower than arrival rate
        b.kernel.attach_client(client)
        a.kernel.attach_client(SlowClient(cost=0))
        for seq in range(32):
            a.nics[0].transmit(
                Frame(
                    src_mac=a.nics[0].mac,
                    dst_mac=b.nics[0].mac,
                    header=MultiEdgeHeader(seq=seq, payload_length=32),
                    payload=bytes(32),
                )
            )
        sim.run()
        # Once awake, the kthread polls in a loop; bursts need few wakeups.
        assert b.kernel.kthread_wakeups <= 3
        assert len(client.frames) == 32

    def test_tx_completion_batches_accumulate(self):
        sim = Simulator()
        a, b = self._pair(sim)
        client_a = SlowClient(cost=0)
        a.kernel.attach_client(client_a)
        b.kernel.attach_client(SlowClient(cost=0))
        for seq in range(24):
            a.nics[0].transmit(
                Frame(
                    src_mac=a.nics[0].mac,
                    dst_mac=b.nics[0].mac,
                    header=MultiEdgeHeader(seq=seq, payload_length=32),
                    payload=bytes(32),
                )
            )
        sim.run()
        assert sum(client_a.batches) == 24

    def test_protocol_cpu_epoch_reset(self):
        sim = Simulator()
        a, b = self._pair(sim)
        client = SlowClient(cost=1000)
        b.kernel.attach_client(client)
        a.kernel.attach_client(SlowClient(cost=0))
        for seq in range(10):
            a.nics[0].transmit(
                Frame(
                    src_mac=a.nics[0].mac,
                    dst_mac=b.nics[0].mac,
                    header=MultiEdgeHeader(seq=seq, payload_length=32),
                    payload=bytes(32),
                )
            )
        sim.run()
        assert b.protocol_cpu_time() > 0
        b.reset_accounting()
        assert b.protocol_cpu_time() == 0
        assert b.protocol_cpu_time(since_epoch=False) > 0

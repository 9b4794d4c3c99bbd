"""Unit tests for the NIC model."""

import pytest

from repro.ethernet import (
    Frame,
    LinkParams,
    MultiEdgeHeader,
    Nic,
    NicParams,
    connect_back_to_back,
)
from repro.sim import RngRegistry, Simulator


def make_pair(sim, params_a=None, params_b=None, link=None, rng=None):
    rng = rng or RngRegistry(0)
    a = Nic(sim, params_a or NicParams(tx_jitter_ns=0), mac=1, rng=rng, name="a")
    b = Nic(sim, params_b or NicParams(tx_jitter_ns=0), mac=2, rng=rng, name="b")
    connect_back_to_back(sim, a, b, link or LinkParams(propagation_ns=100), rng)
    return a, b


def data_frame(n=1000, seq=0):
    return Frame(
        src_mac=1,
        dst_mac=2,
        header=MultiEdgeHeader(payload_length=n, seq=seq),
        payload=bytes(n),
    )


def test_transmit_delivers_to_peer():
    sim = Simulator()
    a, b = make_pair(sim)
    assert a.transmit(data_frame())
    sim.run()
    frames, completions = b.poll()
    assert len(frames) == 1
    assert a.counters.tx_frames == 1
    assert b.counters.rx_frames == 1


def test_tx_completion_counted_on_sender():
    sim = Simulator()
    a, b = make_pair(sim)
    a.transmit(data_frame())
    sim.run()
    _, completions = a.poll()
    assert completions == 1


def test_tx_ring_full_rejects():
    sim = Simulator()
    a, _ = make_pair(sim, params_a=NicParams(tx_ring_frames=2, tx_jitter_ns=0))
    assert a.transmit(data_frame())
    assert a.transmit(data_frame())
    assert not a.transmit(data_frame())


def test_tx_serialization_paces_frames():
    sim = Simulator()
    a, b = make_pair(sim)
    # Two full-size frames at 1G: ~12.3 us each on the wire.
    for seq in range(2):
        a.transmit(data_frame(n=1464, seq=seq))
    sim.run()
    # Total elapsed must be at least two serialisation times.
    assert sim.now >= 2 * 12304


def test_rx_ring_overflow_drops():
    sim = Simulator()
    a, b = make_pair(sim, params_b=NicParams(rx_ring_frames=4, tx_jitter_ns=0))
    b.disable_interrupts()
    for seq in range(10):
        a.transmit(data_frame(n=50, seq=seq))
    sim.run()
    assert b.counters.rx_dropped_ring_full == 6
    frames, _ = b.poll()
    assert len(frames) == 4


def test_corrupted_frame_dropped_at_crc():
    sim = Simulator()
    a, b = make_pair(sim)
    f = data_frame()
    # Corruption happens on the wire, after the sender's NIC: deliver a
    # corrupted frame straight to the receiving NIC.
    f.corrupted = True
    b.on_frame(f)
    sim.run()
    frames, _ = b.poll()
    assert frames == []
    assert b.counters.rx_dropped_crc == 1


def test_retransmit_copy_sheds_stale_corruption():
    # A retransmission is a fresh physical frame: senders clone via
    # Frame.wire_copy(), so corruption that hit a previous copy on the
    # wire never rides along (transmit itself no longer launders flags —
    # the copy is independent by construction).
    sim = Simulator()
    a, b = make_pair(sim)
    f = data_frame()
    f.corrupted = True  # a previous copy was corrupted on the wire
    a.transmit(f.wire_copy())
    sim.run()
    frames, _ = b.poll()
    assert len(frames) == 1
    assert b.counters.rx_dropped_crc == 0


def test_transmit_stamps_per_sim_uid():
    sim = Simulator()
    a, b = make_pair(sim)
    f1, f2 = data_frame(), data_frame(seq=1)
    a.transmit(f1)
    a.transmit(f2)
    assert (f1.uid, f2.uid) == (1, 2)


def test_interrupt_fires_after_coalesce_threshold():
    sim = Simulator()
    params = NicParams(coalesce_frames=4, coalesce_timeout_ns=10**9, tx_jitter_ns=0)
    a, b = make_pair(sim, params_b=params)
    irqs = []
    b.on_irq = lambda nic: irqs.append(sim.now)
    for seq in range(4):
        a.transmit(data_frame(n=50, seq=seq))
    sim.run()
    assert len(irqs) == 1
    assert b.counters.irqs_raised == 1


def test_interrupt_fires_on_coalesce_timeout_for_single_frame():
    sim = Simulator()
    params = NicParams(coalesce_frames=64, coalesce_timeout_ns=5000, tx_jitter_ns=0)
    a, b = make_pair(sim, params_b=params)
    irqs = []
    b.on_irq = lambda nic: irqs.append(sim.now)
    a.transmit(data_frame(n=50))
    sim.run()
    assert len(irqs) == 1


def test_no_interrupts_when_disabled():
    sim = Simulator()
    a, b = make_pair(sim)
    irqs = []
    b.on_irq = lambda nic: irqs.append(sim.now)
    b.disable_interrupts()
    for seq in range(20):
        a.transmit(data_frame(n=50, seq=seq))
    sim.run()
    assert irqs == []
    frames, _ = b.poll()
    assert len(frames) == 20


def test_enable_interrupts_fires_for_pending_backlog():
    sim = Simulator()
    a, b = make_pair(sim)
    irqs = []
    b.on_irq = lambda nic: irqs.append(sim.now)
    b.disable_interrupts()
    for seq in range(10):
        a.transmit(data_frame(n=50, seq=seq))
    sim.run()
    b.enable_interrupts()
    sim.run()
    assert len(irqs) == 1


def test_unmaskable_tx_irq_fires_even_when_disabled():
    sim = Simulator()
    params = NicParams(
        unmaskable_tx_irq=True, tx_completion_batch=2, tx_jitter_ns=0
    )
    a, b = make_pair(sim, params_a=params)
    irqs = []
    a.on_irq = lambda nic: irqs.append(sim.now)
    a.disable_interrupts()
    for seq in range(4):
        a.transmit(data_frame(n=50, seq=seq))
    sim.run()
    assert len(irqs) == 2  # batches of 2 completions
    assert a.counters.tx_irqs_raised == 2


def test_maskable_tx_irq_respects_disable():
    sim = Simulator()
    params = NicParams(
        unmaskable_tx_irq=False, tx_completion_batch=2, tx_jitter_ns=0
    )
    a, b = make_pair(sim, params_a=params)
    irqs = []
    a.on_irq = lambda nic: irqs.append(sim.now)
    a.disable_interrupts()
    for seq in range(4):
        a.transmit(data_frame(n=50, seq=seq))
    sim.run()
    assert irqs == []


def test_poll_max_frames_limits_harvest():
    sim = Simulator()
    a, b = make_pair(sim)
    b.disable_interrupts()
    for seq in range(6):
        a.transmit(data_frame(n=50, seq=seq))
    sim.run()
    frames, _ = b.poll(max_frames=4)
    assert len(frames) == 4
    frames, _ = b.poll()
    assert len(frames) == 2


def test_tx_jitter_varies_latency_but_keeps_order():
    sim = Simulator()
    rng = RngRegistry(3)
    a = Nic(sim, NicParams(tx_jitter_ns=2000), mac=1, rng=rng, name="a")
    b = Nic(sim, NicParams(), mac=2, rng=rng, name="b")
    connect_back_to_back(sim, a, b, LinkParams(propagation_ns=10), rng)
    b.disable_interrupts()
    for seq in range(20):
        a.transmit(data_frame(n=50, seq=seq))
    sim.run()
    frames, _ = b.poll()
    assert [f.header.seq for f in frames] == list(range(20))


def test_nic_params_validation():
    with pytest.raises(ValueError):
        NicParams(speed_bps=0)
    with pytest.raises(ValueError):
        NicParams(tx_ring_frames=0)
    with pytest.raises(ValueError):
        NicParams(coalesce_frames=0)

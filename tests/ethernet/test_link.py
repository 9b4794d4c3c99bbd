"""Unit tests for the link/cable model."""

import pytest

from repro.ethernet import Cable, Frame, Link, LinkParams, MultiEdgeHeader
from repro.sim import RngRegistry, Simulator


class Sink:
    """A link endpoint that records each frame with its arrival time."""

    mac = 99

    def __init__(self):
        self.frames = []
        self.times = []

    def deliver_fold(self, frame, arrival):
        self.frames.append(frame)
        self.times.append(arrival)


def make_frame(n=100):
    return Frame(
        src_mac=1,
        dst_mac=2,
        header=MultiEdgeHeader(payload_length=n),
        payload=bytes(n),
    )


def test_link_delivers_after_propagation():
    sim = Simulator()
    link = Link(sim, LinkParams(propagation_ns=700))
    sink = Sink()
    link.attach_receiver(sink)
    link.deliver(make_frame())
    sim.run()
    assert sink.times == [700]
    assert link.frames_delivered == 1


def test_link_without_receiver_raises():
    sim = Simulator()
    link = Link(sim, LinkParams())
    with pytest.raises(RuntimeError):
        link.deliver(make_frame())


def test_link_fifo_even_with_same_time_sends():
    sim = Simulator()
    link = Link(sim, LinkParams(propagation_ns=10))
    sink = Sink()
    link.attach_receiver(sink)
    frames = [make_frame() for _ in range(5)]
    for f in frames:
        link.deliver(f)
    sim.run()
    assert [f.uid for f in sink.frames] == [f.uid for f in frames]


def test_link_outage_drops_frames():
    sim = Simulator()
    link = Link(sim, LinkParams(propagation_ns=10))
    sink = Sink()
    link.attach_receiver(sink)
    link.fail_for(1000)
    assert link.failed
    link.deliver(make_frame())
    sim.run(until=1001)
    assert sink.frames == []
    assert link.frames_lost_outage == 1
    assert not link.failed
    link.deliver(make_frame())
    sim.run()
    assert len(sink.frames) == 1


def test_link_ber_zero_never_corrupts():
    sim = Simulator()
    link = Link(sim, LinkParams(bit_error_rate=0.0), RngRegistry(1))
    sink = Sink()
    link.attach_receiver(sink)
    for _ in range(200):
        link.deliver(make_frame())
    sim.run()
    assert all(not f.corrupted for f in sink.frames)
    assert link.frames_corrupted == 0


def test_link_high_ber_corrupts_most():
    sim = Simulator()
    # 1e-4 per bit over ~1100 bits => ~10% corruption odds per frame min,
    # use a large BER so corruption is near-certain.
    link = Link(sim, LinkParams(bit_error_rate=1e-2), RngRegistry(1))
    sink = Sink()
    link.attach_receiver(sink)
    for _ in range(50):
        link.deliver(make_frame())
    sim.run()
    assert link.frames_corrupted == 50
    assert all(f.corrupted for f in sink.frames)


def test_link_moderate_ber_statistics():
    sim = Simulator()
    link = Link(sim, LinkParams(bit_error_rate=1e-6), RngRegistry(7), name="L")
    sink = Sink()
    link.attach_receiver(sink)
    n = 2000
    for _ in range(n):
        link.deliver(make_frame(100))  # ~1500 wire bits
    sim.run()
    # Expected corruption probability per frame ~= 1 - (1-1e-6)^(176*8) ~ 0.14%
    assert 0 < link.frames_corrupted < n * 0.02


def test_link_params_validation():
    with pytest.raises(ValueError):
        LinkParams(speed_bps=0)
    with pytest.raises(ValueError):
        LinkParams(propagation_ns=-1)
    with pytest.raises(ValueError):
        LinkParams(bit_error_rate=1.5)


def test_cable_bidirectional():
    sim = Simulator()
    a, b = Sink(), Sink()
    a.mac, b.mac = 1, 2
    cable = Cable(sim, a, b, LinkParams(propagation_ns=5))
    cable.link_from(a).deliver(make_frame())
    cable.link_from(b).deliver(make_frame())
    sim.run()
    assert len(a.frames) == 1 and len(b.frames) == 1


def test_cable_link_from_unknown_endpoint():
    sim = Simulator()
    a, b, c = Sink(), Sink(), Sink()
    cable = Cable(sim, a, b, LinkParams())
    with pytest.raises(ValueError):
        cable.link_from(c)


def test_cable_fail_for_affects_both_directions():
    sim = Simulator()
    a, b = Sink(), Sink()
    cable = Cable(sim, a, b, LinkParams())
    cable.fail_for(100)
    cable.link_from(a).deliver(make_frame())
    cable.link_from(b).deliver(make_frame())
    sim.run()
    assert a.frames == [] and b.frames == []

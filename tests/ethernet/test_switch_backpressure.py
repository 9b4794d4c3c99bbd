"""SwitchPort backpressure accounting: paused frames, depth, ECN marks.

Drives one output port into overflow with a 3-into-1 fan-in and checks
the port-level counters the congestion subsystem builds on:
``paused_frames`` / ``dropped_queue_full`` (lossless vs lossy),
``peak_queue_depth``, and the rule that only *admitted* frames are ever
CE-marked.
"""

from repro.ethernet import (
    ECN_CE,
    Frame,
    LinkParams,
    MultiEdgeHeader,
    Nic,
    NicParams,
    Switch,
    SwitchParams,
    connect_nic_to_switch,
    mac_address,
)
from repro.sim import RngRegistry, Simulator

SENDERS = 3
RECEIVER = SENDERS  # last port
FRAMES_EACH = 32
PAYLOAD = 1000


def build_fan_in(switch_params: SwitchParams):
    """3 sender NICs and 1 receiver NIC on one switch."""
    sim = Simulator()
    rng = RngRegistry(0)
    switch = Switch(sim, switch_params)
    nics = []
    for i in range(SENDERS + 1):
        nic = Nic(
            sim, NicParams(tx_jitter_ns=0), mac=mac_address(i, 0), rng=rng,
            name=f"nic{i}",
        )
        connect_nic_to_switch(
            sim, nic, switch, i, LinkParams(propagation_ns=100), rng
        )
        nic.disable_interrupts()
        nics.append(nic)
    # Wiring routed every NIC; re-teaching the receiver's port keeps it.
    switch.learn(nics[RECEIVER].mac, RECEIVER)
    assert switch.route(nics[RECEIVER].mac) == (RECEIVER,)
    return sim, switch, nics


def blast(sim, nics, seq_base=0):
    """Every sender transmits FRAMES_EACH frames at the receiver at once."""
    sent = 0
    for s in range(SENDERS):
        for k in range(FRAMES_EACH):
            nics[s].transmit(
                Frame(
                    src_mac=nics[s].mac,
                    dst_mac=nics[RECEIVER].mac,
                    header=MultiEdgeHeader(
                        payload_length=PAYLOAD, seq=seq_base + sent
                    ),
                    payload=bytes(PAYLOAD),
                )
            )
            sent += 1
    sim.run()
    return sent


def test_lossy_overflow_drops_and_records_peak():
    sim, switch, nics = build_fan_in(
        SwitchParams(ports=SENDERS + 1, output_queue_frames=8)
    )
    sent = blast(sim, nics)
    port = switch.port(RECEIVER)
    received = len(nics[RECEIVER].poll()[0])
    assert port.dropped_queue_full > 0
    assert port.paused_frames == 0
    assert received == sent - port.dropped_queue_full
    assert port.tx_frames == received
    # The queue filled to its limit (plus the frame being serialised).
    assert 8 <= port.peak_queue_depth <= 9
    assert switch.dropped_total == port.dropped_queue_full


def test_lossless_overflow_pauses_instead_of_dropping():
    sim, switch, nics = build_fan_in(
        SwitchParams(ports=SENDERS + 1, output_queue_frames=8, lossless=True)
    )
    sent = blast(sim, nics)
    port = switch.port(RECEIVER)
    assert port.dropped_queue_full == 0
    assert port.paused_frames > 0
    # Every frame eventually drains through the paused stage.
    assert len(nics[RECEIVER].poll()[0]) == sent
    assert port.tx_frames == sent
    # The overflow stage is unbounded, so the peak exceeds the queue limit.
    assert port.peak_queue_depth > 8
    assert port.queue_depth == 0  # fully drained


def test_ecn_marks_only_admitted_frames():
    sim, switch, nics = build_fan_in(
        SwitchParams(
            ports=SENDERS + 1, output_queue_frames=8, ecn_threshold_frames=4
        )
    )
    sent = blast(sim, nics)
    port = switch.port(RECEIVER)
    frames, _ = nics[RECEIVER].poll()
    marked = sum(1 for f in frames if f.header.flags & ECN_CE)
    assert port.dropped_queue_full > 0  # overflow happened
    assert marked > 0
    # Conservation: every mark the port made arrived at the receiver —
    # dropped frames are never marked, so marks are never lost.
    assert marked == port.ce_marked == switch.ce_marked_total
    assert marked <= sent - port.dropped_queue_full


def test_ecn_marking_in_lossless_overflow_stage():
    sim, switch, nics = build_fan_in(
        SwitchParams(
            ports=SENDERS + 1, output_queue_frames=8, lossless=True,
            ecn_threshold_frames=4,
        )
    )
    sent = blast(sim, nics)
    port = switch.port(RECEIVER)
    frames, _ = nics[RECEIVER].poll()
    marked = sum(1 for f in frames if f.header.flags & ECN_CE)
    assert len(frames) == sent
    assert port.paused_frames > 0
    # Paused (backpressured) frames are deep in the queue by definition,
    # so they all carry the mark; marks still equal the port's count.
    assert marked == port.ce_marked >= port.paused_frames

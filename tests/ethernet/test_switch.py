"""Unit tests for the switch model and topology wiring."""

import pytest

from repro.ethernet import (
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


def build_star(sim, n_nodes, switch_params=None, nic_params=None, rng=None):
    rng = rng or RngRegistry(0)
    switch = Switch(sim, switch_params or SwitchParams(ports=max(2, n_nodes)))
    nics = []
    for i in range(n_nodes):
        nic = Nic(
            sim,
            nic_params or NicParams(tx_jitter_ns=0),
            mac=mac_address(i, 0),
            rng=rng,
            name=f"nic{i}",
        )
        connect_nic_to_switch(sim, nic, switch, i, LinkParams(propagation_ns=100), rng)
        nic.disable_interrupts()
        nics.append(nic)
    return switch, nics


def frame_between(nics, src, dst, n=100, seq=0):
    return Frame(
        src_mac=nics[src].mac,
        dst_mac=nics[dst].mac,
        header=MultiEdgeHeader(payload_length=n, seq=seq),
        payload=bytes(n),
    )


def test_switch_forwards_to_learned_port():
    sim = Simulator()
    switch, nics = build_star(sim, 3)
    nics[0].transmit(frame_between(nics, 0, 2))
    sim.run()
    assert len(nics[2].poll()[0]) == 1
    assert len(nics[1].poll()[0]) == 0
    assert switch.forwarded == 1


def test_switch_store_and_forward_latency():
    sim = Simulator()
    switch, nics = build_star(
        sim, 2, switch_params=SwitchParams(ports=2, forwarding_latency_ns=5000)
    )
    nics[0].transmit(frame_between(nics, 0, 1, n=1464))
    sim.run()
    # Path: NIC dma(600) + serialize(12304) + prop(100) + fwd(5000)
    #       + switch serialize(12304) + prop(100) + rx dma(600)
    assert sim.now >= 600 + 12304 + 100 + 5000 + 12304 + 100 + 600


def test_switch_output_queue_overflow_drops():
    sim = Simulator()
    # Tiny output queue; two senders blast one receiver.
    switch, nics = build_star(
        sim,
        3,
        switch_params=SwitchParams(ports=3, output_queue_frames=4),
    )
    for seq in range(40):
        nics[0].transmit(frame_between(nics, 0, 2, n=1400, seq=seq))
        nics[1].transmit(frame_between(nics, 1, 2, n=1400, seq=seq))
    sim.run()
    received = len(nics[2].poll()[0])
    assert switch.dropped_total > 0
    assert received + switch.dropped_total == 80


def test_congestion_free_many_to_many_no_drops():
    sim = Simulator()
    switch, nics = build_star(sim, 4)
    for seq in range(10):
        nics[0].transmit(frame_between(nics, 0, 1, seq=seq))
        nics[1].transmit(frame_between(nics, 1, 2, seq=seq))
        nics[2].transmit(frame_between(nics, 2, 3, seq=seq))
    sim.run()
    assert switch.dropped_total == 0
    assert len(nics[1].poll()[0]) == 10
    assert len(nics[2].poll()[0]) == 10
    assert len(nics[3].poll()[0]) == 10


def test_switch_params_validation():
    with pytest.raises(ValueError):
        SwitchParams(ports=1)
    with pytest.raises(ValueError):
        SwitchParams(output_queue_frames=0)


def test_mac_address_unique_per_node_and_rail():
    macs = {mac_address(n, r) for n in range(16) for r in range(2)}
    assert len(macs) == 32


def test_hairpin_frame_dropped():
    sim = Simulator()
    switch, nics = build_star(sim, 2)
    # Destination routed to the ingress port: dropped silently.
    f = frame_between(nics, 0, 0)
    nics[0].transmit(f)
    sim.run()
    assert len(nics[0].poll()[0]) == 0
    assert len(nics[1].poll()[0]) == 0
    assert switch.dropped_hairpin == 1
    assert switch.conservation_violations() == []

"""Topology wiring helpers.

Connects NICs to switch ports (or NICs back-to-back) with full-duplex
cables, assigns MAC addresses, and teaches each switch the route to every
NIC cabled to it.
"""

from __future__ import annotations

from typing import Optional

from ..sim import RngRegistry, Simulator
from .link import Cable, LinkParams
from .nic import Nic
from .switch import Switch, SwitchPort

__all__ = [
    "connect_nic_to_switch",
    "connect_back_to_back",
    "connect_trunk",
    "mac_address",
    "trunk_mac",
    "NIC_MAC_PREFIX",
    "TRUNK_MAC_PREFIX",
]

# Both prefixes have the locally-administered bit (0x02) set in the first
# octet; they differ in bit 2 of that octet, so the NIC and trunk MAC
# namespaces are disjoint by construction — no (node, rail) can ever
# produce the MAC of a (switch, trunk port) and vice versa.
NIC_MAC_PREFIX = 0x02
TRUNK_MAC_PREFIX = 0x06


def mac_address(node_id: int, nic_index: int) -> int:
    """Deterministic, locally administered MAC for (node, rail).

    Layout: ``02:xx:xx:xx:yy:yy`` — 24 bits of rail index, 16 bits of
    node id.  The fields are range-checked so they cannot bleed into one
    another (``mac_address(1 << 16, 0)`` used to equal
    ``mac_address(0, 1)``).
    """
    if not 0 <= node_id < (1 << 16):
        raise ValueError(f"node_id {node_id} outside the 16-bit MAC field")
    if not 0 <= nic_index < (1 << 24):
        raise ValueError(f"nic_index {nic_index} outside the 24-bit MAC field")
    return (NIC_MAC_PREFIX << 40) | (nic_index << 16) | node_id


def trunk_mac(switch_id: int, port_index: int) -> int:
    """Deterministic MAC for a switch-facing trunk port.

    Namespaced under :data:`TRUNK_MAC_PREFIX` (``06:…``) so trunk ports in
    a multi-switch fabric can never collide with any NIC MAC.  Layout
    mirrors :func:`mac_address`: 24 bits of switch id, 16 bits of port.
    """
    if not 0 <= switch_id < (1 << 24):
        raise ValueError(f"switch_id {switch_id} outside the 24-bit MAC field")
    if not 0 <= port_index < (1 << 16):
        raise ValueError(f"port_index {port_index} outside the 16-bit MAC field")
    return (TRUNK_MAC_PREFIX << 40) | (switch_id << 16) | port_index


def connect_nic_to_switch(
    sim: Simulator,
    nic: Nic,
    switch: Switch,
    port_index: int,
    link_params: Optional[LinkParams] = None,
    rng: Optional[RngRegistry] = None,
) -> Cable:
    """Cable a NIC to a switch port and teach the switch the NIC's MAC."""
    params = link_params or LinkParams(speed_bps=nic.params.speed_bps)
    port: SwitchPort = switch.port(port_index)
    cable = Cable(
        sim,
        nic,
        port,
        params,
        rng,
        name=f"{nic.name}<->{switch.name}.p{port_index}",
    )
    nic.attach_link(cable.link_from(nic))
    port.attach_link(cable.link_from(port), params.speed_bps)
    switch.learn(nic.mac, port_index)
    return cable


def connect_trunk(
    sim: Simulator,
    switch_a: Switch,
    port_a: int,
    switch_b: Switch,
    port_b: int,
    link_params: LinkParams,
    rng: Optional[RngRegistry] = None,
    mac_a: int = -1,
    mac_b: int = -1,
) -> Cable:
    """Cable two switch ports together (an inter-switch trunk).

    ``mac_a`` / ``mac_b`` optionally give the trunk endpoints identities
    from the :func:`trunk_mac` namespace (tracing and invariant checks);
    frames are never addressed to them, so ``-1`` (the transparent-port
    default) is also fine.
    """
    pa: SwitchPort = switch_a.port(port_a)
    pb: SwitchPort = switch_b.port(port_b)
    pa.mac = mac_a
    pb.mac = mac_b
    cable = Cable(
        sim,
        pa,
        pb,
        link_params,
        rng,
        name=f"{switch_a.name}.p{port_a}<->{switch_b.name}.p{port_b}",
    )
    pa.attach_link(cable.link_from(pa), link_params.speed_bps)
    pb.attach_link(cable.link_from(pb), link_params.speed_bps)
    return cable


def connect_back_to_back(
    sim: Simulator,
    nic_a: Nic,
    nic_b: Nic,
    link_params: Optional[LinkParams] = None,
    rng: Optional[RngRegistry] = None,
) -> Cable:
    """Directly cable two NICs (no switch), as in a two-node testbed."""
    params = link_params or LinkParams(speed_bps=nic_a.params.speed_bps)
    cable = Cable(sim, nic_a, nic_b, params, rng, name=f"{nic_a.name}<->{nic_b.name}")
    nic_a.attach_link(cable.link_from(nic_a))
    nic_b.attach_link(cable.link_from(nic_b))
    return cable

"""ECMP-routed fabric switch.

Every :class:`~repro.ethernet.Switch` forwards by routes programmed at
wiring; an :class:`EcmpSwitch` adds what multi-member routes need.  The
topology builder gives each reachable destination MAC a *group* of
equal-cost output ports (from BFS shortest paths), and a group is
resolved per flow with a seeded deterministic hash over
``(src_mac, dst_mac, rail, connection_id)`` — the simulation's stand-in
for the 5-tuple hash real fabrics compute — so one flow always takes one
path (no intra-flow reordering from the fabric itself) while distinct
flows spread across the uplinks.

Failure handling composes with the edge-lifecycle machinery through the
same :class:`~repro.ethernet.link.Link` fault surface: a port whose
transmit link is failed (or that was administratively disabled) is
excluded from its groups at forwarding time, so the hash *re-pins* the
flow onto the surviving uplinks deterministically.  When the uplink
repairs, the flow re-pins back — both transitions are counted.

A flow's pick is cached in its pin record until ``sim.link_epoch`` moves
or an outage in force at the pick runs out (DESIGN.md, "ECMP pick
cache"); :meth:`EcmpSwitch.stale_pins` re-derives every cached pick.
"""

from __future__ import annotations

import zlib
from typing import Optional

from ..ethernet.frame import Frame
from ..ethernet.switch import Switch, SwitchParams
from ..sim import Simulator

__all__ = ["EcmpSwitch", "ecmp_hash"]


_MASK64 = (1 << 64) - 1
_FOREVER = 1 << 63  # an entry no outage bounds


def ecmp_hash(
    salt: str, src_mac: int, dst_mac: int, rail: int, conn_id: int
) -> int:
    """Seeded, process-stable flow hash.

    CRC32 over the flow key, pushed through a splitmix64-style finalizer:
    CRC is linear over GF(2), so its low bits correlate across the
    sequentially allocated connection ids real runs produce — exactly the
    bits ``h % n_uplinks`` consumes.  The multiply/xor-shift finalizer
    avalanches them.  ``salt`` carries the fabric seed and the hashing
    switch's name so different fabrics — and different stages of one
    fabric — decorrelate.
    """
    h = zlib.crc32(f"{salt}|{src_mac}|{dst_mac}|{rail}|{conn_id}".encode())
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _MASK64
    return h ^ (h >> 31)


class EcmpSwitch(Switch):
    """A switch that resolves multi-member routes by a seeded flow hash."""

    def __init__(
        self,
        sim: Simulator,
        params: SwitchParams,
        name: str = "fabric-switch",
        tier: str = "",
        rail: int = 0,
        seed: int = 0,
        max_hops: int = 8,
    ) -> None:
        super().__init__(sim, params, name, max_hops)
        self.tier = tier
        self.rail = rail
        self.seed = seed
        self._salt = f"{seed}:{name}"
        # Administratively drained ports (excluded from ECMP groups
        # without failing the cable — frames already in flight survive).
        self._disabled: set[int] = set()
        # The pick cache and determinism record: (src_mac, dst_mac, conn_id)
        # -> (alive members, port, sim.link_epoch, until, hashed), valid
        # while the epoch is unchanged and ``sim.now < until``.
        self._pins: dict[tuple[int, int, int], tuple] = {}
        self.ecmp_routed = 0  # frames resolved through a multi-port group
        self.repins = 0  # flow re-pinned because the member set changed
        self.pin_violations: list[str] = []

    def set_port_enabled(self, port_index: int, enabled: bool) -> None:
        """Administratively include/exclude a port from its ECMP groups."""
        if enabled:
            self._disabled.discard(port_index)
        else:
            self._disabled.add(port_index)
        self.sim.link_epoch += 1

    # -- ECMP selection ----------------------------------------------------

    def _port_alive(self, index: int) -> bool:
        if index in self._disabled:
            return False
        link = self.ports[index].tx_link
        return link is not None and not link.failed

    def _resolve(
        self, group: tuple[int, ...], src_mac: int, dst_mac: int, conn_id: int
    ) -> Optional[tuple[tuple[int, ...], int, int]]:
        """The uncached pick: ``(alive members, port, until)`` or None.
        ``until`` is when the first down member's outage runs out — the one
        liveness change no mutator announces."""
        now, alive, until = self.sim.now, [], _FOREVER
        for p in group:
            if self._port_alive(p):
                alive.append(p)
            elif (link := self.ports[p].tx_link) is not None and now < link._failed_until:
                until = min(until, link._failed_until)
        if not alive:
            return None
        h = 0 if len(alive) == 1 else ecmp_hash(self._salt, src_mac, dst_mac, self.rail, conn_id)
        return tuple(alive), alive[h % len(alive)], until

    def preview(
        self, src_mac: int, dst_mac: int, conn_id: int
    ) -> Optional[int]:
        """The port a frame with this flow key would take right now
        (uncached, no counters, no pin recording — for tests and planners)."""
        pick = self._resolve(self._routes.get(dst_mac, ()), src_mac, dst_mac, conn_id)
        return None if pick is None else pick[1]

    def _pick(self, frame: Frame, group: tuple[int, ...]) -> Optional[int]:
        key = (frame.src_mac, frame.dst_mac, frame.header.connection_id)
        prev = self._pins.get(key)
        sim = self.sim
        if prev is not None and prev[2] == sim.link_epoch and sim.now < prev[3]:
            self.ecmp_routed += prev[4]
            return prev[1]
        pick = self._resolve(group, *key)
        if pick is None:
            return None
        alive, port, until = pick
        hashed = len(alive) > 1
        self.ecmp_routed += hashed
        if prev is not None:
            prev_alive, prev_port = prev[:2]
            if prev_alive == alive and prev_port != port:
                # Same flow, same member set, different port: the hash is
                # not a pure function of the key — a routing bug.
                self.pin_violations.append(
                    f"{self.name}: flow {key} pinned to port {prev_port} "
                    f"but routed to {port} with members {alive} unchanged"
                )
            elif prev_port != port:
                self.repins += 1
        self._pins[key] = (alive, port, sim.link_epoch, until, hashed)
        return port

    def stale_pins(self) -> list[str]:
        """ECMP determinism, re-derived from scratch: every cached pick
        must be the flow hash of its key over its member set."""
        out = []
        for (src, dst, conn), (alive, port, *_) in self._pins.items():
            want = alive[ecmp_hash(self._salt, src, dst, self.rail, conn) % len(alive)]
            if want != port:
                out.append(f"{self.name}: flow {(src, dst, conn)} cached on port "
                           f"{port} but hashes to {want} over {alive}")
        return out

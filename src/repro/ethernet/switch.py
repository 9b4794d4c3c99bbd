"""Store-and-forward Ethernet switch model.

The paper's testbed uses D-Link DGS-1024T (1 GbE) and HP ProCurve 6400cl
(10 GbE) switches with finite output buffers.  The model captures what
matters for an *edge-based* protocol study:

* store-and-forward: a frame is forwarded only after full reception,
* a forwarding-decision latency,
* forwarding by routes taught at wiring: a destination MAC maps to the
  output ports that lead to it (:meth:`Switch.learn` for one port,
  :meth:`Switch.add_route` for an ECMP group, which
  :class:`repro.fabric.EcmpSwitch` resolves per flow),
* finite per-output-port queues: congestion (e.g. many-to-one traffic from
  DSM barriers) overflows them and silently drops frames, which the
  MultiEdge edge protocol must detect and retransmit,
* per-port output serialisation at port speed.

There is no MAC learning and no flooding.  Every NIC is taught to its
switch when it is cabled and every fabric switch gets its routes before
the first frame, so the table is full from the start: a learning switch
would never learn anything or flood.  A frame without a route is dropped
and counted instead (a flood would storm the physical loops of a
multi-path fabric), and a per-frame hop budget backs the
no-forwarding-loop invariant.

The switch core provides *no* ordering, flow control, or reliability — that
is the whole point of the edge-based design under study.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from ..sim import Simulator
from .frame import ECN_CE, Frame, wire_time_ns
from .link import Link

__all__ = ["SwitchParams", "Switch", "SwitchPort"]

BROADCAST_MAC = 0xFFFFFFFFFFFF


@dataclass
class SwitchParams:
    """Switch fabric characteristics.

    ``lossless=True`` models core-assisted flow control (the paper's §6
    "hybrid approaches that include support from the core"): instead of
    dropping on output-queue overflow, the fabric backpressures — excess
    frames wait in an overflow stage (approximating Ethernet PAUSE /
    credit-based link-level flow control without modelling the PAUSE
    frames themselves).  The edge protocol then never sees congestion
    drops; the cost is unbounded fabric buffering and head-of-line
    queueing, which the statistics expose.

    ``ecn_threshold_frames`` enables ECN: when an output queue already
    holds at least this many frames, newly enqueued frames are marked
    Congestion Experienced (the DCTCP-style single-threshold marking,
    applied at enqueue).  ``None`` disables marking entirely — the
    default, and byte-identical to the pre-ECN fabric.
    """

    ports: int = 24
    forwarding_latency_ns: int = 1_000
    output_queue_frames: int = 128
    lossless: bool = False
    ecn_threshold_frames: Optional[int] = None

    def __post_init__(self) -> None:
        if self.ports < 2:
            raise ValueError("a switch needs at least 2 ports")
        if self.output_queue_frames < 1:
            raise ValueError("output_queue_frames must be >= 1")
        if self.ecn_threshold_frames is not None and self.ecn_threshold_frames < 1:
            raise ValueError("ecn_threshold_frames must be >= 1 (or None)")


class SwitchPort:
    """One switch port; implements the link-endpoint protocol."""

    # Ports have no MAC of their own; they are transparent.
    mac = -1

    def __init__(self, switch: "Switch", index: int) -> None:
        self.switch = switch
        self.index = index
        self.tx_link: Optional[Link] = None
        self.speed_bps: float = 1e9
        self._wt_cache: dict[int, int] = {}  # wire_bytes -> serialisation ns
        self._queue: Deque[Frame] = deque()
        self._paused: Deque[Frame] = deque()  # lossless overflow stage
        self._tx_running = False
        self.dropped_queue_full = 0
        self.paused_frames = 0
        self.peak_queue_depth = 0
        self.tx_frames = 0
        self.ce_marked = 0

    def attach_link(self, link: Link, speed_bps: float) -> None:
        self.tx_link = link
        self.speed_bps = speed_bps
        self._wt_cache.clear()
        self.switch.sim.link_epoch += 1  # a new member for ECMP picks

    def _wire_time(self, wire_bytes: int) -> int:
        """Fill a miss of ``_wt_cache`` (egress reads the cache in place)."""
        t = self._wt_cache[wire_bytes] = wire_time_ns(wire_bytes, self.speed_bps)
        return t

    def deliver_fold(self, frame: Frame, arrival: int) -> None:
        """The only way into a switch: link arrival and ingress folded into
        one scheduled event.  Counts the ingress and the hop, enforces the
        hop budget, then schedules the forwarding decision at arrival plus
        the forwarding latency."""
        sw = self.switch
        sw.ingress_frames += 1
        frame.hops += 1
        if frame.hops > sw.max_hops:
            sw.dropped_loop += 1
            sw.dropped_total += 1
            sw.loop_violations.append(
                f"{sw.name}: {frame!r} exceeded the {sw.max_hops}-hop "
                f"budget (forwarding loop)"
            )
            return
        sw.sim.at(
            arrival + sw.params.forwarding_latency_ns, sw._forward, self.index, frame
        )

    # -- egress ----------------------------------------------------------

    def _mark_ce(self, frame: Frame) -> None:
        frame.header.flags |= ECN_CE
        self.ce_marked += 1
        self.switch.ce_marked_total += 1
        # A CE mark, a queue drop or a pause aborts any flow-level jump.
        guard = self.switch.sim.fastpath_guard
        if guard is not None:
            guard.bump("ecn-mark")

    def enqueue(self, frame: Frame) -> bool:
        params = self.switch.params
        ecn = params.ecn_threshold_frames
        queue = self._queue
        depth = len(queue) + len(self._paused)  # before this frame
        # Instantaneous-threshold CE marking at enqueue (DCTCP-style);
        # only admitted frames carry a mark — drops leave none.
        mark = ecn is not None and depth >= ecn
        if len(queue) >= params.output_queue_frames:
            if params.lossless:
                # Core-assisted flow control: hold instead of dropping.
                if mark:
                    self._mark_ce(frame)
                self._paused.append(frame)
                self.paused_frames += 1
                if depth >= self.peak_queue_depth:
                    self.peak_queue_depth = depth + 1
                guard = self.switch.sim.fastpath_guard
                if guard is not None:
                    guard.bump("switch-pause")
                return True
            self.dropped_queue_full += 1
            self.switch.dropped_total += 1
            guard = self.switch.sim.fastpath_guard
            if guard is not None:
                guard.bump("switch-drop")
            return False
        if mark:
            self._mark_ce(frame)
        if depth >= self.peak_queue_depth:
            self.peak_queue_depth = depth + 1
        if self._tx_running:
            queue.append(frame)
            return True
        # Idle port, so the queue is empty: serialise this frame now.
        self._tx_running = True
        wt = self._wt_cache.get(frame.wire_bytes) or self._wire_time(frame.wire_bytes)
        self.switch.sim.schedule(wt, self._tx_done, frame)
        return True

    def _tx_done(self, frame: Frame) -> None:
        if self.tx_link is None:
            raise RuntimeError(
                f"switch {self.switch.name} port {self.index}: no link attached"
            )
        self.tx_link.deliver(frame)
        self.tx_frames += 1
        queue = self._queue
        # Lossless mode: admit a paused frame into the freed slot.
        if self._paused and len(queue) < self.switch.params.output_queue_frames:
            queue.append(self._paused.popleft())
        if not queue:
            self._tx_running = False
            return
        frame = queue.popleft()
        wt = self._wt_cache.get(frame.wire_bytes) or self._wire_time(frame.wire_bytes)
        self.switch.sim.schedule(wt, self._tx_done, frame)

    @property
    def queue_depth(self) -> int:
        return len(self._queue) + len(self._paused)


class Switch:
    """A store-and-forward switch that forwards by routes."""

    def __init__(
        self,
        sim: Simulator,
        params: SwitchParams,
        name: str = "switch",
        max_hops: int = 8,
    ) -> None:
        self.sim = sim
        self.params = params
        self.name = name
        self.max_hops = max_hops
        self.ports = [SwitchPort(self, i) for i in range(params.ports)]
        # dst MAC -> sorted tuple of candidate output ports.
        self._routes: dict[int, tuple[int, ...]] = {}
        self.ingress_frames = 0
        self.forwarded = 0
        self.dropped_total = 0
        self.dropped_loop = 0
        self.dropped_no_route = 0
        self.dropped_hairpin = 0
        self.ce_marked_total = 0
        self.loop_violations: list[str] = []

    def port(self, index: int) -> SwitchPort:
        return self.ports[index]

    # -- routes ------------------------------------------------------------

    def learn(self, mac: int, port_index: int) -> None:
        """Route a directly attached MAC to one port (wiring uses this)."""
        self._routes[mac] = (port_index,)

    def add_route(self, mac: int, ports: tuple[int, ...]) -> None:
        """Route a destination MAC to a group of equal-cost ports."""
        if not ports:
            raise ValueError(f"{self.name}: empty ECMP group for {mac:#x}")
        self._routes[mac] = tuple(sorted(ports))

    def route(self, mac: int) -> Optional[tuple[int, ...]]:
        return self._routes.get(mac)

    # -- forwarding --------------------------------------------------------

    def _forward(self, in_port: int, frame: Frame) -> None:
        group = self._routes.get(frame.dst_mac)
        if group is None or frame.dst_mac == BROADCAST_MAC:
            # No flooding (see the module docstring).
            self.dropped_no_route += 1
            self.dropped_total += 1
            return
        dst_port = group[0] if len(group) == 1 else self._pick(frame, group)
        if dst_port is None:
            self.dropped_no_route += 1
            self.dropped_total += 1
            return
        if dst_port == in_port:
            # Frames "to" the ingress port are dropped silently, as real
            # switches do for hairpin traffic without reflection enabled.
            self.dropped_hairpin += 1
            return
        self.forwarded += 1
        self.ports[dst_port].enqueue(frame)

    # -- invariants --------------------------------------------------------

    def conservation_violations(self) -> list[str]:
        """Per-switch frame conservation, valid once the run has drained:
        every ingress frame was forwarded or dropped for a counted reason.
        """
        accounted = (
            self.forwarded
            + self.dropped_loop
            + self.dropped_no_route
            + self.dropped_hairpin
        )
        if self.ingress_frames != accounted:
            return [
                f"{self.name}: {self.ingress_frames} ingress frames but "
                f"{accounted} accounted (forwarded {self.forwarded}, loop "
                f"{self.dropped_loop}, no-route {self.dropped_no_route}, "
                f"hairpin {self.dropped_hairpin})"
            ]
        return []

    @property
    def total_queue_depth(self) -> int:
        return sum(p.queue_depth for p in self.ports)

"""Edge lifecycle manager: ties monitors, detectors, and the connection.

One :class:`EdgeLifecycleManager` per connection endpoint.  It owns one
:class:`~repro.control.health.EdgeHealthMonitor` and one
:class:`~repro.control.detector.EdgeFailureDetector` per rail, registers
itself as ``connection.control_plane`` (so PROBE_ACK frames and dead-peer
escalations route here), and acts on detector transitions:

* ``* → DOWN``   — ``connection.remove_edge(rail)``: mask the rail and
  migrate its stranded in-flight frames onto the survivors.
* ``* → UP``     — ``connection.add_edge(rail)``: re-stripe across it.

Every transition is appended to :attr:`history`, checked by the run's
invariant monitor if one is attached, and recorded through the run's
:class:`~repro.sim.Tracer` (both reached as ``sim.monitor`` and
``sim.tracer``) under category ``"edge.state"`` so
the Chrome trace exporter can draw per-edge lifecycle spans.  After every
probe outcome the latest health score is pushed into the striping policy
(only the ``"adaptive"`` policy weighs rails by it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim import Simulator
from .detector import EdgeFailureDetector, EdgeState, EdgeTransition
from .health import EdgeHealthMonitor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.connection import Connection

__all__ = ["EdgeLifecycleManager"]


class EdgeLifecycleManager:
    """Control plane for all edges of one connection endpoint."""

    def __init__(self, sim: Simulator, connection: "Connection") -> None:
        self.sim = sim
        self.conn = connection
        # Every edge starts UP here; the roll-up replays ``history`` from
        # this instant to get per-state residency.
        self.created_ns = sim.now
        self.history: list[EdgeTransition] = []
        self.detectors: list[EdgeFailureDetector] = []
        self.monitors: list[EdgeHealthMonitor] = []
        # PEER_DOWN escalates once, when every edge of the peer is DOWN (or
        # the coarse retransmit timer declares the connection dead), to the
        # stack's crash recovery (repro.recovery) if there is one; without
        # it per-edge failover remains the only response.
        self._peer_down_fired = False
        # Per-rail score ceiling imposed by the differential gray scorer
        # (repro.control.grayscore).  Absent rails are uncapped; the cap
        # shifts adaptive striping weight off a gray rail *before* the
        # failure detector could ever fire.
        self.gray_cap: dict[int, float] = {}
        for rail in range(len(connection.nics)):
            detector = EdgeFailureDetector(rail, on_transition=self._on_transition)
            monitor = EdgeHealthMonitor(sim, connection, rail, detector)
            self.detectors.append(detector)
            self.monitors.append(monitor)
        connection.control_plane = self

    # -- introspection -----------------------------------------------------

    def edge_state(self, rail: int) -> EdgeState:
        return self.detectors[rail].state

    @property
    def states(self) -> list[EdgeState]:
        return [d.state for d in self.detectors]

    def edge_score(self, rail: int) -> float:
        return self.monitors[rail].score

    def transitions_for(self, rail: int) -> list[EdgeTransition]:
        return [t for t in self.history if t.rail == rail]

    # -- wiring ------------------------------------------------------------

    def stop(self) -> None:
        """Stop all probe loops (end of experiment)."""
        for monitor in self.monitors:
            monitor.stop()

    # -- callbacks from the connection ------------------------------------

    def on_probe_ack(self, frame) -> None:
        """PROBE_ACK arrived; route to the monitor for its rail."""
        rail = frame.control
        if not isinstance(rail, int) or not 0 <= rail < len(self.monitors):
            return
        monitor = self.monitors[rail]
        monitor.on_probe_ack(frame.header.op_id, frame.header.remote_address)
        self._push_score(rail)

    def on_connection_dead(self) -> None:
        """Coarse retransmit retries exhausted: every rail is silent.

        Nothing to fail over *to*; record the event so experiments can
        distinguish total-fabric death from single-edge failures.
        """
        tracer = self.sim.tracer
        if tracer is not None and tracer.is_enabled("edge.state"):
            tracer.record(
                "edge.state",
                {"conn": self.conn.conn_id, "rail": -1, "old": "up",
                 "new": "dead", "reason": "all rails silent"},
            )
        self._fire_peer_down()

    # -- detector transition handling --------------------------------------

    def _on_transition(
        self, rail: int, old: EdgeState, new: EdgeState, now: int, reason: str
    ) -> None:
        self.history.append(EdgeTransition(now, rail, old, new, reason))
        fastpath = self.conn.fastpath
        if fastpath is not None:
            # Any heartbeat-driven edge state change is a discontinuity for
            # the flow-level fast-forward model.
            fastpath.on_discontinuity("edge-transition")
        sim = self.sim
        if sim.monitor is not None:
            sim.monitor.on_edge_transition(self, rail, old, new, reason)
        if sim.tracer is not None and sim.tracer.is_enabled("edge.state"):
            sim.tracer.record(
                "edge.state",
                {"conn": self.conn.conn_id, "rail": rail, "old": str(old),
                 "new": str(new), "reason": reason},
            )
        if new is EdgeState.DOWN:
            self.conn.remove_edge(rail)
        elif new is EdgeState.UP and old not in (
            EdgeState.SUSPECT, EdgeState.DEGRADED
        ):
            # SUSPECT→UP and DEGRADED→UP never masked the rail, so there is
            # nothing to undo; DEGRADED only drains weight.
            self.conn.add_edge(rail)
        if new is EdgeState.DOWN and all(
            d.state is EdgeState.DOWN for d in self.detectors
        ):
            # Every edge of the peer is gone: per-edge failover has run
            # out of survivors.  Escalate to PEER_DOWN.
            self._fire_peer_down()

    def _fire_peer_down(self) -> None:
        recovery = self.conn.protocol.recovery
        if self._peer_down_fired or recovery is None:
            return
        self._peer_down_fired = True
        recovery.on_peer_down(self)

    def _push_score(self, rail: int) -> None:
        score = self.monitors[rail].score
        cap = self.gray_cap.get(rail)
        if cap is not None and cap < score:
            score = cap
        self.conn.striping.set_score(rail, score)

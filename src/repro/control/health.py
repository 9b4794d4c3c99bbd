"""Per-edge health monitoring: heartbeat probes + passive EWMA sampling.

One :class:`EdgeHealthMonitor` per edge of a connection endpoint.  Every
``PROBE_INTERVAL_NS`` it emits a PROBE frame on its rail (bypassing the
striping policy — the point is to measure *this* rail, even one the
control plane has masked).  The peer's :class:`repro.core.Connection`
echoes a PROBE_ACK on the same rail.  From the echo stream the monitor
maintains exponentially weighted moving averages of probe loss and RTT,
and passively samples the NIC's TX-ring backlog at every probe tick.

The combined **health score** in ``[0, 1]`` is::

    score = (1 - loss_ewma) * min(1, rtt_ref / rtt_ewma) * (1 - backlog/2)

so a dead edge decays toward 0 at the loss-EWMA rate, while a
degraded-but-alive edge (elevated RTT, deep backlog) settles at an
intermediate value — which the adaptive striping policy uses to *drain*
it slowly instead of stalling behind it.

Probes that cannot even enter the TX ring (ring full) are recorded as
``probes_skipped`` rather than losses: a saturated-but-healthy rail must
not be declared dead by its own success.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.messages import make_probe_frame
from ..sim import Simulator
from .detector import PROBE_INTERVAL_NS, PROBE_TIMEOUT_NS, EdgeFailureDetector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.connection import Connection

__all__ = ["EdgeHealthMonitor"]

# EWMA smoothing factor of every health average (weight of newest sample).
ALPHA = 0.3


class EdgeHealthMonitor:
    """Heartbeat prober + EWMA scorer for one edge of one endpoint."""

    def __init__(
        self,
        sim: Simulator,
        connection: "Connection",
        rail: int,
        detector: "EdgeFailureDetector",
    ) -> None:
        self.sim = sim
        self.conn = connection
        self.rail = rail
        self.detector = detector

        self.loss_ewma = 0.0
        self.rtt_ewma_ns = 0.0
        self.backlog_ewma = 0.0
        self._rtt_ref = 0.0  # learned from the first successful probe

        self.probes_sent = 0
        self.probes_acked = 0
        self.probes_lost = 0
        self.probes_skipped = 0
        self.probes_stale = 0

        self._next_probe_seq = 0
        self._pending: dict[int, int] = {}  # probe_seq -> sent_at
        self._running = True
        sim.process(self._body(), name=f"edge-monitor.c{connection.conn_id}.r{rail}")

    # -- scoring ----------------------------------------------------------

    @property
    def score(self) -> float:
        """Combined health score in [0, 1] (feeds adaptive striping)."""
        s = 1.0 - self.loss_ewma
        if self._rtt_ref > 0 and self.rtt_ewma_ns > self._rtt_ref:
            s *= self._rtt_ref / self.rtt_ewma_ns
        s *= 1.0 - self.backlog_ewma / 2.0
        return max(0.0, min(1.0, s))

    @property
    def detector_score(self) -> float:
        """Loss-dominated signal fed to the failure detector.

        RTT and backlog inflation are *congestion* symptoms — a saturated
        rail must never look failed to the detector, only to the striping
        weights.  Sustained probe loss is the one signal that means the
        edge itself is sick.
        """
        return 1.0 - self.loss_ewma

    def _ewma(self, current: float, sample: float) -> float:
        return ALPHA * sample + (1.0 - ALPHA) * current

    # -- probe loop -------------------------------------------------------

    def stop(self) -> None:
        self._running = False

    def _body(self):
        while self._running:
            yield PROBE_INTERVAL_NS
            if not self._running:
                return
            self._send_probe()

    def _send_probe(self) -> None:
        conn = self.conn
        rail = self.rail
        if rail >= len(conn.nics) or conn.closed:
            return
        nic = conn.nics[rail]
        now = self.sim.now
        seq = self._next_probe_seq
        self._next_probe_seq += 1
        # Passive backlog sample rides the probe tick.
        self.backlog_ewma = self._ewma(self.backlog_ewma, nic.tx_backlog_fraction)
        frame = make_probe_frame(
            nic.mac, conn.peer_macs[rail], conn.conn_id, rail, seq, now
        )
        frame.incarnation = conn.local_incarnation
        if not nic.transmit(frame):
            # Ring full: the rail is saturated, not lost.  Skip the probe;
            # the backlog EWMA already took the hit.
            self.probes_skipped += 1
            return
        self.probes_sent += 1
        conn.stats.probes_sent += 1
        self._pending[seq] = now
        self.sim.timer(PROBE_TIMEOUT_NS, self._timeout, seq)

    def _timeout(self, seq: int) -> None:
        if self._pending.pop(seq, None) is None:
            return  # answered in time
        self.probes_lost += 1
        self.loss_ewma = self._ewma(self.loss_ewma, 1.0)
        if self._running:
            self.detector.on_probe_loss(self.sim.now, self.detector_score)

    def on_probe_ack(self, probe_seq: int, sent_at: int) -> None:
        """Called by the lifecycle manager when this rail's echo arrives."""
        if self._pending.pop(probe_seq, None) is None:
            return  # already timed out (late echo) or duplicate
        # Links are FIFO: a probe older than this ack either already
        # arrived or died *before* this success.  Its pending timeout is
        # stale information — letting it fire would knock a freshly
        # recovered rail back DOWN.
        for old_seq in [s for s in self._pending if s < probe_seq]:
            del self._pending[old_seq]
            self.probes_stale += 1
        now = self.sim.now
        rtt = now - sent_at
        self.probes_acked += 1
        self.loss_ewma = self._ewma(self.loss_ewma, 0.0)
        self.rtt_ewma_ns = (
            float(rtt) if self.rtt_ewma_ns == 0.0
            else self._ewma(self.rtt_ewma_ns, float(rtt))
        )
        if self._rtt_ref == 0.0:
            self._rtt_ref = float(rtt)
        if self._running:
            self.detector.on_probe_success(now, self.detector_score)

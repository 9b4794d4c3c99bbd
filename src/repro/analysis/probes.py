"""Runtime probes: time series sampled from a live simulation.

The paper's §4 analysis reasons about traffic *behaviour* — burstiness,
reordering spacing, congestion — not just totals.  Probes sample counters
at a fixed simulated-time interval, producing the series needed for that
kind of analysis:

* :class:`ThroughputProbe` — delivered payload bytes/s per interval for a
  connection endpoint,
* :class:`QueueProbe` — switch output-queue depth over time (congestion
  visibility),
* :class:`InflightProbe` — sender window occupancy over time,
* :class:`CwndProbe` — the congestion window a repro.congestion controller
  is granting the connection,
* :class:`MarkedFractionProbe` — per-interval fraction of received data
  frames that arrived CE-marked (receiver-side ECN visibility),
* :class:`ReconnectLatencyProbe` — detection-to-reconnect latency of each
  crash-recovery reconnect (read from the recovery coordinator's record,
  not periodic).

Each periodic probe runs as a simulation process; call :meth:`stop` (or
let the simulation end) and read ``samples``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.connection import Connection
from ..ethernet import Switch
from ..sim import Simulator

__all__ = [
    "ThroughputProbe",
    "QueueProbe",
    "InflightProbe",
    "EdgeScoreProbe",
    "CwndProbe",
    "MarkedFractionProbe",
    "ReconnectLatencyProbe",
    "Sample",
]


@dataclass
class Sample:
    time_ns: int
    value: float


class _Probe:
    """Base: periodic sampler driven by a simulation process."""

    def __init__(self, sim: Simulator, interval_ns: int) -> None:
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval_ns = interval_ns
        self.samples: list[Sample] = []
        self._running = True
        sim.process(self._body(), name=type(self).__name__)

    def _body(self):
        while self._running:
            yield self.interval_ns
            if not self._running:
                return
            self.samples.append(Sample(self.sim.now, self._read()))

    def _read(self) -> float:
        raise NotImplementedError

    def stop(self) -> None:
        self._running = False

    @property
    def values(self) -> list[float]:
        return [s.value for s in self.samples]

    @property
    def times_us(self) -> list[float]:
        return [s.time_ns / 1000.0 for s in self.samples]

    def mean(self) -> float:
        return sum(self.values) / len(self.samples) if self.samples else 0.0

    def peak(self) -> float:
        return max(self.values) if self.samples else 0.0


class ThroughputProbe(_Probe):
    """Received payload throughput (MB/s) per sampling interval."""

    def __init__(
        self, sim: Simulator, connection: Connection, interval_ns: int = 1_000_000
    ) -> None:
        self._conn = connection
        self._last_bytes = connection.stats.data_bytes_received
        super().__init__(sim, interval_ns)

    def _read(self) -> float:
        now_bytes = self._conn.stats.data_bytes_received
        delta = now_bytes - self._last_bytes
        self._last_bytes = now_bytes
        return delta / (self.interval_ns / 1e9) / 1e6


class QueueProbe(_Probe):
    """Total output-queue depth of a switch, in frames."""

    def __init__(
        self, sim: Simulator, switch: Switch, interval_ns: int = 100_000
    ) -> None:
        self._switch = switch
        super().__init__(sim, interval_ns)

    def _read(self) -> float:
        return float(self._switch.total_queue_depth)


class InflightProbe(_Probe):
    """Sender sliding-window occupancy, in frames."""

    def __init__(
        self, sim: Simulator, connection: Connection, interval_ns: int = 100_000
    ) -> None:
        self._conn = connection
        super().__init__(sim, interval_ns)

    def _read(self) -> float:
        return float(self._conn.window.in_flight_count)


class CwndProbe(_Probe):
    """Congestion window granted by the connection's controller, in frames.

    With the static policy this is a flat line at the flow window size.
    """

    def __init__(
        self, sim: Simulator, connection: Connection, interval_ns: int = 100_000
    ) -> None:
        self._conn = connection
        super().__init__(sim, interval_ns)

    def _read(self) -> float:
        return float(self._conn.congestion.cwnd_frames)


class MarkedFractionProbe(_Probe):
    """Fraction of data frames received CE-marked, per interval.

    Receiver-side view of fabric congestion (the sender-side EWMA is
    ``connection.congestion.marked_fraction``).  Intervals with no
    arrivals sample 0.
    """

    def __init__(
        self, sim: Simulator, connection: Connection, interval_ns: int = 1_000_000
    ) -> None:
        self._conn = connection
        self._last_ce = connection.stats.ce_frames_received
        self._last_rx = connection.stats.data_frames_received
        super().__init__(sim, interval_ns)

    def _read(self) -> float:
        conn = self._conn
        ce = conn.stats.ce_frames_received
        rx = conn.stats.data_frames_received
        d_ce = ce - self._last_ce
        d_rx = rx - self._last_rx
        self._last_ce = ce
        self._last_rx = rx
        return d_ce / d_rx if d_rx > 0 else 0.0


class ReconnectLatencyProbe:
    """Detection-to-reconnect latency of each crash-recovery reconnect.

    Unlike the periodic probes, this one samples nothing itself: it reads
    the ``(completed_ns, latency_ns)`` pairs a
    :class:`~repro.recovery.ClusterRecovery` records in
    ``reconnect_latencies`` between the probe's creation and :meth:`stop`,
    one sample per successful reconnect.  It exposes the same
    ``samples``/``values``/``mean``/``peak`` surface as the periodic
    probes so plotting code is shared.
    """

    def __init__(self, recovery) -> None:
        self._log = recovery.reconnect_latencies
        self._start = len(self._log)
        self._end: Optional[int] = None

    def stop(self) -> None:
        if self._end is None:
            self._end = len(self._log)

    @property
    def samples(self) -> list[Sample]:
        return [
            Sample(at_ns, float(ns))
            for at_ns, ns in self._log[self._start:self._end]
        ]

    @property
    def values(self) -> list[float]:
        return [s.value for s in self.samples]

    @property
    def times_us(self) -> list[float]:
        return [s.time_ns / 1000.0 for s in self.samples]

    def mean(self) -> float:
        return sum(self.values) / len(self.samples) if self.samples else 0.0

    def peak(self) -> float:
        return max(self.values) if self.samples else 0.0


class EdgeScoreProbe(_Probe):
    """One edge's EWMA health score over time (control plane required).

    ``manager`` is the connection endpoint's
    :class:`~repro.control.EdgeLifecycleManager`; the probe samples the
    combined loss/RTT/backlog score of ``rail``.
    """

    def __init__(
        self, sim: Simulator, manager, rail: int, interval_ns: int = 500_000
    ) -> None:
        self._manager = manager
        self._rail = rail
        super().__init__(sim, interval_ns)

    def _read(self) -> float:
        return self._manager.edge_score(self._rail)

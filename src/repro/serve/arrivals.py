"""Open-loop arrival sources for the serving layer.

The defining property of open-loop load is that the arrival process
never waits for the system: requests keep coming at the configured rate
whether or not earlier requests have completed, which is what exposes
queueing collapse and honest tail latencies (a closed-loop driver slows
itself down exactly when the system is struggling, flattering the p99).

A real service sees this load from millions of independent clients.  We
stand in for them with *batched* event generation: one
:class:`ArrivalSource` pre-draws a whole batch of inter-arrival gaps
from its RNG stream (one vectorized draw for Poisson), then walks the
batch with a single armed scheduler callback — at any instant exactly
one future arrival event is pending per source, regardless of rate.
There is never a process (or timer) per client or per request.

Two arrival processes are provided:

* ``poisson`` — exponential i.i.d. gaps at ``rate_rps``.
* ``bursty`` — a Markov-modulated on/off process: gaps are exponential
  at ``burst_rate_rps`` during "on" phases and ``rate_rps`` during
  "off" phases, with exponentially distributed phase durations (means
  :data:`MEAN_ON_NS` and :data:`MEAN_OFF_NS`).  This is the classic
  MMPP(2) traffic model for flash crowds and spikes.

All randomness (gaps, phase switches, request/response sizes) comes
from the dedicated ``serve:<seed>`` stream of the cluster's
:class:`~repro.sim.RngRegistry`, so enabling serving never perturbs any
other subsystem's draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["ArrivalSpec", "ArrivalSource", "Request", "draw_size"]

# Mean durations of the bursty process's on and off phases.
MEAN_ON_NS = 2_000_000
MEAN_OFF_NS = 2_000_000


@dataclass
class Request:
    """One request's lifetime record (client side)."""

    req_id: int
    client: int  # client node rank
    t_arrival: int  # sim time the open-loop source emitted it
    req_bytes: int
    resp_bytes: int
    attempts: int = 0  # dispatch attempts (> 1 after replay/hedge/retry)
    # Servers with an attempt currently in flight (one normally; more
    # while a hedge is racing the primary).
    pending_servers: set = field(default_factory=set)
    # server -> the sim time its attempt left the client outbox; the
    # winner's entry feeds the latency decomposition.
    dispatch_ns: dict = field(default_factory=dict)
    hedges: int = 0  # hedged attempts issued for this request


@dataclass(frozen=True)
class ArrivalSpec:
    """Declarative description of one open-loop source.

    Size distributions are ``(kind, a)`` or ``(kind, a, b)`` tuples:
    ``("fixed", n)``, ``("uniform", lo, hi)`` (inclusive), or
    ``("exp", mean)`` (shifted by 1 so payloads are never empty).
    """

    kind: str = "poisson"  # "poisson" | "bursty"
    rate_rps: float = 20_000.0  # base rate, requests per simulated second
    burst_rate_rps: float = 0.0  # on-phase rate for "bursty" (0 -> 4x base)
    request_bytes: tuple = ("fixed", 128)
    response_bytes: tuple = ("fixed", 512)
    batch: int = 256  # arrivals pre-drawn per generation event

    def __post_init__(self) -> None:
        if self.kind not in ("poisson", "bursty"):
            raise ValueError(f"unknown arrival kind {self.kind!r}")
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")


def draw_size(rng, dist: tuple) -> int:
    """Draw one size (bytes) from a distribution tuple."""
    kind = dist[0]
    if kind == "fixed":
        return int(dist[1])
    if kind == "uniform":
        return int(rng.integers(dist[1], dist[2] + 1))
    if kind == "exp":
        return 1 + int(rng.exponential(dist[1]))
    raise ValueError(f"unknown size distribution {dist!r}")


class ArrivalSource:
    """One open-loop source feeding requests for a single client rank."""

    def __init__(
        self,
        sim,
        rng,
        spec: ArrivalSpec,
        client: int,
        deliver: Callable[[Request], None],
        stop_at_ns: Optional[int] = None,
        max_requests: Optional[int] = None,
        req_id_base: int = 0,
    ) -> None:
        self.sim = sim
        self.rng = rng
        self.spec = spec
        self.client = client
        self.deliver = deliver
        self.stop_at_ns = stop_at_ns
        self.max_requests = max_requests
        self.generated = 0
        self.batches_generated = 0
        self._next_req_id = req_id_base
        self._times: list[int] = []
        self._i = 0
        self._stopped = False
        self._armed_at: Optional[int] = None
        # Bursty phase state persists across batches.
        self._phase_on = False
        self._phase_end_ns = 0.0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._refill(from_ns=self.sim.now)
        self._arm()

    def stop(self) -> None:
        """Disarm: the pending scheduler callback becomes a no-op."""
        self._stopped = True
        self._armed_at = None

    @property
    def armed(self) -> bool:
        """True while a future arrival event is scheduled."""
        return self._armed_at is not None

    @property
    def pending_batch(self) -> int:
        """Arrivals already drawn but not yet emitted (checkpoint state)."""
        if self._stopped:
            return 0
        return len(self._times) - self._i

    # -- batch generation --------------------------------------------------

    def _refill(self, from_ns: int) -> None:
        spec = self.spec
        n = spec.batch
        if spec.kind == "poisson":
            gaps = self.rng.exponential(1e9 / spec.rate_rps, n)
            t = float(from_ns)
            times = []
            for g in gaps:
                t += max(1.0, g)
                times.append(int(t))
        else:
            times = self._refill_bursty(from_ns, n)
        self._times = times
        self._i = 0
        self.batches_generated += 1

    def _refill_bursty(self, from_ns: int, n: int) -> list[int]:
        spec = self.spec
        burst = spec.burst_rate_rps or 4 * spec.rate_rps
        t = float(from_ns)
        if self._phase_end_ns <= t and self.batches_generated == 0:
            # First batch: start in the off (base-rate) phase.
            self._phase_on = False
            self._phase_end_ns = t + self.rng.exponential(MEAN_OFF_NS)
        times: list[int] = []
        while len(times) < n:
            rate = burst if self._phase_on else spec.rate_rps
            gap = max(1.0, self.rng.exponential(1e9 / rate))
            if t + gap <= self._phase_end_ns:
                t += gap
                times.append(int(t))
            else:
                # Memoryless: discard the partial gap at the boundary.
                t = self._phase_end_ns
                self._phase_on = not self._phase_on
                mean = MEAN_ON_NS if self._phase_on else MEAN_OFF_NS
                self._phase_end_ns = t + self.rng.exponential(mean)
        return times

    # -- the single armed event --------------------------------------------

    def _arm(self) -> None:
        if self._stopped:
            return
        if self.max_requests is not None and self.generated >= self.max_requests:
            self._stopped = True
            self._armed_at = None
            return
        if self._i >= len(self._times):
            self._refill(from_ns=self._times[-1] if self._times else self.sim.now)
        t = self._times[self._i]
        if self.stop_at_ns is not None and t >= self.stop_at_ns:
            self._stopped = True
            self._armed_at = None
            return
        self._armed_at = t
        self.sim.at(t, self._fire, t)

    def _fire(self, t: int) -> None:
        if self._stopped or self._armed_at != t:
            return  # stopped (or superseded) after this event was scheduled
        self._armed_at = None
        self._i += 1
        spec = self.spec
        req = Request(
            req_id=self._next_req_id,
            client=self.client,
            t_arrival=self.sim.now,
            req_bytes=draw_size(self.rng, spec.request_bytes),
            resp_bytes=draw_size(self.rng, spec.response_bytes),
        )
        self._next_req_id += 1
        self.generated += 1
        self._arm()
        self.deliver(req)

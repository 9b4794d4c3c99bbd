"""Tail-tolerant client machinery: hedging, retry budgets, breakers.

One gray server — alive, answering, just slow — drags the cluster-wide
p99 even though every health check passes.  The serving layer fights
back with four client-side mechanisms, all standard practice in
production RPC stacks and all bounded so the cure cannot become the
disease:

* **Hedged requests** — after a request has been outstanding longer
  than the tracked :data:`HEDGE_QUANTILE` latency, a second copy goes to
  a *different* server; the first response wins and the loser's answer is
  absorbed by the existing duplicate-response path.
* **Retry budget** — a token bucket earns ``retry_budget`` tokens per
  fresh request and every hedge or shed-retry spends one, so retry
  amplification is capped at ``1 + retry_budget`` of fresh load no
  matter how unhealthy the pool gets.
* **Circuit breakers** — per-server CLOSED / OPEN / HALF_OPEN machines:
  consecutive failures (sheds) open the breaker, dispatch routes around
  it, and after :data:`BREAKER_OPEN_NS` a limited number of half-open
  probes decide between closing and re-opening.
* **Outlier ejection** — per-server latency EWMAs compared against the
  pool median; a server slower than :data:`EJECT_FACTOR` x median is
  ejected from the candidate pool for :data:`EJECT_NS`, with at most
  :data:`MAX_EJECT_FRACTION` of the pool ejected at once.

Every filter **fails open**: if breakers + ejection would empty the
candidate pool, the unfiltered pool is used — tail tolerance must never
turn a slow cluster into an unavailable one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.latency import LatencyHistogram

__all__ = [
    "TailSpec",
    "RetryBudget",
    "CircuitBreaker",
    "OutlierEjector",
    "QuantileTracker",
    "TailController",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

# Hedge once a request is outstanding past this latency percentile, with
# at most MAX_HEDGES extra attempts per request.
HEDGE_QUANTILE = 95.0
MAX_HEDGES = 1
# The hedge delay is clamped to [HEDGE_MIN_DELAY_NS, HEDGE_MAX_DELAY_NS]
# and arms after HEDGE_WARMUP completions.
HEDGE_MIN_DELAY_NS = 100_000
HEDGE_MAX_DELAY_NS = 20_000_000
HEDGE_WARMUP = 20
# Retry-budget bucket depth (initial + cap headroom), and total attempts
# per request, all causes.
RETRY_BURST = 10
MAX_ATTEMPTS = 3
# Consecutive failures that open a breaker, how long OPEN holds, and the
# probes allowed while HALF_OPEN.
BREAKER_FAILURES = 5
BREAKER_OPEN_NS = 5_000_000
BREAKER_HALF_OPEN_PROBES = 2
# Smoothing of the per-server latency EWMA behind outlier ejection.
EJECT_ALPHA = 0.1
# Slower than EJECT_FACTOR x the pool median, once EJECT_MIN_SAMPLES are
# in, is an outlier; it is ejected for EJECT_NS, and never more than
# MAX_EJECT_FRACTION of the pool at once.
EJECT_FACTOR = 2.0
EJECT_MIN_SAMPLES = 30
EJECT_NS = 10_000_000
MAX_EJECT_FRACTION = 0.5

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

# The transitions the breaker state machine may legally take; the
# invariant monitor checks every recorded transition against this.
LEGAL_BREAKER_TRANSITIONS = frozenset(
    [
        (BREAKER_CLOSED, BREAKER_OPEN),
        (BREAKER_OPEN, BREAKER_HALF_OPEN),
        (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        (BREAKER_HALF_OPEN, BREAKER_OPEN),
    ]
)


@dataclass(frozen=True)
class TailSpec:
    """Static tail-tolerance policy for one serving deployment: which
    mechanisms run, and the retry budget they share."""

    hedge: bool = True
    retry_budget: float = 0.1  # tokens earned per fresh request
    retry_sheds: bool = True  # retry shed responses through the budget
    breaker: bool = True
    eject: bool = True

    def __post_init__(self) -> None:
        if self.retry_budget < 0.0:
            raise ValueError("retry_budget must be >= 0")


class RetryBudget:
    """Token bucket bounding *all* extra attempts to a fraction of load.

    Fresh requests earn ``ratio`` tokens each; every hedge or retry
    spends one whole token.  The bucket starts at ``burst`` (so a cold
    system can still hedge) and is capped there, making total extra
    attempts <= ``burst + ratio * fresh`` — the retry-amplification
    bound the invariant monitor checks.
    """

    def __init__(self, ratio: float, burst: int) -> None:
        self.ratio = ratio
        self.burst = burst
        self.tokens = float(burst)
        self.earned = 0  # fresh requests seen
        self.spent = 0  # extra attempts granted
        self.denied = 0  # extra attempts refused

    def on_fresh(self, n: int = 1) -> None:
        self.earned += n
        self.tokens = min(float(self.burst), self.tokens + self.ratio * n)

    def try_spend(self) -> bool:
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1
            return True
        self.denied += 1
        return False


class CircuitBreaker:
    """CLOSED / OPEN / HALF_OPEN failure isolation for one server."""

    def __init__(self) -> None:
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0
        self.half_open_probes_left = 0
        self.opens = 0
        # (time_ns, old, new) — audited against LEGAL_BREAKER_TRANSITIONS.
        self.transitions: list[tuple[int, str, str]] = []

    def _move(self, new: str, now: int) -> None:
        old = self.state
        if new == old:
            return
        self.transitions.append((now, old, new))
        self.state = new
        if new == BREAKER_OPEN:
            self.opens += 1
            self.opened_at = now
            self.consecutive_failures = 0
        elif new == BREAKER_HALF_OPEN:
            self.half_open_probes_left = BREAKER_HALF_OPEN_PROBES
        elif new == BREAKER_CLOSED:
            self.consecutive_failures = 0

    def allow(self, now: int) -> bool:
        """May a request be dispatched to this server right now?

        Non-consuming: candidate filtering asks this for every server
        but only one gets the request; :meth:`note_dispatch` spends the
        half-open probe when the balancer actually picks this server.
        """
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if now - self.opened_at >= BREAKER_OPEN_NS:
                self._move(BREAKER_HALF_OPEN, now)
            else:
                return False
        return self.half_open_probes_left > 0

    def note_dispatch(self, now: int) -> None:
        if self.state == BREAKER_HALF_OPEN and self.half_open_probes_left > 0:
            self.half_open_probes_left -= 1

    def on_success(self, now: int) -> None:
        self.consecutive_failures = 0
        if self.state == BREAKER_HALF_OPEN:
            self._move(BREAKER_CLOSED, now)

    def on_failure(self, now: int) -> None:
        if self.state == BREAKER_HALF_OPEN:
            self._move(BREAKER_OPEN, now)
        elif self.state == BREAKER_CLOSED:
            self.consecutive_failures += 1
            if self.consecutive_failures >= BREAKER_FAILURES:
                self._move(BREAKER_OPEN, now)


class OutlierEjector:
    """Differential latency comparison across the server pool."""

    def __init__(self, servers) -> None:
        self.servers = tuple(servers)
        self.ewma: dict[int, float] = {s: 0.0 for s in self.servers}
        self.samples: dict[int, int] = {s: 0 for s in self.servers}
        self.ejected_until: dict[int, int] = {}  # server -> expiry ns
        self.ejections = 0

    def on_sample(self, server: int, latency_ns: int, now: int) -> None:
        prev = self.ewma.get(server, 0.0)
        self.ewma[server] = (
            float(latency_ns) if self.samples.get(server, 0) == 0
            else EJECT_ALPHA * latency_ns + (1.0 - EJECT_ALPHA) * prev
        )
        self.samples[server] = self.samples.get(server, 0) + 1
        self._judge(server, now)

    def is_ejected(self, server: int, now: int) -> bool:
        expiry = self.ejected_until.get(server)
        if expiry is None:
            return False
        if now >= expiry:
            # Ejection over: forget the bad history so the server is
            # judged on post-recovery samples, not the gray era's EWMA.
            del self.ejected_until[server]
            self.ewma[server] = 0.0
            self.samples[server] = 0
            return False
        return True

    def _judge(self, server: int, now: int) -> None:
        if self.samples[server] < EJECT_MIN_SAMPLES:
            return
        if server in self.ejected_until:
            return
        peers = [
            self.ewma[s]
            for s in self.servers
            if self.samples[s] >= EJECT_MIN_SAMPLES
            and s not in self.ejected_until
        ]
        if len(peers) < 2:
            return  # nothing to compare against
        ordered = sorted(peers)
        mid = len(ordered) // 2
        median = (
            ordered[mid]
            if len(ordered) % 2
            else (ordered[mid - 1] + ordered[mid]) / 2.0
        )
        if median <= 0.0 or self.ewma[server] <= EJECT_FACTOR * median:
            return
        cap = int(MAX_EJECT_FRACTION * len(self.servers))
        if len(self.ejected_until) >= cap:
            return
        self.ejected_until[server] = now + EJECT_NS
        self.ejections += 1


class QuantileTracker:
    """Latency quantile with a cheap cached read for hedge arming."""

    _REFRESH = 32  # recompute the percentile every this many records

    def __init__(self, quantile: float) -> None:
        self.quantile = quantile
        self.hist = LatencyHistogram()
        self._cached = 0
        self._since_refresh = 0

    def record(self, latency_ns: int) -> None:
        self.hist.record(latency_ns)
        self._since_refresh += 1
        if self._since_refresh >= self._REFRESH:
            self._since_refresh = 0
            self._cached = self.hist.percentile(self.quantile)

    def value(self) -> int:
        if self._since_refresh and not self._cached:
            self._cached = self.hist.percentile(self.quantile)
        return self._cached

    @property
    def total(self) -> int:
        return self.hist.total


class TailController:
    """All tail-tolerance state for one :class:`ServeRuntime`."""

    def __init__(self, spec: TailSpec, servers) -> None:
        self.spec = spec
        self.servers = tuple(servers)
        self.budget = RetryBudget(spec.retry_budget, RETRY_BURST)
        self.breakers: dict[int, CircuitBreaker] = {
            s: CircuitBreaker() for s in self.servers
        }
        self.ejector = OutlierEjector(self.servers)
        self.quantiles = QuantileTracker(HEDGE_QUANTILE)
        # -- counters ------------------------------------------------------
        self.hedges_sent = 0
        self.hedges_won = 0  # a hedge answered before the primary
        self.retries_sent = 0  # shed responses retried elsewhere
        self.fail_open = 0  # times filtering would have emptied the pool

    def on_fresh(self) -> None:
        """A fresh request arrived; it earns retry-budget tokens."""
        if self.spec.hedge or self.spec.retry_sheds:
            self.budget.on_fresh()

    # -- dispatch-time filtering ------------------------------------------

    def filter_candidates(self, candidates: set, now: int) -> set:
        """Drop open-breaker and ejected servers; fail open if empty."""
        spec = self.spec
        if not (spec.breaker or spec.eject):
            return candidates
        filtered = set()
        for s in sorted(candidates):
            if spec.breaker and not self.breakers[s].allow(now):
                continue
            if spec.eject and self.ejector.is_ejected(s, now):
                continue
            filtered.add(s)
        if not filtered and candidates:
            self.fail_open += 1
            return set(candidates)
        return filtered

    def on_dispatch(self, server: int, now: int) -> None:
        """The balancer picked ``server``; spend its half-open probe."""
        if self.spec.breaker:
            self.breakers[server].note_dispatch(now)

    # -- response-time signals --------------------------------------------

    def on_success(self, server: int, latency_ns: int, now: int) -> None:
        if self.spec.hedge:
            self.quantiles.record(latency_ns)
        if self.spec.breaker:
            self.breakers[server].on_success(now)
        if self.spec.eject:
            self.ejector.on_sample(server, latency_ns, now)

    def on_shed(self, server: int, now: int) -> None:
        if self.spec.breaker:
            self.breakers[server].on_failure(now)

    # -- hedging -----------------------------------------------------------

    def hedge_delay_ns(self) -> Optional[int]:
        """Outstanding time after which to hedge; None = not warmed up."""
        if not self.spec.hedge:
            return None
        if self.quantiles.total < HEDGE_WARMUP:
            return None
        q = self.quantiles.value()
        if q <= 0:
            return None
        return max(HEDGE_MIN_DELAY_NS, min(HEDGE_MAX_DELAY_NS, q))

    # -- audits ------------------------------------------------------------

    def illegal_breaker_transitions(self) -> list[str]:
        out = []
        for server, breaker in self.breakers.items():
            for t_ns, old, new in breaker.transitions:
                if (old, new) not in LEGAL_BREAKER_TRANSITIONS:
                    out.append(
                        f"server {server}: {old} -> {new} at {t_ns}ns"
                    )
        return out

    @property
    def breaker_opens(self) -> int:
        return sum(b.opens for b in self.breakers.values())

    @property
    def ejections(self) -> int:
        return self.ejector.ejections

"""Retransmission policy (paper §2.4).

Two recovery mechanisms:

* **NACK-driven**: the receiver reports persistent sequence gaps; the sender
  retransmits exactly the missing frames (selective repeat).
* **Coarse timeout**: if no positive-ack progress happens for
  ``COARSE_TIMEOUT_NS`` while frames are in flight, the sender retransmits
  the *last transmitted* frame — enough to provoke the receiver into
  re-sending its cumulative ack (covering the lost-ack case) or a NACK
  (covering lost data), exactly as described in the paper's corner-case
  handling.  Repeated timeouts back off exponentially up to a cap.

The :class:`RetransmitTimer` is policy + timer management; the connection
supplies the actual send hook.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..sim import Simulator, Timer

__all__ = ["BackoffPolicy", "RetransmitTimer"]


@dataclass
class BackoffPolicy:
    """Capped exponential backoff with seeded jitter.

    Shared by the handshake retries (SYN / FIN) and the crash-recovery
    reconnect loop: ``delay_ns(attempt)`` grows geometrically from
    ``base_ns`` up to ``cap_ns``, plus a uniform jitter fraction drawn
    from the supplied RNG so that concurrent retriers de-synchronise
    deterministically (the RNG is a named stream, so runs stay
    reproducible).
    """

    base_ns: int
    factor: int = 2
    cap_ns: int = 48_000_000
    jitter_frac: float = 0.1
    max_attempts: int = 10

    def __post_init__(self) -> None:
        if self.base_ns <= 0:
            raise ValueError("base_ns must be positive")
        if self.factor < 1:
            raise ValueError("factor must be >= 1")
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ValueError("jitter_frac must be in [0, 1)")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def delay_ns(self, attempt: int, rng: Optional[random.Random] = None) -> int:
        """Delay before retry number ``attempt`` (0-based)."""
        base = min(self.base_ns * self.factor**attempt, self.cap_ns)
        if rng is None or self.jitter_frac == 0.0:
            return base
        return base + int(base * self.jitter_frac * rng.random())

    def worst_case_total_ns(self) -> int:
        """Upper bound on the summed delay across all attempts.

        Used to derive the reconnect-latency bound checked by
        ``bench_crash``: detection bound + restart delay + this total.
        """
        total = 0
        for attempt in range(self.max_attempts):
            base = min(self.base_ns * self.factor**attempt, self.cap_ns)
            total += base + int(base * self.jitter_frac)
        return total


# A NACK is ignored for a frame (re)sent less than this long ago.
NACK_HOLDOFF_NS = 500_000

# The coarse timer: the first timeout, its backoff and cap, and the number
# of silent timeouts after which the connection is declared dead.
COARSE_TIMEOUT_NS = 3_000_000
BACKOFF_FACTOR = 2
MAX_TIMEOUT_NS = 48_000_000
MAX_RETRIES = 20


class RetransmitTimer:
    """Coarse-grain retransmission timer for one connection direction."""

    def __init__(
        self,
        sim: Simulator,
        on_timeout: Callable[[], None],
        on_dead: Optional[Callable[[], None]] = None,
    ) -> None:
        self.sim = sim
        self.on_timeout = on_timeout
        self.on_dead = on_dead
        self._timer = Timer(sim, None, self._fire)  # one, re-armed for life
        self._current_timeout = COARSE_TIMEOUT_NS
        self._consecutive = 0
        self.timeouts_fired = 0
        self.exhausted = False

    @property
    def armed(self) -> bool:
        return self._timer.active

    @property
    def consecutive_timeouts(self) -> int:
        """Silent timeouts since the last ack progress.

        The edge lifecycle control plane samples this as a passive health
        signal: coarse timeouts piling up mean *every* rail is failing to
        make progress, not just the probed one.
        """
        return self._consecutive

    def arm(self) -> None:
        """Start (or restart) the timer if not already running.

        A no-op once exhausted: after ``on_dead`` fires, the timer stays
        down until :meth:`on_progress` observes fresh ack progress — the
        connection is presumed dead and retransmitting into it would only
        re-trigger the death callback.
        """
        if self.exhausted:
            return
        timer = self._timer
        if not timer.active:
            timer.restart(self._current_timeout)

    def on_progress(self) -> None:
        """Positive ack progress: reset backoff and restart the clock."""
        self._consecutive = 0
        self._current_timeout = COARSE_TIMEOUT_NS
        self.exhausted = False
        self._timer.cancel()

    def cancel(self) -> None:
        self._timer.cancel()

    def _fire(self) -> None:
        self.timeouts_fired += 1
        self._consecutive += 1
        if self._consecutive > MAX_RETRIES:
            self.exhausted = True
            if self.on_dead is not None:
                self.on_dead()
            return
        self._current_timeout = min(
            self._current_timeout * BACKOFF_FACTOR, MAX_TIMEOUT_NS
        )
        self.on_timeout()

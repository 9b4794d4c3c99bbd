"""Physical link model.

A :class:`Link` is one *direction* of a cable.  The transmitting device owns
serialisation timing (it holds the line while clocking a frame out); the link
models what the cable itself contributes:

* propagation delay,
* bit errors (per-bit error rate; a corrupted frame is delivered with its
  ``corrupted`` flag set so the receiving NIC can drop it on CRC check),
* transient failures (scheduled outage windows during which frames are lost),
* strict FIFO delivery (Ethernet links never reorder).

:class:`Cable` bundles the two directions and attaches them to two devices.
Devices implement the tiny :class:`LinkEndpoint` protocol: a ``mac``
address and a ``deliver_fold`` that takes every delivery at its arrival
time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Protocol

from ..sim import RngRegistry, Simulator
from .frame import Frame

__all__ = ["LinkParams", "Link", "Cable", "LinkEndpoint"]


class LinkEndpoint(Protocol):
    """Anything a link can deliver frames to (a NIC or a switch port)."""

    mac: int

    def deliver_fold(self, frame: Frame, arrival: int) -> None:
        """Take ``frame``, whose last bit arrives at time ``arrival``."""


@dataclass
class LinkParams:
    """Cable characteristics."""

    speed_bps: float = 1e9
    propagation_ns: int = 500  # a few hundred ns of cable + PHY
    bit_error_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.speed_bps <= 0:
            raise ValueError("speed_bps must be positive")
        if self.propagation_ns < 0:
            raise ValueError("propagation_ns must be >= 0")
        if not 0.0 <= self.bit_error_rate < 1.0:
            raise ValueError("bit_error_rate must be in [0, 1)")


class Link:
    """One direction of a cable.

    ``deliver(frame)`` is called by the transmitting device at the moment the
    frame's last bit leaves the device; the link hands it to the receiver's
    ``deliver_fold`` with its arrival time after the propagation delay,
    enforcing FIFO arrival.
    """

    def __init__(
        self,
        sim: Simulator,
        params: LinkParams,
        rng: Optional[RngRegistry] = None,
        name: str = "link",
    ) -> None:
        self.sim = sim
        # ``params`` is what the wire does now: the LinkParams it was built
        # with (shared by the whole cluster) unless a bit-error fault holds
        # a private copy — see _changed().
        self.params = self._built = params
        self._ramp_params: Optional[LinkParams] = None
        self._gray_params: Optional[LinkParams] = None
        self.rng = rng or RngRegistry(0)
        self.name = name
        self.receiver: Optional[LinkEndpoint] = None
        self._last_arrival = 0
        self._failed_until = -1
        # Gray impairment (repro.control gray faults): None keeps deliver()
        # on the pristine path; when set, burst loss and latency jitter draw
        # from dedicated ``.graydrop`` / ``.grayjitter`` RNG streams that
        # are created lazily, so un-degraded runs never touch them.
        self._gray: Optional[_GrayImpairment] = None
        # Counters.
        self.frames_delivered = 0
        self.frames_corrupted = 0
        self.frames_lost_outage = 0
        self.frames_lost_gray = 0
        self.bytes_delivered = 0

    def attach_receiver(self, endpoint: LinkEndpoint) -> None:
        self.receiver = endpoint

    def fail_for(self, duration_ns: int) -> None:
        """Start a transient outage: frames sent before ``now + duration`` die."""
        self._failed_until = max(self._failed_until, self.sim.now + duration_ns)
        self._changed("link-outage")

    def fail_forever(self) -> None:
        """Permanent failure: every frame dies until :meth:`repair`."""
        self._failed_until = 1 << 62
        self._changed("link-outage")

    def repair(self) -> None:
        """Cable replaced / port re-enabled: end any outage now and drop
        the bit-error override.  A gray degradation runs to its own end."""
        self._failed_until = -1
        self._ramp_params = None
        self._changed("link-repair")

    def set_bit_error_rate(self, rate: float) -> None:
        """Override the built-in bit-error rate until :meth:`repair`."""
        self._ramp_params = replace(self._built, bit_error_rate=rate)
        self._changed("link-bit-errors")

    def degrade(
        self, bit_error_rate: float = 0.0, jitter_ns: int = 0,
        drop_p: float = 0.0, burst_len: float = 4.0,
    ) -> None:
        """Enter gray-degraded mode: bit errors, burst loss, latency jitter.

        A non-zero ``bit_error_rate`` holds while the degradation lasts;
        ``drop_p`` is the long-run loss fraction of a two-state Gilbert
        model with mean burst length ``burst_len``; ``jitter_ns`` adds a
        uniform ``[0, jitter_ns)`` delay per frame.  Replaces any prior
        degradation on this link.
        """
        self._gray = _GrayImpairment(jitter_ns, drop_p, burst_len)
        self._gray_params = (
            replace(self._built, bit_error_rate=bit_error_rate)
            if bit_error_rate > 0.0 else None
        )
        self._changed("link-degrade")

    def clear_degraded(self) -> None:
        """Leave gray-degraded mode (no-op when not degraded)."""
        if self._gray is not None:
            self._gray = self._gray_params = None
            self._changed("link-degrade-clear")

    @property
    def impairment(self) -> Optional[str]:
        """What other than a clean wire is in effect now (None: nothing) —
        the level question :mod:`repro.fastpath` asks before it arms."""
        if self.sim.now < self._failed_until:
            return "link-down"
        if self._gray is not None:
            return "link-degraded"
        if self.params.bit_error_rate > 0.0:
            return "lossy-link"
        return None

    def _changed(self, reason: str) -> None:
        # Every mutator ends here.  Two bit-error sources, never merged: the
        # degradation's rate while it lasts, else the override's, else what
        # the link was built with.  Then ECMP pick caches are invalidated
        # and the fast-path guard is told.
        self.params = self._gray_params or self._ramp_params or self._built
        self.sim.link_epoch += 1
        guard = self.sim.fastpath_guard
        if guard is not None:
            guard.bump(reason)

    @property
    def failed(self) -> bool:
        return self.sim.now < self._failed_until

    def deliver(self, frame: Frame) -> None:
        """Accept a fully serialised frame and deliver it after propagation."""
        if self.receiver is None:
            raise RuntimeError(f"{self.name}: no receiver attached")
        if self.sim.now < self._failed_until:
            self.frames_lost_outage += 1
            return
        gray = self._gray
        if gray is not None and gray.drop_p > 0.0 and gray.drops_frame(self):
            self.frames_lost_gray += 1
            return
        if self.params.bit_error_rate > 0.0:
            p_corrupt = 1.0 - (1.0 - self.params.bit_error_rate) ** (
                frame.wire_bytes * 8
            )
            if self.rng.bernoulli(f"{self.name}.ber", p_corrupt):
                frame.corrupted = True
                self.frames_corrupted += 1
        arrival = self.sim.now + self.params.propagation_ns
        if gray is not None and gray.jitter_ns > 0:
            arrival += int(
                self.rng.stream(f"{self.name}.grayjitter").integers(
                    0, gray.jitter_ns
                )
            )
        # FIFO: a link can never reorder.  (Guards against misuse where a
        # device forgets serialisation ordering.)
        if arrival < self._last_arrival:
            arrival = self._last_arrival
        self._last_arrival = arrival
        self.frames_delivered += 1
        self.bytes_delivered += frame.wire_bytes
        self.receiver.deliver_fold(frame, arrival)


class _GrayImpairment:
    """Per-link gray-degradation state (two-state Gilbert burst loss).

    In the good state each frame enters a loss burst with probability
    ``p_enter``; in the bad state each frame is dropped and the burst
    ends with probability ``1 / burst_len``.  ``p_enter`` is solved so
    the stationary loss fraction equals ``drop_p``.
    """

    __slots__ = ("jitter_ns", "drop_p", "burst_len", "p_enter", "in_burst")

    def __init__(self, jitter_ns: int, drop_p: float, burst_len: float) -> None:
        self.jitter_ns = jitter_ns
        self.drop_p = drop_p
        self.burst_len = max(1.0, burst_len)
        # Stationary bad-state probability drop_p with mean burst length L
        # needs p_enter = drop_p / (L * (1 - drop_p)).
        self.p_enter = (
            drop_p / (self.burst_len * (1.0 - drop_p)) if drop_p > 0 else 0.0
        )
        self.in_burst = False

    def drops_frame(self, link: "Link") -> bool:
        stream_name = f"{link.name}.graydrop"
        if self.in_burst:
            if link.rng.bernoulli(stream_name, 1.0 / self.burst_len):
                self.in_burst = False
            return True
        if link.rng.bernoulli(stream_name, min(1.0, self.p_enter)):
            self.in_burst = True
            return True
        return False


class Cable:
    """A full-duplex cable between two endpoints.

    After construction, ``cable.link_from(a)`` is the direction whose
    transmitter is ``a``.  Devices normally keep the reference handed to them
    by the topology builder instead of calling this.
    """

    def __init__(
        self,
        sim: Simulator,
        a: LinkEndpoint,
        b: LinkEndpoint,
        params: LinkParams,
        rng: Optional[RngRegistry] = None,
        name: str = "cable",
    ) -> None:
        self.a = a
        self.b = b
        self.ab = Link(sim, params, rng, name=f"{name}.ab")
        self.ba = Link(sim, params, rng, name=f"{name}.ba")
        self.ab.attach_receiver(b)
        self.ba.attach_receiver(a)

    def link_from(self, endpoint: LinkEndpoint) -> Link:
        if endpoint is self.a:
            return self.ab
        if endpoint is self.b:
            return self.ba
        raise ValueError("endpoint is not attached to this cable")

    def fail_for(self, duration_ns: int) -> None:
        """Fail both directions (transient cable outage)."""
        self.ab.fail_for(duration_ns)
        self.ba.fail_for(duration_ns)

    def fail_forever(self) -> None:
        """Fail both directions permanently (until :meth:`repair`)."""
        self.ab.fail_forever()
        self.ba.fail_forever()

    def repair(self) -> None:
        """Repair both directions."""
        self.ab.repair()
        self.ba.repair()

    def set_bit_error_rate(self, rate: float) -> None:
        """Override the bit-error rate of both directions (until repair)."""
        self.ab.set_bit_error_rate(rate)
        self.ba.set_bit_error_rate(rate)

    def degrade(self, *impairment) -> None:
        """Gray-degrade both directions (arguments of :meth:`Link.degrade`)."""
        self.ab.degrade(*impairment)
        self.ba.degrade(*impairment)

    def clear_degraded(self) -> None:
        """End the gray degradation of both directions."""
        self.ab.clear_degraded()
        self.ba.clear_degraded()

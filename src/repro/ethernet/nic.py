"""Network interface controller model.

The NIC sits between the host protocol layer and a link.  It models the
behaviour that shapes the paper's results:

* bounded TX/RX descriptor rings (back-pressure and overflow drops),
* per-frame DMA latency,
* hardware interrupt coalescing (an interrupt fires after
  ``coalesce_frames`` arrivals or ``coalesce_timeout_ns``, whichever first),
* a host-controlled interrupt-enable flag, used by the MultiEdge polling
  scheme (paper §2.6),
* optionally *unmaskable* send-completion interrupts — the paper reports the
  Myricom 10-GbE NIC "does not allow us to disable the interrupts on the
  send path", which is part of why one-way tops out at ~88 % of line rate,
* a small uniform TX scheduling jitter, which is what makes two independent
  1-GbE rails deliver 45–50 % of frames out of order under round-robin
  striping.

The protocol layer talks to the NIC through :meth:`transmit`, :meth:`poll`,
and the ``interrupts_enabled`` flag; the NIC calls the driver's ``on_irq``
when an interrupt fires.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from ..sim import RngRegistry, Simulator, Timer
from .frame import ETH_MTU, ETH_OVERHEAD_BYTES, Frame, wire_time_ns
from .link import Link

__all__ = ["NicParams", "Nic", "NicCounters"]

# Slack required before an RX admission decision may be taken at link-deliver
# time instead of arrival time (see Nic.deliver_fold).  Far larger than the
# number of frames one propagation window can add to the ring.
_RX_FOLD_MARGIN = 64


@dataclass
class NicParams:
    """Hardware characteristics of a NIC."""

    speed_bps: float = 1e9
    tx_ring_frames: int = 256
    rx_ring_frames: int = 256
    dma_ns: int = 600  # per-frame DMA engine latency
    tx_jitter_ns: int = 800  # uniform [0, jitter) scheduling noise per frame
    coalesce_frames: int = 8  # RX interrupt after this many frames ...
    coalesce_timeout_ns: int = 5_000  # ... or this much time, whichever first
    tx_completion_batch: int = 8  # completions per send-side interrupt
    unmaskable_tx_irq: bool = False  # Myricom 10-GbE behaviour

    def __post_init__(self) -> None:
        if self.speed_bps <= 0:
            raise ValueError("speed_bps must be positive")
        if self.tx_ring_frames < 1 or self.rx_ring_frames < 1:
            raise ValueError("ring sizes must be >= 1")
        if self.coalesce_frames < 1:
            raise ValueError("coalesce_frames must be >= 1")


@dataclass(slots=True)
class NicCounters:
    """Observable NIC statistics."""

    tx_frames: int = 0
    tx_bytes: int = 0
    rx_frames: int = 0
    rx_dropped_ring_full: int = 0
    rx_dropped_crc: int = 0
    # Frames that arrived while the NIC was powered off (node crashed).
    rx_dropped_powered_off: int = 0
    irqs_raised: int = 0
    tx_irqs_raised: int = 0
    # Nanoseconds frames spent waiting on the pacing token bucket.
    pacing_stall_ns: int = 0


class Nic:
    """A simulated Ethernet NIC attached to one link."""

    def __init__(
        self,
        sim: Simulator,
        params: NicParams,
        mac: int,
        rng: Optional[RngRegistry] = None,
        name: str = "nic",
    ) -> None:
        self.sim = sim
        self.params = params
        self.mac = mac
        self.rng = rng or RngRegistry(0)
        self.name = name
        self.counters = NicCounters()
        # Pre-bound jitter stream: streams are seeded by name, not creation
        # order, so binding early draws the identical sequence.  Draws are
        # buffered in batches — numpy's bounded-integer sampling consumes
        # the bit stream element-for-element identically in batch and
        # single-draw form, so the sequence is unchanged.
        self._txjitter = self.rng.stream(f"{name}.txjitter")
        self._jitter_buf: list[int] = []
        self._jitter_bound = 0
        # Serialisation times memoised per wire size (speed is fixed).
        self._wt_cache: dict[int, int] = {}

        self.tx_link: Optional[Link] = None
        # Driver hooks: on_irq runs in "hardware interrupt" context.
        self.on_irq: Optional[Callable[["Nic"], None]] = None
        self.interrupts_enabled = True
        # Optional token-bucket pacer (repro.congestion.pacing.TokenBucket);
        # None (the default) keeps the transmit path byte-identical to the
        # unpaced NIC.  Installed via set_pacing_rate().
        self.pacer = None
        # Gray-fault TX drain throttle (repro.control.SlowNic): serialisation
        # time is multiplied by this; 1.0 keeps the pristine path.
        self.gray_tx_throttle = 1.0

        # Power state (whole-node crash model).  The epoch invalidates
        # in-flight DMA/serialisation callbacks scheduled before a crash:
        # sim.at entries cannot be cancelled, so each carries the epoch it
        # was scheduled under and no-ops if the NIC power-cycled since.
        self.powered = True
        self._power_epoch = 0

        self._tx_ring_used = 0
        self._line_free_at = 0

        # Host-visible pending events.
        self._rx_pending: Deque[Frame] = deque()
        self._rx_inflight = 0  # admitted frames still in the DMA window
        self._tx_completions = 0

        # RX coalescing state.
        self._rx_since_irq = 0
        # One timer object for the life of the NIC, re-armed.
        self._coalesce_timer = Timer(sim, None, self._coalesce_expired)
        # TX completion interrupt state.
        self._tx_since_irq = 0

    # -- wiring ----------------------------------------------------------

    def attach_link(self, link: Link) -> None:
        """Set the outgoing link (the incoming one calls :meth:`deliver_fold`)."""
        self.tx_link = link

    def set_pacing_rate(
        self, rate_bps: Optional[float], burst_bytes: Optional[int] = None
    ) -> None:
        """Install, retune, or remove (``rate_bps=None``) the TX pacer.

        Rates above line rate are clamped: pacing spaces frames *below*
        what serialisation would enforce anyway, never above it.
        """
        if rate_bps is None:
            self.pacer = None
            return
        if rate_bps > self.params.speed_bps:
            rate_bps = self.params.speed_bps
        if burst_bytes is None:
            burst_bytes = 8 * (ETH_MTU + ETH_OVERHEAD_BYTES)
        if self.pacer is None:
            from ..congestion.pacing import TokenBucket

            self.pacer = TokenBucket(rate_bps, burst_bytes)
        else:
            self.pacer.set_rate(rate_bps, burst_bytes)

    def set_tx_throttle(self, factor: float) -> None:
        """Stretch (or restore, ``factor=1.0``) TX serialisation time.

        Models a gray NIC that drains its ring slowly — the backlog
        builds and RTTs inflate with zero losses.  A throttle change is
        a timing discontinuity for the flow-level fast path.
        """
        if factor < 1.0:
            raise ValueError("throttle factor must be >= 1")
        if factor == self.gray_tx_throttle:
            return
        self.gray_tx_throttle = factor
        guard = self.sim.fastpath_guard
        if guard is not None:
            guard.bump("nic-tx-throttle")

    @property
    def impairment(self) -> Optional[str]:
        """What keeps this NIC from full speed now (see ``Link.impairment``)."""
        return "nic-throttled" if self.gray_tx_throttle != 1.0 else None

    # -- transmit path ---------------------------------------------------

    @property
    def tx_ring_free(self) -> int:
        return self.params.tx_ring_frames - self._tx_ring_used

    @property
    def tx_backlog_fraction(self) -> float:
        """TX ring occupancy in [0, 1] (health-monitor backlog signal)."""
        return self._tx_ring_used / self.params.tx_ring_frames

    def transmit(self, frame: Frame) -> bool:
        """Queue a frame for transmission; False if the TX ring is full.

        The TX path pipelines DMA with serialisation: per-frame DMA latency
        (plus scheduling jitter) delays a frame only while the line is idle
        (pipeline fill); under back-to-back load the line runs at full rate.
        """
        if not self.powered:
            return False
        if self._tx_ring_used >= self.params.tx_ring_frames:
            return False
        # Every transmission is an independent physical frame (senders build
        # a fresh Frame, retransmissions via Frame.wire_copy); stamp its
        # instance id here, at the moment it becomes a wire object.
        frame.uid = self.sim.next_frame_uid()
        self._tx_ring_used += 1
        params = self.params
        ready_at = self.sim.now + params.dma_ns
        jitter = params.tx_jitter_ns
        if jitter > 0:
            buf = self._jitter_buf
            if not buf or jitter != self._jitter_bound:
                # Refill; stored reversed so pop() yields draw order.
                buf = self._txjitter.integers(0, jitter, size=512).tolist()
                buf.reverse()
                self._jitter_buf = buf
                self._jitter_bound = jitter
            ready_at += buf.pop()
        wb = frame.wire_bytes
        pacer = self.pacer
        if pacer is not None:
            depart = pacer.reserve(wb, ready_at)
            if depart > ready_at:
                self.counters.pacing_stall_ns += depart - ready_at
                ready_at = depart
        begin = ready_at if ready_at > self._line_free_at else self._line_free_at
        tx_time = self._wt_cache.get(wb)
        if tx_time is None:
            tx_time = wire_time_ns(wb, params.speed_bps)
            self._wt_cache[wb] = tx_time
        if self.gray_tx_throttle != 1.0:
            tx_time = int(tx_time * self.gray_tx_throttle)
        self._line_free_at = begin + tx_time
        self.sim.at(self._line_free_at, self._tx_done, frame, self._power_epoch)
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.on_nic_tx(self, frame)
        return True

    def _tx_done(self, frame: Frame, epoch: int = 0) -> None:
        if epoch != self._power_epoch:
            return  # scheduled before a crash: the frame died in the NIC
        if self.tx_link is None:
            raise RuntimeError(f"{self.name}: transmit with no link attached")
        self.tx_link.deliver(frame)
        self._tx_ring_used -= 1
        counters = self.counters
        counters.tx_frames += 1
        counters.tx_bytes += frame.wire_bytes
        tracer = self.sim.tracer
        if tracer is not None and (tracer.everything or "frame.tx" in tracer.enabled):
            h = frame.header
            tracer.record(
                "frame.tx",
                {"nic": self.name, "type": int(h.frame_type), "seq": h.seq,
                 "bytes": frame.wire_bytes},
            )
        self._tx_completions += 1
        self._tx_since_irq += 1
        if self._tx_since_irq >= self.params.tx_completion_batch:
            self._tx_since_irq = 0
            if self.params.unmaskable_tx_irq:
                # Fires regardless of the interrupt-enable flag.
                self._raise_irq(tx=True)
            elif self.interrupts_enabled:
                self._raise_irq(tx=True)
        # TX queue drained with completions still unharvested: raise the
        # queue-empty interrupt so the host reclaims descriptors promptly.
        if (
            self._tx_ring_used == 0
            and self._tx_completions > 0
            and self._tx_since_irq > 0
            and (self.interrupts_enabled or self.params.unmaskable_tx_irq)
        ):
            self._tx_since_irq = 0
            self._raise_irq(tx=True)

    # -- receive path ----------------------------------------------------

    def on_frame(self, frame: Frame) -> None:
        """Link delivery callback: last bit of ``frame`` has arrived."""
        if not self.powered:
            self.counters.rx_dropped_powered_off += 1
            return
        if frame.corrupted:
            self.counters.rx_dropped_crc += 1
            return
        if len(self._rx_pending) >= self.params.rx_ring_frames:
            self.counters.rx_dropped_ring_full += 1
            return
        # DMA the frame into host memory, then make it host-visible.
        self._rx_inflight += 1
        self.sim.schedule(self.params.dma_ns, self._rx_visible, frame,
                          self._power_epoch)

    def deliver_fold(self, frame: Frame, arrival: int) -> None:
        """Link delivery: fold arrival + RX admission into one scheduled
        event where that is exact, else schedule :meth:`on_frame` at
        ``arrival``.

        The fold is only taken when the RX ring is far from full: the ring
        can gain at most a handful of frames during one propagation window,
        so with ``_RX_FOLD_MARGIN`` slack the arrival-time admission check
        is guaranteed to pass and deciding it early is timing-identical.
        Powered-off NICs, corrupted frames and near-full rings use the
        exact two-step path, where :meth:`on_frame` counts any drop.
        """
        if (
            not self.powered
            or frame.corrupted
            or len(self._rx_pending) + self._rx_inflight + _RX_FOLD_MARGIN
            >= self.params.rx_ring_frames
        ):
            self.sim.at(arrival, self.on_frame, frame)
            return
        self._rx_inflight += 1
        self.sim.at(arrival + self.params.dma_ns, self._rx_visible, frame,
                    self._power_epoch)

    def _rx_visible(self, frame: Frame, epoch: int = 0) -> None:
        if epoch != self._power_epoch:
            return  # DMA'd into a ring that no longer exists
        self._rx_inflight -= 1
        self._rx_pending.append(frame)
        self.counters.rx_frames += 1
        self._rx_since_irq += 1
        tracer = self.sim.tracer
        if tracer is not None and (tracer.everything or "frame.rx" in tracer.enabled):
            h = frame.header
            tracer.record(
                "frame.rx",
                {"nic": self.name, "type": int(h.frame_type), "seq": h.seq,
                 "bytes": frame.wire_bytes},
            )
        if not self.interrupts_enabled:
            return
        if self._rx_since_irq >= self.params.coalesce_frames:
            self._fire_rx_irq()
        elif not self._coalesce_timer.active:
            self._coalesce_timer.restart(self.params.coalesce_timeout_ns)

    def _coalesce_expired(self) -> None:
        if self._rx_since_irq > 0 and self.interrupts_enabled:
            self._fire_rx_irq()

    def _fire_rx_irq(self) -> None:
        self._rx_since_irq = 0
        self._coalesce_timer.cancel()
        self._raise_irq(tx=False)

    def _raise_irq(self, tx: bool) -> None:
        self.counters.irqs_raised += 1
        if tx:
            self.counters.tx_irqs_raised += 1
        if self.on_irq is not None:
            self.on_irq(self)

    # -- power (whole-node crash model) -----------------------------------

    def power_off(self) -> None:
        """Crash: drop every frame in the TX/RX rings and DMA windows.

        Bumping the power epoch orphans every already-scheduled
        ``_tx_done`` / ``_rx_visible`` callback (``sim.at`` entries cannot
        be cancelled), so in-flight frames silently vanish — exactly what
        losing NIC ring memory means.  Idempotent.
        """
        if not self.powered:
            return
        guard = self.sim.fastpath_guard
        if guard is not None:
            guard.bump("nic-power-off")
        self.powered = False
        self._power_epoch += 1
        self._rx_pending.clear()
        self._tx_ring_used = 0
        self._rx_inflight = 0
        self._tx_completions = 0
        self._rx_since_irq = 0
        self._tx_since_irq = 0
        self._line_free_at = 0
        self._coalesce_timer.cancel()
        self.pacer = None

    def power_on(self) -> None:
        """Restart: rings were already cleared at power-off."""
        if self.powered:
            return
        guard = self.sim.fastpath_guard
        if guard is not None:
            guard.bump("nic-power-on")
        self.powered = True
        self.interrupts_enabled = True

    # -- host interface ---------------------------------------------------

    def disable_interrupts(self) -> None:
        self.interrupts_enabled = False

    def enable_interrupts(self) -> None:
        """Re-enable interrupts; pending events re-arm coalescing."""
        self.interrupts_enabled = True
        if self._rx_since_irq >= self.params.coalesce_frames or (
            self._rx_since_irq > 0 and self._rx_pending
        ):
            # Events arrived while polling was active but before the host
            # went idle; fire promptly rather than waiting a full timeout.
            self._fire_rx_irq()

    def poll(self, max_frames: Optional[int] = None) -> tuple[list[Frame], int]:
        """Harvest pending RX frames and TX completions (host polling)."""
        pending = self._rx_pending
        if max_frames is None or max_frames >= len(pending):
            frames = list(pending)
            pending.clear()
        else:
            frames = [pending.popleft() for _ in range(max_frames)]
        completions = self._tx_completions
        self._tx_completions = 0
        if not self._rx_pending:
            self._rx_since_irq = 0
        return frames, completions

"""Closed-form service model of one connection direction.

:class:`PathModel` captures the arrival/service-curve parameters of the
edge set between a sender and a receiver — per-rail link rates, switch
forwarding latency and egress serialisation, NIC DMA latencies and the
mean TX scheduling jitter and interrupt-coalescing behaviour, plus the
host costs of :mod:`repro.host.params` — so the forwarder can advance a flow
frame-by-frame with pure arithmetic instead of scheduler events.

The model is deliberately a *mean-value* model: TX jitter enters as its
expectation (``tx_jitter_ns // 2``) and interrupt coalescing as a fixed
batch factor, because consuming the NIC's jitter RNG stream from the
fast path would perturb every later frame-level draw and break the
fingerprint-parity guarantee on runs where fast-forward never arms.
The residual timing error is a per-jump constant (interrupt latency,
ack return path), bounded well under 1 % of any window long enough for
the detector to arm.
"""

from __future__ import annotations

from ..ethernet.frame import frame_sizes, max_payload_per_frame, wire_time_ns
from ..host.params import (
    INTERRUPT_NS,
    KTHREAD_WAKEUP_NS,
    PER_FRAME_RECV_NS,
    PER_FRAME_SEND_NS,
    memcpy_ns,
)

__all__ = ["PathModel"]


class PathModel:
    """Service parameters for one directed connection (sender view)."""

    def __init__(self, conn, peer, cluster) -> None:
        self.rails = len(conn.nics)
        link = cluster.config.link
        self.prop_ns = link.propagation_ns
        self.fwd_ns = cluster.config.switch.forwarding_latency_ns
        sender_nic = conn.nics[0]
        recv_nic = peer.nics[0]
        self.speed_bps = min(link.speed_bps, sender_nic.params.speed_bps)
        self.tx_dma_ns = sender_nic.params.dma_ns
        # Expected value of the uniform [0, jitter) scheduling noise.
        self.jitter_mean_ns = sender_nic.params.tx_jitter_ns // 2
        self.rx_dma_ns = recv_nic.params.dma_ns

        # Interrupt coalescing on the receive side: frames per IRQ is the
        # count threshold when full-rate arrivals reach it before the
        # coalesce timer, else whatever the timer window holds.
        _, full_wire = frame_sizes(max_payload_per_frame())
        self._wt_cache: dict[int, int] = {}
        full_wt = self.wire_ns(full_wire)
        interarrival = max(1, full_wt // self.rails)
        cf = recv_nic.params.coalesce_frames
        ct = recv_nic.params.coalesce_timeout_ns
        if (cf - 1) * interarrival <= ct:
            self.rx_batch = cf
        else:
            self.rx_batch = ct // interarrival + 1
        # Pipeline-fill latency for a frame that has to wait out the
        # coalesce timer.
        self.irq_latency_ns = ct + INTERRUPT_NS + KTHREAD_WAKEUP_NS
        # Per-frame amortised IRQ handling cost, bounded by the receive
        # kthread's idle slack: if processing a full frame leaves less
        # slack than the IRQ chain costs, the kthread cannot afford to
        # sleep between batches — it keeps polling (interrupts stay
        # masked), so the flow pays at most the slack, not the chain.
        # 1 GbE: slack >> chain, interrupt-driven per coalesce batch.
        # 10 GbE: slack ~ 7%% of the chain, effectively polling.
        chain = INTERRUPT_NS + KTHREAD_WAKEUP_NS
        cost_full = PER_FRAME_RECV_NS + memcpy_ns(max_payload_per_frame())
        slack = max(0, interarrival - cost_full)
        per_batch_amort = chain // self.rx_batch
        self.irq_amortized_ns = min(per_batch_amort, slack)
        # Effective frames per raised IRQ (counter synthesis): the coalesce
        # batch when interrupt-driven, the polling stretch one IRQ opens
        # when the kthread saturates.
        if self.irq_amortized_ns >= per_batch_amort:
            self.frames_per_irq = self.rx_batch
        else:
            self.frames_per_irq = max(self.rx_batch, chain // max(1, slack))

        # Sender-side CPU occupancy beyond the pump itself.  NICs whose
        # send-completion interrupts cannot be masked (the Myricom 10-GbE
        # quirk) charge the IRQ handler on the protocol CPU every
        # ``tx_completion_batch`` frames even while the kthread is busy
        # polling; maskable NICs keep interrupts disabled for the whole
        # stream and pay nothing per frame.  Returning explicit acks
        # occupy the same CPU for one receive-processing quantum each.
        self.tx_completion_batch = sender_nic.params.tx_completion_batch
        self.unmaskable_tx_irq = sender_nic.params.unmaskable_tx_irq
        if self.unmaskable_tx_irq:
            self.tx_irq_amortized_ns = INTERRUPT_NS // self.tx_completion_batch
        else:
            self.tx_irq_amortized_ns = 0
        ack_every = peer.ack_policy.params.ack_every_frames
        self.ack_rx_amortized_ns = PER_FRAME_RECV_NS // ack_every
        self.tx_busy_ns = (
            PER_FRAME_SEND_NS
            + self.tx_irq_amortized_ns
            + self.ack_rx_amortized_ns
        )

        # Return path of one explicit ack (84 wire bytes): serialisation +
        # two propagation hops + forwarding + DMA + the sender-side
        # interrupt/kthread/receive processing chain.
        _, ack_wire = frame_sizes(0)
        self.ack_wire_bytes = ack_wire
        self.ack_return_ns = (
            self.wire_ns(ack_wire) * 2
            + 2 * self.prop_ns
            + self.fwd_ns
            + sender_nic.params.dma_ns
            + sender_nic.params.coalesce_timeout_ns
            + INTERRUPT_NS
            + KTHREAD_WAKEUP_NS
            + PER_FRAME_RECV_NS
        )

    def wire_ns(self, wire_bytes: int) -> int:
        t = self._wt_cache.get(wire_bytes)
        if t is None:
            t = wire_time_ns(wire_bytes, self.speed_bps)
            self._wt_cache[wire_bytes] = t
        return t

"""Calibrated host costs and the testbed's two NIC models.

The costs model the paper's testbed nodes: dual Opteron 244 (1.8 GHz),
Tyan S2892, Linux 2.6.12.  They were calibrated so that the micro-benchmark
endpoints reported in the paper's §4 come out of the simulation:

* ``PER_FRAME_SEND_NS`` + the user→kernel copy bound the 10-GbE one-way
  sender at ≈1100 MB/s (the paper's "higher-than-expected overhead on the
  sender side"),
* ``INTERRUPT_NS`` + ``KTHREAD_WAKEUP_NS`` + NIC coalescing produce the
  ≈30 µs minimum ping-pong latency and the ping-pong throughput penalty
  (≈710 MB/s on 10 GbE, receiver interrupt-driven instead of polling),
* ``SYSCALL_NS`` + operation bookkeeping give the ≈2 µs host overhead to
  initiate an operation.

Every node of every cluster runs these costs; they are module constants,
not a per-node setting (DESIGN.md, "Configuration").
"""

from __future__ import annotations

from dataclasses import replace

from ..ethernet import NicParams

__all__ = ["memcpy_ns", "tigon3_params", "myri10g_params"]

CPUS = 2
# Syscall entry/exit plus operation setup in the protocol layer.
SYSCALL_NS = 700
# Host overhead to initiate an RDMA operation from user level (the
# user-library part; the paper reports ~2 us total with syscall).
OP_ISSUE_NS = 800
# Hardware interrupt handler: register reads, masking, kthread signal.
INTERRUPT_NS = 2_500
# Waking the protocol kernel thread (schedule latency + context switch).
KTHREAD_WAKEUP_NS = 5_500
CONTEXT_SWITCH_NS = 1_500
# Protocol processing per frame, excluding copies.
PER_FRAME_SEND_NS = 700
PER_FRAME_RECV_NS = 650
# memcpy model: fixed overhead plus per-byte time (~3.2 GB/s streams).
MEMCPY_BASE_NS = 60
MEMCPY_NS_PER_KB = 305  # 1024 B / 3.2 GB/s ≈ 305 ns


def memcpy_ns(nbytes: int) -> int:
    """Cost of copying ``nbytes`` between user and kernel space."""
    if nbytes <= 0:
        return 0
    return MEMCPY_BASE_NS + (nbytes * MEMCPY_NS_PER_KB) // 1024


def tigon3_params(**overrides) -> NicParams:
    """Broadcom Tigon 3 (BCM57xx) 1-GbE NIC model."""
    params = NicParams(
        speed_bps=1e9,
        tx_ring_frames=512,
        rx_ring_frames=512,
        dma_ns=600,
        tx_jitter_ns=800,
        coalesce_frames=8,
        coalesce_timeout_ns=18_000,
        tx_completion_batch=16,
        unmaskable_tx_irq=False,
    )
    return replace(params, **overrides)


def myri10g_params(**overrides) -> NicParams:
    """Myricom 10G-PCIE-8A-C 10-GbE NIC model.

    The send-completion interrupts on this NIC could not be disabled in the
    paper's driver, hence ``unmaskable_tx_irq=True``.
    """
    params = NicParams(
        speed_bps=10e9,
        tx_ring_frames=512,
        rx_ring_frames=512,
        dma_ns=500,
        tx_jitter_ns=400,
        coalesce_frames=8,
        coalesce_timeout_ns=12_000,
        # Send-completion interrupts cannot be masked and fire every few
        # frames: this is the paper's "higher-than-expected overhead on the
        # sender side" that caps one-way at ~88 % of the 10-GbE line rate.
        tx_completion_batch=4,
        unmaskable_tx_irq=True,
    )
    return replace(params, **overrides)

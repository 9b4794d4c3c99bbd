"""Kernel model: interrupt dispatch and the protocol kernel thread.

This implements the paper's §2.3/§2.6 receive-path structure:

1. the NIC raises an interrupt; the low-level handler masks further
   interrupts on that NIC, does a small fixed amount of work, and signals
   the protocol layer (opens the work gate);
2. a dedicated *protocol kernel thread* (pinned to the second CPU — the
   paper dedicates one CPU to protocol processing) wakes up and polls every
   NIC, draining received frames and TX completions through the registered
   driver client;
3. interrupts are re-enabled only once no pending events remain and the
   kernel thread is about to sleep, which coalesces interrupts down to the
   1-per-several-frames factors the paper reports.

The *driver client* is the MultiEdge protocol layer; it exposes generator
methods so every piece of protocol work is charged to a CPU.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Protocol, Sequence

from ..ethernet import Frame, Nic
from ..sim import Gate, Simulator
from .cpu import Cpu
from .params import INTERRUPT_NS, KTHREAD_WAKEUP_NS

__all__ = ["DriverClient", "Kernel"]

# Frames harvested per poll call; bounds kthread batch latency.
POLL_BATCH = 64


class DriverClient(Protocol):
    """Interface the protocol layer presents to the kernel."""

    def handle_frame(self, frame: Frame, cpu: Cpu) -> Generator[Any, Any, None]:
        """Process one received frame, charging CPU time as needed."""

    def handle_tx_completions(
        self, nic: Nic, count: int, cpu: Cpu
    ) -> Generator[Any, Any, None]:
        """Process ``count`` freed TX descriptors on ``nic``."""


class Kernel:
    """Per-node interrupt dispatch plus the protocol kernel thread."""

    def __init__(
        self,
        sim: Simulator,
        cpus: Sequence[Cpu],
        nics: Sequence[Nic],
        name: str = "kernel",
    ) -> None:
        self.sim = sim
        self.cpus = list(cpus)
        self.nics = list(nics)
        self.name = name
        self.client: Optional[DriverClient] = None

        # The protocol thread runs on the last CPU (the dedicated one).
        self.protocol_cpu = self.cpus[-1]
        self._work = Gate(sim)
        self.kthread_active = False

        # Statistics.
        self.irqs_handled = 0
        self.kthread_wakeups = 0

        for nic in self.nics:
            nic.on_irq = self._on_irq
        sim.process(self._kthread(), name=f"{name}.kthread")

    def attach_client(self, client: DriverClient) -> None:
        self.client = client

    # -- interrupt path ----------------------------------------------------

    # The low-level handler is plain callbacks, not a process per interrupt:
    # one zero-delay hop after the NIC raised it, a callback hold on the
    # protocol CPU (queued behind the kthread when it has the CPU) that
    # opens the work gate when it is over.

    def _on_irq(self, nic: Nic) -> None:
        # Hardware masking is immediate; the handler cost is charged async.
        nic.disable_interrupts()
        self.irqs_handled += 1
        self.sim.schedule(0, self._irq_enter)

    def _irq_enter(self) -> None:
        self.protocol_cpu.hold(INTERRUPT_NS, "interrupt", self._work.open)

    # -- protocol kernel thread ---------------------------------------------

    def _kthread(self) -> Generator[Any, Any, None]:
        cpu = self.protocol_cpu
        work = self._work
        while True:
            if not work.is_open:
                yield work
            work.close()
            self.kthread_active = True
            self.kthread_wakeups += 1
            yield cpu.hold(KTHREAD_WAKEUP_NS, "protocol.wakeup")
            nics = self.nics
            client = self.client
            while True:
                did_work = False
                for nic in nics:
                    nic.interrupts_enabled = False
                    frames, completions = nic.poll(POLL_BATCH)
                    if completions and client is not None:
                        yield from client.handle_tx_completions(
                            nic, completions, cpu
                        )
                        did_work = True
                    if frames and client is not None:
                        for frame in frames:
                            yield from client.handle_frame(frame, cpu)
                        did_work = True
                if not did_work:
                    break
            self.kthread_active = False
            for nic in self.nics:
                nic.enable_interrupts()

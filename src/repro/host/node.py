"""Node assembly: CPUs + memory + NICs + kernel.

A :class:`Node` is one cluster machine.  The paper's nodes have two CPUs and
run the application on one while dedicating the other to protocol
processing; the node exposes :attr:`app_cpu` and leaves the last CPU to the
kernel's protocol thread.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..ethernet import Nic, NicParams, mac_address
from ..sim import RngRegistry, Simulator
from .cpu import Cpu, CpuAccounting
from .kernel import Kernel
from .memory import VirtualMemory
from .params import CPUS, PER_FRAME_SEND_NS

__all__ = ["Node"]


class Node:
    """One simulated cluster node."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        nic_params: Optional[Sequence[NicParams]] = None,
        rng: Optional[RngRegistry] = None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.rng = rng or RngRegistry(0)
        self.name = name or f"node{node_id}"

        # Gray-fault CPU slowdown, set by set_slowdown().  A factor of
        # 1.0 / extra of 0 keeps every hot path pristine; the extra is
        # billed under the dedicated "gray.slow-node" tag so pump-CPU
        # conservation holds.
        self.gray_slow_factor = 1.0
        self.gray_pump_extra_ns = 0

        self.accounting = CpuAccounting()
        self.cpus = [
            Cpu(sim, i, self.accounting, name=f"{self.name}.cpu{i}")
            for i in range(CPUS)
        ]
        #: The CPU the application thread runs on, and the one dedicated to
        #: protocol processing.
        self.app_cpu = self.cpus[0]
        self.protocol_cpu = self.cpus[-1]
        self.memory = VirtualMemory()

        nic_param_list = list(nic_params or [NicParams()])
        self.nics = [
            Nic(
                sim,
                p,
                mac=mac_address(node_id, rail),
                rng=self.rng,
                name=f"{self.name}.nic{rail}",
            )
            for rail, p in enumerate(nic_param_list)
        ]
        self.kernel = Kernel(sim, self.cpus, self.nics, name=f"{self.name}.kernel")

    def set_slowdown(self, factor: float) -> None:
        """Run this node's CPU ``factor`` times slower (1.0 restores it):
        service times stretch by it and every pumped frame pays
        ``PER_FRAME_SEND_NS * (factor - 1)`` extra protocol CPU."""
        if factor < 1.0:
            raise ValueError("slowdown factor must be >= 1")
        if factor == self.gray_slow_factor:
            return
        self.gray_slow_factor = factor
        self.gray_pump_extra_ns = int(PER_FRAME_SEND_NS * (factor - 1.0))
        guard = self.sim.fastpath_guard
        if guard is not None:
            guard.bump("node-slowdown")

    @property
    def impairment(self) -> Optional[str]:
        """What keeps this node from full speed now (see ``Link.impairment``)."""
        return "node-slowed" if self.gray_slow_factor != 1.0 else None

    # -- accounting helpers ----------------------------------------------

    def protocol_cpu_time(self, since_epoch: bool = True) -> int:
        """Nanoseconds of CPU spent in the communication protocol.

        By default counts from the last :meth:`reset_accounting` (the
        start of the measured interval).
        """
        acc = self.accounting
        return acc.total("protocol", since_epoch) + acc.total(
            "interrupt", since_epoch
        )

    def protocol_utilization(self, elapsed: int) -> float:
        """Protocol share of total CPU, summed over CPUs (0..cpus)."""
        if elapsed <= 0:
            return 0.0
        return self.protocol_cpu_time() / elapsed

    def reset_accounting(self) -> None:
        for cpu in self.cpus:
            cpu.reset_accounting()
        self.accounting.mark_epoch()

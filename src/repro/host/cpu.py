"""CPU model with tagged time accounting.

A :class:`Cpu` is a capacity-1 FIFO resource.  Code runs on it by yielding
``cpu.hold(ns, tag)``, which queues for the CPU, holds it for ``ns`` and
charges the time to a *tag* ("app", "protocol.send", "protocol.recv",
"interrupt", "dsm", ...).  The tag breakdown is how the reproduction gets the
paper's CPU-utilization figures (2c) and protocol-time fractions (3c, 5c)
without separate instrumentation.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial

from ..sim import Resource, Simulator

__all__ = ["Cpu", "CpuAccounting"]


class CpuAccounting:
    """Shared per-node tag → busy-nanoseconds map."""

    def __init__(self) -> None:
        self.by_tag: dict[str, int] = defaultdict(int)
        self._epoch_snapshot: dict[str, int] = {}

    def charge(self, tag: str, duration: int) -> None:
        self.by_tag[tag] += duration

    def reclassify(self, from_tag: str, to_tag: str, duration: int) -> None:
        """Move ``duration`` ns already charged to ``from_tag`` onto ``to_tag``.

        The core really was occupied for that time (busy-time conservation
        holds), but the work turned out not to belong under ``from_tag`` —
        e.g. a send batch billed up front that then stalled on a full TX
        ring.  Total charged time is unchanged.
        """
        if duration <= 0:
            return
        self.by_tag[from_tag] -= duration
        self.by_tag[to_tag] += duration

    def mark_epoch(self) -> None:
        """Snapshot counters; :meth:`since_epoch` reports deltas after this."""
        self._epoch_snapshot = dict(self.by_tag)

    def since_epoch(self) -> dict[str, int]:
        return {
            tag: total - self._epoch_snapshot.get(tag, 0)
            for tag, total in self.by_tag.items()
            if total - self._epoch_snapshot.get(tag, 0) > 0
        }

    def total(self, prefix: str = "", since_epoch: bool = False) -> int:
        """Total charged time for tags starting with ``prefix``.

        With ``since_epoch=True``, only time charged after the last
        :meth:`mark_epoch` counts (measurement intervals).
        """
        if since_epoch:
            return sum(
                v - self._epoch_snapshot.get(k, 0)
                for k, v in self.by_tag.items()
                if k.startswith(prefix)
            )
        return sum(v for k, v in self.by_tag.items() if k.startswith(prefix))


class Cpu:
    """One core: a FIFO resource plus accounting."""

    def __init__(
        self,
        sim: Simulator,
        index: int,
        accounting: CpuAccounting,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.index = index
        self.accounting = accounting
        self.name = name or f"cpu{index}"
        self.resource = Resource(sim, capacity=1)
        #: ``cpu.hold(ns, tag, then=None)``: occupy this core for ``ns``,
        #: then charge ``tag`` (:meth:`~repro.sim.resources.Resource.hold`:
        #: a process yields it, plain code passes ``then``).  A partial, not
        #: a method: every CPU cost builds one, and this saves a call each.
        self.hold = partial(self.resource.hold, accounting)

    def bill(self, charges: list[tuple[str, int]]) -> None:
        """Charge time this core spent outside any hold, tag by tag, and
        count exactly those nanoseconds as busy time (the fast path's
        synthesized work)."""
        charge = self.accounting.charge
        total = 0
        for tag, ns in charges:
            charge(tag, ns)
            total += ns
        self.resource.add_busy(total)

    def utilization(self, elapsed: int | None = None) -> float:
        """Busy fraction of this core (0..1)."""
        return self.resource.utilization(elapsed)

    def reset_accounting(self) -> None:
        self.resource.reset_accounting()

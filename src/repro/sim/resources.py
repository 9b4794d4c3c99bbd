"""Shared-resource primitives built on the event core.

Four primitives cover everything the MultiEdge stack needs:

* :class:`Resource` — a counted resource with FIFO queuing; CPUs are modelled
  as capacity-1 resources, and busy-time accounting lives here so that CPU
  utilization figures (paper Figure 2c, 3c) fall out for free.
* :class:`Hold` — one unit of a Resource occupied for a duration and charged
  (:meth:`Resource.hold`): every CPU cost in the stack is one.
* :class:`Store` — an unbounded (or bounded) FIFO of items with blocking
  ``get``; NIC rings and kernel work queues are Stores.
* :class:`Gate` — a level-triggered "work available" signal.

Resource, Store and Gate each have one FIFO queue of waiters, and a waiter is
a callback taking the granted value.  A process waits by yielding the
primitive itself (``yield cpu_resource``), which *parks* its resume callback
there; plain code parks any callback with ``park(callback)``.  No ``Event``
is built, and the grant — immediate or later — reaches the waiter through one
fast-lane hop, in strict request order.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, Optional

from .core import SimulationError, Simulator

__all__ = ["Resource", "Hold", "Store", "Gate"]

Waiter = Callable[[Any], None]


def _grant(sim: Simulator, waiter: Waiter, value: Any) -> None:
    """Hand ``value`` to a waiter: one fast-lane hop, never a direct call."""
    sim._fast.append((waiter, (value,)))
    sim.fastlane_hits += 1


class Resource:
    """A counted resource with FIFO hand-off.

    Usage from a process::

        yield cpu
        ... hold the resource ...
        cpu.release()

    Units are granted strictly in request order; :meth:`try_acquire` claims
    a free one without waiting, and :meth:`hold` occupies one for a span
    and charges it, releasing it by itself.
    """

    __slots__ = ("_sim", "capacity", "in_use", "_waiters", "busy_time", "_busy_since")

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Waiter] = deque()
        # Accumulated unit-nanoseconds of busy time (integral of in_use dt).
        self.busy_time = 0
        self._busy_since = sim.now

    def _account(self) -> None:
        now = self._sim.now
        self.busy_time += self.in_use * (now - self._busy_since)
        self._busy_since = now

    def add_busy(self, ns: int) -> None:
        """Count ``ns`` unit-nanoseconds of busy time spent outside any
        hold (work a flow-level model accounts instead of simulating)."""
        self.busy_time += ns

    def hold(
        self,
        accounting: Any,
        ns: int,
        tag: str,
        then: Optional[Callable[[], None]] = None,
    ) -> Hold:
        """Start a :class:`Hold` of one unit for ``ns``, charged to ``tag``.

        It claims a free unit in place, or else queues FIFO behind the
        holder and is granted through the usual one fast-lane hop; its end
        is scheduled at ``now + ns``, drawing ``sim._seq`` there.  A zero
        hold touches nothing: ``then()`` runs now, a process goes on.
        """
        if ns.__class__ is not int and not isinstance(ns, int):
            raise TypeError(f"hold duration must be an int, got {type(ns).__name__}")
        if ns < 0:
            raise ValueError(f"hold duration must be >= 0, got {ns}")
        # Filled here rather than by an __init__: a class with a Python
        # __init__ costs more to build, and every CPU cost builds one.
        h = Hold()
        h.resource = self
        h.accounting = accounting
        h.ns = ns
        h.tag = tag
        h.then = then  # a process that yields the hold sets it
        if not ns:
            if then is not None:
                then()
        elif self.in_use < self.capacity and not self._waiters:
            # Free: try_acquire and Hold._granted, inlined.
            sim = self._sim
            now = sim.now
            self.busy_time += self.in_use * (now - self._busy_since)
            self._busy_since = now
            self.in_use += 1
            sim._seq += 1
            sim.heap_pushes += 1
            heappush(sim._queue, [now + ns, sim._seq, h._end, ()])
        else:
            self._waiters.append(h._granted)
        return h

    def try_acquire(self) -> bool:
        """Claim a unit in place if one is free and nobody queues for it."""
        if self.in_use < self.capacity and not self._waiters:
            self._account()
            self.in_use += 1
            return True
        return False

    def park(self, resume: Callable[[Any], None]) -> None:
        """Call ``resume(self)`` once a unit is granted (``yield resource``)."""
        if self.try_acquire():
            _grant(self._sim, resume, self)
        else:
            self._waiters.append(resume)

    def release(self) -> None:
        """Return one unit, handing it to the oldest waiter if any."""
        if self.in_use <= 0:
            raise SimulationError("release() without a unit held")
        if self._waiters:
            # Hand the unit over directly: in_use stays constant.
            _grant(self._sim, self._waiters.popleft(), self)
        else:
            self._account()
            self.in_use -= 1

    def utilization(self, elapsed: Optional[int] = None) -> float:
        """Mean busy fraction (0..capacity) since construction.

        ``elapsed`` overrides the denominator, which is useful when the
        resource was created before the measured interval began.
        """
        self._account()
        total = elapsed if elapsed is not None else self._sim.now
        if total <= 0:
            return 0.0
        return self.busy_time / total

    def reset_accounting(self) -> None:
        """Zero the busy-time integral (start of a measured interval)."""
        self.busy_time = 0
        self._busy_since = self._sim.now

    @property
    def queue_length(self) -> int:
        return len(self._waiters)


class Hold:
    """A unit of a resource held for ``ns`` (see :meth:`Resource.hold`).

    Its end releases the unit to the oldest waiter, calls
    ``accounting.charge(tag, ns)``, then ``then()``: the resume of the
    process that yielded the hold, or the callback plain code passed.
    """

    __slots__ = ("resource", "accounting", "ns", "tag", "then")

    def _granted(self, _unit: Any) -> None:
        self.resource._sim.schedule(self.ns, self._end)

    def _end(self) -> None:
        # Resource.release, inlined.
        res = self.resource
        if res._waiters:
            _grant(res._sim, res._waiters.popleft(), res)
        else:
            now = res._sim.now
            res.busy_time += res.in_use * (now - res._busy_since)
            res._busy_since = now
            res.in_use -= 1
        self.accounting.charge(self.tag, self.ns)
        self.then()


class Store:
    """FIFO store of items with optional capacity.

    ``put`` is non-blocking; when the store is bounded and full, ``put``
    returns ``False`` and drops the item (matching finite NIC/switch queues,
    where the caller decides whether a drop is an error).  ``item = yield
    store`` waits for the next item; :meth:`try_get` never waits.
    """

    __slots__ = ("_sim", "capacity", "_items", "_getters", "drops", "puts")

    def __init__(self, sim: Simulator, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self._sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Waiter] = deque()
        self.drops = 0
        self.puts = 0

    def put(self, item: Any) -> bool:
        """Append ``item``; returns False (and counts a drop) if full."""
        if self._getters:
            self.puts += 1
            _grant(self._sim, self._getters.popleft(), item)
            return True
        if self.capacity is not None and len(self._items) >= self.capacity:
            self.drops += 1
            return False
        self.puts += 1
        self._items.append(item)
        return True

    def park(self, resume: Callable[[Any], None]) -> None:
        """Call ``resume(item)`` with the next item (``yield store``)."""
        if self._items:
            _grant(self._sim, resume, self._items.popleft())
        else:
            self._getters.append(resume)

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def waiting_getters(self) -> int:
        return len(self._getters)


class Gate:
    """A level-triggered signal: ``yield gate`` waits until the gate is open.

    Unlike :class:`~repro.sim.core.Event` (one-shot), a Gate can open and
    close repeatedly.  Used for "work available" signalling between interrupt
    handlers and the protocol kernel thread.
    """

    __slots__ = ("_sim", "is_open", "_waiters")

    def __init__(self, sim: Simulator, open: bool = False) -> None:
        self._sim = sim
        #: Read it freely; only open() and close() may change it.
        self.is_open = open
        self._waiters: Deque[Waiter] = deque()

    def open(self) -> None:
        """Open the gate, releasing all current waiters."""
        self.is_open = True
        while self._waiters:
            _grant(self._sim, self._waiters.popleft(), None)

    def close(self) -> None:
        """Close the gate; subsequent waits block until reopened."""
        self.is_open = False

    def park(self, resume: Callable[[Any], None]) -> None:
        """Call ``resume(None)`` as soon as the gate is open (``yield gate``)."""
        if self.is_open:
            _grant(self._sim, resume, None)
        else:
            self._waiters.append(resume)


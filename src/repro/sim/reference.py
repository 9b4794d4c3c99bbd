"""Frozen copy of the seed discrete-event engine (differential oracle).

This module preserves the original ``heapq``-only engine exactly as it
shipped in the seed tree, renamed with a ``Seed`` prefix.  It exists for two
reasons:

* the property tests assert that the optimised engine in
  :mod:`repro.sim.core` (same-timestamp FIFO fast lane, lazy-deleted timer
  entries) orders simultaneous events *identically* to this one, and
* ``tests/sim/test_engine_speed.py`` measures the optimised engine's
  events/sec against this engine on the same workload, so the perf
  trajectory is tracked against a fixed reference rather than a moving one.

Do not "improve" this file: its value is that it never changes.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional

__all__ = ["SeedSimulator", "SeedEvent", "SeedProcess", "SeedTimer"]


class SeedSimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class SeedEvent:
    """Seed one-shot event (see :class:`repro.sim.core.Event`)."""

    __slots__ = ("_sim", "_waiters", "triggered", "value")

    def __init__(self, sim: "SeedSimulator") -> None:
        self._sim = sim
        self._waiters: list[Callable[[Any], None]] = []
        self.triggered = False
        self.value: Any = None

    def trigger(self, value: Any = None) -> None:
        if self.triggered:
            raise SeedSimulationError("event triggered twice")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            self._sim.schedule(0, resume, value)

    succeed = trigger

    def add_callback(self, resume: Callable[[Any], None]) -> None:
        if self.triggered:
            self._sim.schedule(0, resume, self.value)
        else:
            self._waiters.append(resume)


class SeedTimer:
    """Seed cancellable timer: the heap entry rots until its deadline."""

    __slots__ = ("_sim", "_callback", "_args", "deadline", "_fired", "_cancelled")

    def __init__(
        self,
        sim: "SeedSimulator",
        delay: int,
        callback: Callable[..., None],
        *args: Any,
    ) -> None:
        if delay < 0:
            raise ValueError(f"timer delay must be >= 0, got {delay}")
        self._sim = sim
        self._callback = callback
        self._args = args
        self.deadline = sim.now + int(delay)
        self._fired = False
        self._cancelled = False
        sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self._fired = True
        self._callback(*self._args)

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def active(self) -> bool:
        return not self._fired and not self._cancelled


class SeedProcess:
    """Seed generator-driven process (see :class:`repro.sim.core.Process`)."""

    __slots__ = ("_sim", "_gen", "done", "name", "_finished")

    def __init__(
        self,
        sim: "SeedSimulator",
        gen: Generator[Any, Any, Any],
        name: str = "",
    ) -> None:
        self._sim = sim
        self._gen = gen
        self.done = SeedEvent(sim)
        self.name = name or getattr(gen, "__name__", "process")
        self._finished = False
        sim.schedule(0, self._resume, None)

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def result(self) -> Any:
        if not self._finished:
            raise SeedSimulationError(f"process {self.name!r} has not finished")
        return self.done.value

    def _resume(self, value: Any) -> None:
        try:
            target = self._gen.send(value)
        except StopIteration as stop:
            self._finished = True
            self.done.trigger(stop.value)
            return
        except Exception as exc:
            raise SeedSimulationError(
                f"process {self.name!r} raised {type(exc).__name__}: {exc}"
            ) from exc
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if isinstance(target, int):
            self._sim.schedule(target, self._resume, None)
        elif isinstance(target, SeedEvent):
            target.add_callback(self._resume)
        elif isinstance(target, SeedProcess):
            target.done.add_callback(self._resume)
        elif isinstance(target, float):
            self._sim.schedule(int(round(target)), self._resume, None)
        else:
            raise SeedSimulationError(
                f"process {self.name!r} yielded unsupported {type(target).__name__}"
            )


class SeedSimulator:
    """The seed event loop: a clock plus one ``heapq`` priority queue."""

    __slots__ = ("now", "_queue", "_seq", "_events_processed")

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self._events_processed = 0

    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + int(delay), self._seq, callback, args))

    def at(self, time: int, callback: Callable[..., None], *args: Any) -> None:
        self.schedule(time - self.now, callback, *args)

    def event(self) -> SeedEvent:
        return SeedEvent(self)

    def timer(self, delay: int, callback: Callable[..., None], *args: Any) -> SeedTimer:
        return SeedTimer(self, delay, callback, *args)

    def process(self, gen: Generator[Any, Any, Any], name: str = "") -> SeedProcess:
        return SeedProcess(self, gen, name)

    def run(self, until: Optional[int] = None) -> int:
        queue = self._queue
        processed = 0
        while queue:
            time, _seq, callback, args = queue[0]
            if until is not None and time > until:
                self.now = until
                break
            heapq.heappop(queue)
            self.now = time
            callback(*args)
            processed += 1
        else:
            if until is not None:
                self.now = max(self.now, until)
        self._events_processed += processed
        return processed

    def run_until_done(self, process: SeedProcess, limit: Optional[int] = None) -> Any:
        while not process.finished:
            if not self._queue:
                raise SeedSimulationError(
                    f"deadlock: process {process.name!r} is waiting but "
                    "the event queue is empty"
                )
            if limit is not None and self._queue[0][0] > limit:
                raise SeedSimulationError(
                    f"time limit {limit} exceeded waiting for {process.name!r}"
                )
            time, _seq, callback, args = heapq.heappop(self._queue)
            self.now = time
            callback(*args)
            self._events_processed += 1
        return process.result

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

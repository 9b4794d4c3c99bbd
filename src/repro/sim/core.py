"""Discrete-event simulation core.

This module implements a small, fast discrete-event engine in the style of
SimPy, specialised for the needs of the MultiEdge reproduction:

* integer nanosecond clock (no floating-point time drift),
* generator-based *processes* that ``yield`` timeouts, events, or other
  processes,
* cancellable, re-armable :class:`Timer` objects (used for retransmission
  and delayed-acknowledgement timers),
* deterministic FIFO ordering for simultaneous events (events scheduled at
  the same timestamp fire in scheduling order).

Hot-path design (the engine executes hundreds of thousands of events per
wall-second, so structure follows cost):

* **Same-timestamp fast lane.**  Roughly a third of all scheduling in a
  protocol run is ``delay == 0`` — event triggers, process wake-ups, resource
  hand-offs.  Those bypass the heap entirely and ride a FIFO ``deque`` of
  bare ``(callback, args)`` pairs.  Correct merge order with the heap follows
  from an invariant rather than per-event comparisons: every heap entry due
  at time ``T`` carries a ``seq`` drawn *before* the clock reached ``T``, so
  it precedes (in seed-engine sequence order) every fast-lane entry created
  at ``T``.  Scheduling with ``delay > 0`` draws its ``seq`` on the spot; a
  re-armed :class:`Timer` whose queued entry pops early re-pushes it under
  the ``seq`` drawn when it was armed — possibly due *now*, still older than
  anything the fast lane holds.  The run loop drains same-``now`` heap
  entries first, then the fast lane, and only then advances time — an order
  *bit-identical* to the single-heap seed engine (property-tested against
  :mod:`repro.sim.reference`).
* **Lazy-deleted timers.**  Retransmission and delayed-ack timers are almost
  always cancelled before firing.  Cancellation marks the queue entry dead in
  O(1); dead entries are skipped on pop without invoking anything (so a
  cancelled timer never moves the clock), and when they outnumber live heap
  entries the heap is compacted in one in-place pass.  A timer that is armed
  again while its dead entry is still queued *revives* that entry instead of
  pushing another, so the per-frame timers each keep one entry in the heap
  for their whole life.  Counters (:attr:`Simulator.heap_pushes`,
  :attr:`Simulator.fastlane_hits`, :attr:`Simulator.cancelled_popped`)
  expose the event-loop behaviour to
  :func:`repro.analysis.summary.summarize_cluster`.
* Heap entries are ``[time, seq, callback, args]`` *lists* (mutable so a
  cancel can null the callback in place; ``args`` is ``()`` while a dead
  entry is still queued and ``None`` once the engine has discarded it);
  fast-lane entries are
  ``(callback, args)`` tuples, or 2-element lists for the rare cancellable
  zero-delay timer.
"""

from __future__ import annotations

import heapq
from collections import deque
from types import SimpleNamespace
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "Timer",
    "SimulationError",
    "NS",
    "US",
    "MS",
    "SEC",
]

# Time unit constants.  The simulator clock counts integer nanoseconds.
NS = 1
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000

# Compact the heap once this many dead entries accumulate *and* they
# outnumber the live ones (amortised O(1) per cancellation).
_COMPACT_MIN_DEAD = 64

_heappush = heapq.heappush
_heappop = heapq.heappop

# Shared argument tuple for the extremely common "resume with None" wake-up.
_NONE_ARGS = (None,)

_INF = float("inf")

# Why Simulator._run returned.
_DONE, _BOUND, _DRAINED = range(3)


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Event:
    """A one-shot event that processes can wait on.

    An event starts *untriggered*.  Calling :meth:`trigger` records a value
    and resumes every waiting process at the current simulation time.
    Triggering twice is an error; waiting on an already-triggered event
    resumes the waiter immediately (same timestamp).
    """

    __slots__ = ("_sim", "_waiters", "triggered", "value")

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._waiters: list[Callable[[Any], None]] = []
        self.triggered = False
        self.value: Any = None

    def trigger(self, value: Any = None) -> None:
        """Trigger the event, waking all waiters at the current time."""
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self.value = value
        waiters = self._waiters
        if waiters:
            # Inlined Simulator.schedule(0, ...) for the hot wake-up path.
            sim = self._sim
            fast = sim._fast
            args = (value,)
            for resume in waiters:
                fast.append((resume, args))
            sim.fastlane_hits += len(waiters)
            self._waiters = []

    def add_callback(self, resume: Callable[[Any], None]) -> None:
        """Register ``resume(value)`` to run when the event triggers."""
        if self.triggered:
            sim = self._sim
            sim._fast.append((resume, (self.value,)))
            sim.fastlane_hits += 1
        else:
            self._waiters.append(resume)


class Timer:
    """A cancellable timer that can be armed again and again.

    ``Timer(sim, delay, callback)`` arms the timer; ``delay=None`` creates it
    idle, for an owner that keeps one timer for its whole life and arms it
    with :meth:`restart`.  :meth:`cancel` disarms it.  Cancellation is O(1):
    the queue entry is nulled in place and reclaimed either when popped or by
    the next heap compaction, so cancelled timers do not rot in the queue.

    A timer owns at most one live heap entry.  Every arm draws ``sim._seq``
    exactly where a fresh ``Timer`` would, so the callback runs at the same
    position in the global (time, seq) order as under cancel-and-recreate;
    but when the entry of an earlier arm is still queued (cancelled, not yet
    discarded by the engine) and due no later than the new deadline, the arm
    revives it instead of pushing another.  A revived entry pops at its old
    position, sees that it is early, and re-pushes itself as
    ``[deadline, seq_drawn_at_arm]``.  An entry due *after* the new deadline
    cannot be reused (a heap key cannot shrink in place) and is left dead.
    """

    __slots__ = (
        "_sim", "_callback", "_args", "deadline", "active", "_seq", "_entry", "_pop_cb",
    )

    def __init__(
        self,
        sim: "Simulator",
        delay: Optional[int],
        callback: Callable[..., None],
        *args: Any,
    ) -> None:
        self._sim = sim
        self._callback = callback
        self._args = args
        self.deadline = sim.now  # of the latest arm
        #: True while armed: neither fired nor cancelled since the last arm.
        self.active = False
        self._seq = 0  # drawn by the latest arm; 0 for a zero-delay one
        # The queue entry of the latest arm: live, or dead but possibly
        # still queued (``entry[3] is None`` once the engine discarded it).
        self._entry: Optional[list] = None
        self._pop_cb = self._pop  # one bound method, reused for every arm
        if delay is not None:
            self.restart(delay)

    def __repr__(self) -> str:
        return f"<Timer {self._callback!r}>"

    def restart(self, delay: int) -> None:
        """Arm the timer to fire ``delay`` ns from now.

        Equivalent to :meth:`cancel` followed by a fresh ``Timer`` with the
        same callback — same firing time, same place among simultaneous
        events — without the new object or, usually, the new heap entry.
        """
        if delay < 0:
            raise ValueError(f"timer delay must be >= 0, got {delay}")
        if self.active:
            self.cancel()
        sim = self._sim
        delay = int(delay)
        self.active = True
        self.deadline = deadline = sim.now + delay
        if not delay:
            self._seq = 0  # no seq drawn: this arm rides the fast lane
            self._entry = sim.schedule_cancellable(0, self._fire)
            return
        sim._seq += 1
        self._seq = sim._seq
        entry = self._entry
        if entry is not None and entry[3] is not None and entry[0] <= deadline:
            entry[2] = self._pop_cb  # revive: still queued, not due too late
            sim._dead -= 1
        else:
            self._entry = entry = [deadline, sim._seq, self._pop_cb, ()]
            sim.heap_pushes += 1
            _heappush(sim._queue, entry)

    def _pop(self) -> None:
        entry = self._entry
        if entry[1] != self._seq:
            # Queued by an earlier arm: move to the current arm's position.
            entry[0] = self.deadline
            entry[1] = self._seq
            sim = self._sim
            sim.heap_pushes += 1
            _heappush(sim._queue, entry)
            return
        self._entry = None
        self.active = False
        self._callback(*self._args)

    def _fire(self) -> None:  # zero-delay arm, off the fast lane
        self._entry = None
        self.active = False
        self._callback(*self._args)

    def cancel(self) -> None:
        """Disarm the timer.  Cancelling a fired or cancelled timer is a no-op."""
        if not self.active:
            return
        self.active = False
        sim = self._sim
        entry = self._entry
        if self._seq:
            # Simulator.cancel_scheduled for a heap entry, in place: this
            # runs on every acknowledged frame.  The dead entry stays ours
            # to revive until the engine discards it.
            entry[2] = None
            sim._dead += 1
            if sim._dead > _COMPACT_MIN_DEAD and sim._dead * 2 > len(sim._queue):
                sim._compact()
        else:
            sim.cancel_scheduled(entry)
            self._entry = None  # fast-lane entries are never revived


class Process:
    """A simulation process wrapping a Python generator.

    The generator may ``yield``:

    * an ``int`` — sleep for that many nanoseconds,
    * an :class:`Event` — wait until it triggers; the trigger value becomes
      the result of the ``yield`` expression,
    * another :class:`Process` — wait for it to finish; its return value
      becomes the result of the ``yield`` expression,
    * a :class:`~repro.sim.resources.Resource`, ``Gate`` or ``Store`` — park
      in its waiter queue until granted a unit / the gate is open / an item
      arrives (the item becomes the result of the ``yield`` expression),
    * a :class:`~repro.sim.resources.Hold` — occupy a resource unit for the
      hold's duration and charge it (a zero hold continues in place).

    When the generator returns, the process's :attr:`done` event triggers
    with the generator's return value.
    """

    __slots__ = ("_sim", "_gen", "_send", "_resume_cb", "done", "name", "_finished")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Any, Any, Any],
        name: str = "",
    ) -> None:
        self._sim = sim
        self._gen = gen
        self._send = gen.send  # bound once; called on every resume
        self.done = Event(sim)
        self.name = name or getattr(gen, "__name__", "process")
        self._finished = False
        resume = self._resume
        self._resume_cb = resume  # one bound method, reused for every wait
        sim._fast.append((resume, _NONE_ARGS))
        sim.fastlane_hits += 1

    def __repr__(self) -> str:
        return f"<Process {self.name!r}>"

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def result(self) -> Any:
        if not self._finished:
            raise SimulationError(f"process {self.name!r} has not finished")
        return self.done.value

    def _resume(self, value: Any = None) -> None:
        try:
            target = self._send(value)
            while target.__class__ is Hold and not target.ns:
                target = self._send(None)  # a zero hold: continue in place
        except StopIteration as stop:
            self._finished = True
            self.done.trigger(stop.value)
            return
        except Exception as exc:  # surface with process context
            raise SimulationError(
                f"process {self.name!r} raised {type(exc).__name__}: {exc}"
            ) from exc
        # Inline dispatch, most frequent target types first.  Exact type
        # checks keep the common cases off the isinstance slow path.
        cls = target.__class__
        if cls is Hold:
            target.then = self._resume_cb  # started when built
        elif cls is int:
            sim = self._sim
            if target > 0:
                sim._seq += 1
                sim.heap_pushes += 1
                _heappush(
                    sim._queue,
                    [sim.now + target, sim._seq, self._resume_cb, _NONE_ARGS],
                )
            elif target == 0:
                sim._fast.append((self._resume_cb, _NONE_ARGS))
                sim.fastlane_hits += 1
            else:
                raise ValueError(f"cannot schedule into the past (delay={target})")
        elif cls is Event:
            target.add_callback(self._resume_cb)
        elif cls is Process:
            target.done.add_callback(self._resume_cb)
        else:
            try:
                park = target.park  # a Resource, Gate or Store
            except AttributeError:
                self._wait_on_other(target)
            else:
                park(self._resume_cb)

    def _wait_on_other(self, target: Any) -> None:
        """The rare yield targets: floats and subclasses of the usual ones."""
        if isinstance(target, float):
            # Accept floats from arithmetic but keep the clock integral.
            self._sim.schedule(int(round(target)), self._resume_cb, None)
        elif isinstance(target, int):
            self._sim.schedule(int(target), self._resume_cb, None)
        elif isinstance(target, Event):
            target.add_callback(self._resume_cb)
        elif isinstance(target, Process):
            target.done.add_callback(self._resume_cb)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {type(target).__name__}"
            )


# What the run loop stops on when there is no process: never finishes.
_NEVER = SimpleNamespace(_finished=False)


class Simulator:
    """The event loop: a clock plus a two-lane queue of callbacks.

    Events scheduled for the same timestamp run in the order they were
    scheduled, which makes simulations fully deterministic.  ``delay == 0``
    events ride a FIFO fast lane; everything else goes through the heap.
    Because every heap entry due at ``T`` carries a sequence number drawn
    before the clock reached ``T``, same-``now`` heap entries are older than
    any fast-lane entry, so running "due heap entries, then the fast lane,
    then advance time" reproduces the seed engine's global scheduling order
    exactly.
    """

    __slots__ = (
        "now",
        "_queue",
        "_fast",
        "_seq",
        "_events_processed",
        "_dead",
        "heap_pushes",
        "fastlane_hits",
        "cancelled_popped",
        "heap_compactions",
        "_frame_uids",
        "_conn_ids",
        "monitor",
        "tracer",
        "fastpath_guard",
        "link_epoch",
    )

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list[list] = []  # [time, seq, callback, args] entries
        self._fast = deque()  # (callback, args) entries, FIFO, all due "now"
        self._seq = 0
        self._events_processed = 0
        self._dead = 0  # cancelled entries still sitting in the heap
        # Observability counters (see repro.analysis.summary).
        self.heap_pushes = 0
        self.fastlane_hits = 0
        self.cancelled_popped = 0
        self.heap_compactions = 0
        # Allocation counters that used to live at module level.  Keeping
        # them per-simulator means two simulators in one process cannot
        # interfere, and a checkpoint captures them with everything else.
        self._frame_uids = 0
        self._conn_ids = 0
        # The run's observers (DESIGN.md, "Observers"): the invariant
        # monitor, the tracer once a category is on, and the fast-path
        # guard.  Devices reach them through the sim they hold; the engine
        # never reads them, and each off hook is one ``is not None`` test.
        self.monitor = None
        self.tracer = None
        self.fastpath_guard = None
        # Device state the engine never reads either: every link mutator,
        # port drain and re-cabling bumps it (DESIGN.md, "ECMP pick cache").
        self.link_epoch = 0

    def next_frame_uid(self) -> int:
        """Allocate a physical-frame instance id (stamped at NIC TX)."""
        self._frame_uids += 1
        return self._frame_uids

    def next_conn_id(self) -> int:
        """Allocate a connection id (1-based, unique within this sim)."""
        self._conn_ids += 1
        return self._conn_ids

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        delay = int(delay)
        if delay:
            self._seq += 1
            self.heap_pushes += 1
            _heappush(self._queue, [self.now + delay, self._seq, callback, args])
        else:
            self._fast.append((callback, args))
            self.fastlane_hits += 1

    def schedule_cancellable(
        self, delay: int, callback: Callable[..., None], *args: Any
    ) -> list:
        """Schedule ``callback`` and return a handle for :meth:`cancel_scheduled`.

        The handle is a mutable queue entry; cancelling nulls it in place.
        Positive delays go through the heap, zero delays ride the fast lane
        (as a 2-element ``[callback, args]`` list so they stay cancellable).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        delay = int(delay)
        if delay:
            self._seq += 1
            entry = [self.now + delay, self._seq, callback, args]
            self.heap_pushes += 1
            _heappush(self._queue, entry)
        else:
            entry = [callback, args]
            self._fast.append(entry)
            self.fastlane_hits += 1
        return entry

    def cancel_scheduled(self, entry: list) -> None:
        """Lazy-delete a :meth:`schedule_cancellable` entry (O(1) amortised).

        The entry is nulled in place; the run loop discards it when popped.
        When dead entries outnumber live ones the heap is compacted.  Must
        not be called for an entry that has already executed.  Until the
        engine discards it (``entry[3]`` becomes ``None``) a dead heap entry
        may be revived by the :class:`Timer` that owns it.
        """
        if len(entry) == 2:  # zero-delay entry riding the fast lane
            if entry[0] is not None:
                entry[0] = None
                entry[1] = ()
            return
        if entry[2] is None:
            return
        entry[2] = None
        entry[3] = ()  # drop argument references early
        self._dead += 1
        if self._dead > _COMPACT_MIN_DEAD and self._dead * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop every dead entry from the heap in one pass, marking each *gone*."""
        queue = self._queue
        live = []
        for e in queue:
            if e[2] is None:
                e[3] = None  # gone: its timer must not revive it
            else:
                live.append(e)
        # In-place: the run loop holds an alias to this list, so the
        # object identity must survive compaction.
        queue[:] = live
        heapq.heapify(queue)
        self.cancelled_popped += self._dead
        self._dead = 0
        self.heap_compactions += 1

    def _drop_dead_head(self) -> None:
        """Discard the cancelled entry at the head of the heap.

        Marks it *gone* (``args`` slot ``None``): its :class:`Timer` may
        still hold it, and an entry that has left the heap must never be
        revived.
        """
        entry = _heappop(self._queue)
        entry[3] = None
        self._dead -= 1
        self.cancelled_popped += 1

    def next_event_time(self) -> Optional[int]:
        """Timestamp of the next live event, or None when idle.

        The fast-forward horizon hook: a flow-level forwarder plans a jump
        ending at some future instant and needs to know what the engine
        would otherwise run next.  Fast-lane entries are by construction
        due at ``now``; lazily-cancelled heap tops are popped here (they
        carry no information) so the answer is exact, not an upper bound.
        Pure with respect to live events — nothing runs, the clock does
        not move.
        """
        for entry in self._fast:
            if entry[0] is not None:
                return self.now
        queue = self._queue
        while queue:
            head = queue[0]
            if head[2] is None:
                self._drop_dead_head()
                continue
            return head[0]
        return None

    def next_callback(self) -> Optional[Callable[..., None]]:
        """The callback :meth:`next_event_time` is the due time of (None when
        idle) — what an error names when a run that should be over is not."""
        for entry in self._fast:
            if entry[0] is not None:
                return entry[0]
        return None if self.next_event_time() is None else self._queue[0][2]

    def at(self, time: int, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute simulation time ``time``."""
        if time > self.now:
            self._seq += 1
            self.heap_pushes += 1
            _heappush(self._queue, [time, self._seq, callback, args])
        else:
            self.schedule(time - self.now, callback, *args)

    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timer(self, delay: int, callback: Callable[..., None], *args: Any) -> Timer:
        """Arm a cancellable :class:`Timer`."""
        return Timer(self, delay, callback, *args)

    def process(self, gen: Generator[Any, Any, Any], name: str = "") -> Process:
        """Start a new :class:`Process` from a generator."""
        return Process(self, gen, name)

    # -- execution -------------------------------------------------------

    def _run(self, bound: float, process: Any) -> int:
        """The two-lane loop: run until ``process`` finishes, the next event
        lies beyond ``bound``, or both lanes drain; returns which.

        Due heap entries first, then the whole fast lane, then advance time
        (see the class docstring).  Skipped cancelled entries are not events.
        """
        queue = self._queue
        fast = self._fast
        if fast and self.now > bound and not process._finished:
            return _BOUND  # the fast lane is due now, already past the bound
        processed = 0
        try:
            while not process._finished:
                if queue and (not fast or queue[0][0] == self.now):
                    entry = queue[0]
                    if entry[2] is None:  # lazily-cancelled timer
                        self._drop_dead_head()
                        continue
                    if entry[0] > bound:
                        return _BOUND
                    _heappop(queue)
                    self.now = entry[0]
                    entry[2](*entry[3])
                    processed += 1
                elif fast:
                    # Drain the fast lane completely: every entry is due at
                    # the current time, and no heap entry can become due
                    # until the clock advances (whatever a fast-lane callback
                    # schedules or arms with a positive delay is due later
                    # than now).
                    while fast:
                        cb, args = fast.popleft()
                        if cb is None:  # cancelled zero-delay timer
                            self.cancelled_popped += 1
                            continue
                        cb(*args)
                        processed += 1
                        if process._finished:
                            break
                else:
                    return _DRAINED
            return _DONE
        finally:
            self._events_processed += processed

    def run(self, until: Optional[int] = None) -> int:
        """Run until the queues drain or the clock passes ``until``.

        The clock ends at ``until`` if it was behind it (it never moves
        backwards).  Returns the number of events processed during this
        call (skipped cancelled-timer entries do not count).
        """
        processed = self.run_until_time(_INF if until is None else until)
        if until is not None and self.now < until:
            self.now = until
        return processed

    def run_until_time(self, until: int, process: Optional[Process] = None) -> int:
        """Process every event due at or before ``until`` — and stop.

        Unlike :meth:`run`, the clock is **not** snapped to ``until`` when
        the queue drains early or the next entry lies beyond the bound:
        ``now`` stays at the last executed event.  An interrupted run
        (``run_until_time(T)`` followed by more running) is therefore
        scheduling-identical to an uninterrupted one — the property the
        checkpoint subsystem's witness protocol depends on.  Returns the
        number of events processed.

        With ``process``, the run also pauses right after the event that
        finishes it — exactly where :meth:`run_until_done` would return.
        """
        before = self._events_processed
        self._run(until, _NEVER if process is None else process)
        return self._events_processed - before

    def run_until_done(self, process: Process, limit: Optional[int] = None) -> Any:
        """Run until ``process`` finishes and return its result.

        ``limit`` bounds the simulated time; exceeding it raises
        :class:`SimulationError` (used by tests to catch livelock).
        """
        reason = self._run(_INF if limit is None else limit, process)
        if reason == _BOUND:
            raise SimulationError(
                f"time limit {limit} exceeded waiting for {process.name!r}"
            )
        if reason == _DRAINED:
            raise SimulationError(
                f"deadlock: process {process.name!r} is waiting but "
                "the event queue is empty"
            )
        return process.result

    def snapshot_state(self) -> dict:
        """Engine state for :mod:`repro.checkpoint` capture.

        Queue entries appear in raw heap order (deterministic for
        identical executions) including lazily-deleted timers; callbacks
        are walked structurally by the capture walker.
        """
        return {
            "now": self.now,
            "seq": self._seq,
            "events_processed": self._events_processed,
            "dead": self._dead,
            "heap_pushes": self.heap_pushes,
            "fastlane_hits": self.fastlane_hits,
            "cancelled_popped": self.cancelled_popped,
            "heap_compactions": self.heap_compactions,
            "frame_uids": self._frame_uids,
            "conn_ids": self._conn_ids,
            "link_epoch": self.link_epoch,
            "queue": list(self._queue),
            "fast": list(self._fast),
        }

    @property
    def events_processed(self) -> int:
        """Total number of events executed since construction."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Events currently queued (including not-yet-reclaimed cancelled timers)."""
        return len(self._queue) + len(self._fast)


def all_of(sim: Simulator, events: Iterable[Event]) -> Event:
    """Return an event that triggers once every event in ``events`` has.

    The combined event's value is the list of individual values in input
    order.
    """
    events = list(events)
    combined = Event(sim)
    if not events:
        combined.trigger([])
        return combined
    remaining = len(events)
    values: list[Any] = [None] * len(events)

    def make_callback(index: int) -> Callable[[Any], None]:
        def on_trigger(value: Any) -> None:
            nonlocal remaining
            values[index] = value
            remaining -= 1
            if remaining == 0:
                combined.trigger(values)

        return on_trigger

    for i, ev in enumerate(events):
        ev.add_callback(make_callback(i))
    return combined


def any_of(sim: Simulator, events: Iterable[Event]) -> Event:
    """Return an event that triggers when the first of ``events`` does.

    Its value is ``(index, value)`` of the first event to fire.  Later
    triggers are ignored.
    """
    combined = Event(sim)

    def make_callback(index: int) -> Callable[[Any], None]:
        def on_trigger(value: Any) -> None:
            if not combined.triggered:
                combined.trigger((index, value))

        return on_trigger

    for i, ev in enumerate(events):
        ev.add_callback(make_callback(i))
    return combined


# Hold is built on Resource, which is built on this module: import it last.
from .resources import Hold  # noqa: E402

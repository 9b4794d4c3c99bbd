"""Parking equivalence: a waiter is a callback, whoever parks it.

A :class:`Resource`, :class:`Gate` or :class:`Store` has one FIFO queue of
waiters, and a waiter is a callback taking the granted value.  A process
parks its resume callback by yielding the primitive; plain code (the
kernel's interrupt chain) parks any callback with ``park(callback)``.  Both
are granted in strict request order through exactly one fast-lane hop, so
every timestamp, every interleaving with other same-instant work and the
engine's own counters are the same whoever waits.

The expected values below were recorded at b9af88d, where the only way to
wait was the ``Event`` that ``acquire()`` / ``wait()`` / ``get()`` returned
(removed in PR 18, with the rows that mixed ``Event`` and parked waiters):
matching them is the witness that parking changed no schedule.

A :class:`Hold` (claim, keep, release, charge in one object) waits in the
same queue: jobs that hold the unit with one are released at the same
recorded instants.
"""

import pytest

from repro.sim import Gate, Hold, Resource, Simulator, Store

KINDS = {
    "all-parked": ["yield"] * 6,
    "all-callback": ["callback"] * 6,
    "mixed": ["callback", "yield", "yield", "callback", "yield", "callback"],
    "mixed-inverse": ["yield", "callback", "callback", "yield", "callback", "yield"],
}


def _start(kind, sim, body):
    """Run generator ``body`` as a process that yields what it waits on, or
    as plain callbacks that ``park()`` themselves — hop for hop the same."""
    if kind == "yield":
        sim.process(body)
        return

    def step(value=None):
        try:
            target = body.send(value)
        except StopIteration:
            return
        if isinstance(target, int):
            sim.schedule(target, step)
        elif isinstance(target, Hold):
            target.then = step  # what a process does with a yielded hold
        else:
            target.park(step)

    sim.schedule(0, step)


def _summary(sim, log):
    """(log, final clock, events, fast-lane hits, heap pushes)."""
    return log, sim.now, sim.events_processed, sim.fastlane_hits, sim.heap_pushes


# -- Resource ------------------------------------------------------------------

# (start, hold): two arrive together at 0, three pile up while the first
# holds the unit, one arrives after the queue drained (uncontended again).
# Even an uncontended grant lands one hop later: "same-instant-after" work
# queued before the wait runs first.
_RESOURCE_JOBS = [(0, 40), (0, 10), (5, 25), (5, 5), (30, 15), (200, 10)]

RESOURCE_AT_PARENT = (
    [
        (0, "same-instant-before:0"),
        (0, "same-instant-before:1"),
        (0, "same-instant-after:0"),
        (0, "granted:0"),
        (0, "same-instant-after:1"),
        (5, "same-instant-before:2"),
        (5, "same-instant-before:3"),
        (5, "same-instant-after:2"),
        (5, "same-instant-after:3"),
        (30, "same-instant-before:4"),
        (30, "same-instant-after:4"),
        (40, "released:0"),
        (40, "granted:1"),
        (50, "released:1"),
        (50, "granted:2"),
        (75, "released:2"),
        (75, "granted:3"),
        (80, "released:3"),
        (80, "granted:4"),
        (95, "released:4"),
        (200, "same-instant-before:5"),
        (200, "same-instant-after:5"),
        (200, "granted:5"),
        (210, "released:5"),
    ],
    210,
    30,
    20,
    10,
)


class _Ledger:
    """What a hold charges: (instant, tag, ns) per charge."""

    def __init__(self, sim):
        self.sim = sim
        self.charges = []

    def charge(self, tag, ns):
        self.charges.append((self.sim.now, tag, ns))


def _resource_scenario(kinds):
    sim = Simulator()
    res = Resource(sim)
    ledger = _Ledger(sim)
    log = []

    def note(what):
        log.append((sim.now, what))

    def job(i, start, hold, held):
        yield start
        # Work queued in this instant before and after the wait: the grant
        # must land between them exactly as a triggered Event's did.
        note(f"same-instant-before:{i}")
        sim.schedule(0, note, f"same-instant-after:{i}")
        if held:
            # One hold: claim (or queue), keep, release, charge.
            yield res.hold(ledger, hold, f"job{i}")
        else:
            yield res
            note(f"granted:{i}")
            yield hold
            res.release()
        note(f"released:{i}")

    for i, (start, hold) in enumerate(_RESOURCE_JOBS):
        kind, _, held = kinds[i].partition("+")
        _start(kind, sim, job(i, start, hold, held == "hold"))
    sim.run()
    assert res.in_use == 0 and res.queue_length == 0
    assert res.busy_time == sum(hold for _, hold in _RESOURCE_JOBS)
    # Each hold charges its own duration when it releases the unit.
    released = [(t, int(what[9:])) for t, what in log if what.startswith("released:")]
    assert ledger.charges == [
        (t, f"job{i}", _RESOURCE_JOBS[i][1]) for t, i in released if kinds[i].endswith("+hold")
    ]
    return _summary(sim, log)


@pytest.mark.parametrize("kinds", KINDS.values(), ids=KINDS.keys())
def test_resource_waiters_are_granted_fifo_at_the_parents_instants(kinds):
    assert _resource_scenario(kinds) == RESOURCE_AT_PARENT


# A job that holds the unit with one Hold — yielded by a process, or driven
# as plain callbacks — queues in the same FIFO as the jobs that yield the
# resource, and is released at the parent's instants.  It logs no "granted"
# (nothing runs at its grant), and an uncontended hold claims the unit in
# place, so it makes fewer hops than `yield res`.
HELD_KINDS = {
    "all-held": ["yield+hold"] * 6,
    "all-held-callback": ["callback+hold"] * 6,
    "held-mixed": [
        "yield+hold", "yield", "callback+hold", "callback", "yield", "yield+hold"
    ],
}


@pytest.mark.parametrize("kinds", HELD_KINDS.values(), ids=HELD_KINDS.keys())
def test_holds_are_released_at_the_parents_instants(kinds):
    log, now, *_ = _resource_scenario(kinds)
    held = {f"granted:{i}" for i, kind in enumerate(kinds) if kind.endswith("+hold")}
    expected = [entry for entry in RESOURCE_AT_PARENT[0] if entry[1] not in held]
    assert (log, now) == (expected, RESOURCE_AT_PARENT[1])


def test_a_callback_hold_claims_in_place_or_queues_behind_the_holder():
    sim = Simulator()
    res = Resource(sim)
    ledger = _Ledger(sim)
    log = []

    def done(what):
        return lambda: log.append((sim.now, what, res.in_use))

    # Uncontended: claimed in place at once, no hop, the end scheduled.
    res.hold(ledger, 30, "a", done("a"))
    assert (res.in_use, sim.fastlane_hits, sim.heap_pushes) == (1, 0, 1)
    # Contended at 10: queued behind "a", handed the unit when "a" ends
    # (one hop), ends 20 ns later.
    sim.schedule(10, res.hold, ledger, 20, "b", done("b"))
    sim.run()
    assert log == [(30, "a", 1), (50, "b", 0)]
    assert ledger.charges == [(30, "a", 30), (50, "b", 20)]
    assert (res.busy_time, sim.fastlane_hits, sim.heap_pushes) == (50, 1, 3)
    # A zero hold touches nothing and continues at once.
    res.hold(ledger, 0, "z", done("z"))
    assert log[-1] == (50, "z", 0) and len(ledger.charges) == 2
    assert (sim.fastlane_hits, sim.heap_pushes) == (1, 3)


def test_resource_try_acquire_claims_only_a_free_unqueued_unit():
    sim = Simulator()
    res = Resource(sim)
    assert res.try_acquire() and res.in_use == 1
    assert not res.try_acquire()  # busy
    granted = []
    res.park(granted.append)
    res.release()  # handed straight to the parked waiter
    assert res.in_use == 1 and granted == []  # ... one hop later
    sim.run()
    assert granted == [res]
    res.release()
    assert res.in_use == 0


# -- Gate ------------------------------------------------------------------------

GATE_AT_PARENT = (
    [
        (50, "through:0"),
        (50, "through:1"),
        (50, "through:2"),
        (60, "queued-first"),
        (60, "through:3"),
        (70, "through:4"),
        (90, "through:5"),
    ],
    90,
    24,
    14,
    10,
)


def _gate_scenario(kinds):
    sim = Simulator()
    gate = Gate(sim)
    log = []

    def note(what):
        log.append((sim.now, what))

    def waiter(i, start):
        yield start
        if i == 3:
            # The gate is already open here: still one hop, not zero.
            sim.schedule(0, note, "queued-first")
        yield gate
        note(f"through:{i}")

    # 0-2 block until the gate opens at 50; 3 finds it open; 4 arrives after
    # it closed again at 65 and waits for the reopening at 70... which is
    # when it arrives, so it queues first and is released in the same instant.
    for i, start in enumerate([0, 10, 10, 60, 70, 80]):
        _start(kinds[i], sim, waiter(i, start))
    sim.schedule(50, gate.open)
    sim.schedule(65, gate.close)
    sim.schedule(70, gate.open)
    sim.schedule(75, gate.close)
    sim.schedule(90, gate.open)
    sim.run()
    return _summary(sim, log)


@pytest.mark.parametrize("kinds", KINDS.values(), ids=KINDS.keys())
def test_gate_waiters_pass_at_the_parents_instants(kinds):
    assert _gate_scenario(kinds) == GATE_AT_PARENT


# -- Store -----------------------------------------------------------------------

STORE_AT_PARENT = (
    [
        (20, "got:0:a"),
        (20, "got:1:b"),
        (40, "got:2:c"),
        (60, "queued-first"),
        (60, "got:3:d"),
        (60, "got:4:e"),
        (100, "got:5:f"),
    ],
    100,
    23,
    15,
    8,
)


def _store_scenario(kinds):
    sim = Simulator()
    store = Store(sim)
    log = []

    def note(what):
        log.append((sim.now, what))

    def getter(i, start):
        yield start
        if i == 3:
            # Items are ready here: still one hop, not zero.
            sim.schedule(0, note, "queued-first")
        item = yield store
        note(f"got:{i}:{item}")

    def put(*items):
        for item in items:
            store.put(item)

    # 0-2 block; "a" and "b" arrive together at 20, "c" at 40; "d" and "e"
    # are stocked at 50 for getters 3 and 4, who arrive at 60; 5 blocks.
    for i, start in enumerate([0, 0, 10, 60, 60, 70]):
        _start(kinds[i], sim, getter(i, start))
    sim.schedule(20, put, "a", "b")
    sim.schedule(40, put, "c")
    sim.schedule(50, put, "d", "e")
    sim.schedule(100, put, "f")
    sim.run()
    assert len(store) == 0 and store.waiting_getters == 0 and store.puts == 6
    return _summary(sim, log)


@pytest.mark.parametrize("kinds", KINDS.values(), ids=KINDS.keys())
def test_store_getters_are_served_fifo_at_the_parents_instants(kinds):
    assert _store_scenario(kinds) == STORE_AT_PARENT


def test_parking_builds_no_event(monkeypatch):
    """The point of parking: a wait allocates nothing."""
    from repro.sim import core

    built = []
    original = core.Event.__init__

    def counting(self, sim):
        built.append(self)
        original(self, sim)

    monkeypatch.setattr(core.Event, "__init__", counting)
    _resource_scenario(KINDS["all-parked"])
    _gate_scenario(KINDS["all-parked"])
    _store_scenario(KINDS["all-parked"])
    # One `done` Event per process (6 per scenario), none per wait.
    assert len(built) == 18

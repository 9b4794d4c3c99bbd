"""Unit tests for the re-armable :class:`repro.sim.Timer`.

The contract: ``cancel()`` + ``restart(d)`` is indistinguishable, in firing
time and in position among simultaneous events, from ``cancel()`` + a fresh
``Timer`` — while the timer keeps at most one live heap entry, a cancelled
timer never moves the clock, and an entry the engine already discarded is
never revived.
"""

import pytest

from repro.sim import SimulationError, Simulator, Timer
from repro.sim.core import _COMPACT_MIN_DEAD


def _queued(sim, timer):
    """Heap entries that would call into ``timer`` if popped."""
    return [e for e in sim._queue if e[2] == timer._pop_cb]


def test_idle_timer_draws_nothing_until_armed():
    sim = Simulator()
    fired = []
    t = Timer(sim, None, fired.append, "x")
    assert not t.active
    assert sim._seq == 0 and sim.heap_pushes == 0 and sim.pending_events == 0
    t.cancel()  # no-op on an idle timer
    t.restart(50)
    assert t.active and t.deadline == 50
    sim.run()
    assert fired == ["x"] and sim.now == 50 and not t.active


def test_restart_after_fire_pushes_a_fresh_entry():
    sim = Simulator()
    fired = []
    t = sim.timer(10, lambda: fired.append(sim.now))
    sim.run()
    t.restart(5)
    sim.run()
    assert fired == [10, 15]
    assert sim.heap_pushes == 2


def test_rearm_revives_the_queued_entry():
    sim = Simulator()
    fired = []
    t = sim.timer(100, lambda: fired.append(sim.now))
    sim.schedule(30, t.cancel)
    sim.schedule(40, t.restart, 100)  # deadline 140 >= queued 100: revive
    sim.run(until=50)
    assert sim.heap_pushes == 3 and sim._dead == 0
    assert len(_queued(sim, t)) == 1 and t.active and t.deadline == 140
    sim.run()
    assert fired == [140]
    # The revived entry popped once at 100 and re-pushed itself for 140.
    assert sim.heap_pushes == 4
    assert sim.cancelled_popped == 0


def test_same_instant_rearm_keeps_the_twins_order():
    """Cancel + re-arm in one timestamp with another event due at the same
    deadline scheduled in between: the timer fires *after* that event, as a
    freshly created timer would — which takes a heap push of an entry due
    *now*, carrying the sequence number drawn when the timer was armed."""

    def program(rearm):
        sim = Simulator()
        log = []
        holder = {}

        def fire():
            log.append((sim.now, "timer"))

        def step():
            holder["t"].cancel()
            sim.schedule(60, log.append, (100, "between"))
            if rearm:
                holder["t"].restart(60)
            else:
                holder["t"] = sim.timer(60, fire)

        holder["t"] = sim.timer(100, fire)
        sim.schedule(40, step)
        sim.schedule(100, log.append, (100, "after"))
        sim.run()
        return log, sim.now, sim._seq

    rearmed = program(rearm=True)
    assert rearmed == program(rearm=False)
    assert rearmed[0] == [(100, "after"), (100, "between"), (100, "timer")]


def test_cancelled_timer_never_moves_the_clock():
    sim = Simulator()
    t = sim.timer(100, lambda: None)
    sim.schedule(10, t.cancel)
    sim.run()
    assert sim.now == 10

    # Also after a revival: re-armed at 20 for 220, cancelled again at 30.
    sim = Simulator()
    t = sim.timer(100, lambda: None)
    sim.schedule(10, t.cancel)
    sim.schedule(20, t.restart, 200)
    sim.schedule(30, t.cancel)
    sim.run()
    assert sim.now == 30
    assert sim.events_processed == 3


def test_entry_due_after_the_new_deadline_is_not_reused():
    sim = Simulator()
    fired = []
    t = sim.timer(1_000, lambda: fired.append(sim.now))
    sim.schedule(10, t.cancel)
    sim.schedule(20, t.restart, 30)  # deadline 50 < queued 1000
    sim.run()
    assert fired == [50]
    assert sim.now == 50  # the abandoned dead entry did not move the clock
    assert sim.cancelled_popped == 1


def test_restart_of_an_armed_timer_replaces_the_deadline():
    sim = Simulator()
    fired = []
    t = sim.timer(100, lambda: fired.append(sim.now))
    sim.schedule(10, t.restart, 200)
    sim.run()
    assert fired == [210]
    assert len(fired) == 1


def test_zero_delay_restart_rides_the_fast_lane():
    sim = Simulator()
    fired = []
    t = sim.timer(100, fired.append, "t")
    t.cancel()
    seq = sim._seq
    t.restart(0)
    assert sim._seq == seq  # a zero-delay arm draws no sequence number
    sim.schedule(0, fired.append, "later")
    sim.run()
    assert fired == ["t", "later"] and sim.now == 0

    # ... and stays cancellable there.
    t.restart(0)
    t.cancel()
    t.restart(7)
    sim.run()
    assert fired == ["t", "later", "t"] and sim.now == 7


def test_dead_head_popped_by_the_engine_is_never_revived():
    sim = Simulator()
    fired = []
    t = sim.timer(10, lambda: fired.append(sim.now))
    t.cancel()
    sim.schedule(20, lambda: None)
    sim.run()  # pops the dead entry at 10 as a dead head
    assert sim.cancelled_popped == 1 and sim.pending_events == 0
    t.restart(5)
    assert len(_queued(sim, t)) == 1
    sim.run()
    assert fired == [25]


def test_next_event_time_discards_dead_heads_for_good():
    sim = Simulator()
    fired = []
    t = sim.timer(10, lambda: fired.append(sim.now))
    t.cancel()
    assert sim.next_event_time() is None  # popped the dead head
    t.restart(10)
    assert sim.next_event_time() == 10
    sim.run()
    assert fired == [10]


def test_compacted_entry_is_never_revived():
    sim = Simulator()
    fired = []
    keep = sim.timer(500, lambda: fired.append(("keep", sim.now)))
    keep.cancel()
    # Cross the compaction threshold on purpose.
    extras = [sim.timer(1_000 + i, fired.append, i) for i in range(2 * _COMPACT_MIN_DEAD)]
    for extra in extras:
        extra.cancel()
    assert sim.heap_compactions >= 1
    assert keep._entry[3] is None  # marked gone by the compaction
    keep.restart(600)
    assert len(_queued(sim, keep)) == 1
    sim.run()
    assert fired == [("keep", 600)]


def test_run_until_done_prelude_marks_discarded_heads_gone():
    sim = Simulator()
    fired = []
    t = sim.timer(200, fired.append, "t")
    t.cancel()

    def body():
        yield 500

    proc = sim.process(body())
    sim.run(until=100)  # clock at 100; the dead entry (200) heads the heap
    with pytest.raises(SimulationError, match="time limit"):
        sim.run_until_done(proc, limit=60)  # already past: prelude only
    assert sim.cancelled_popped == 1
    t.restart(1)
    sim.run()
    assert fired == ["t"] and sim.now == 500


def test_many_rearms_keep_one_live_entry():
    sim = Simulator()
    fired = []
    t = Timer(sim, None, lambda: fired.append(sim.now))

    def tick(i):
        t.cancel()
        t.restart(1_000)
        assert len(_queued(sim, t)) == 1

    for i in range(1, 200):
        sim.schedule(i * 10, tick, i)
    sim.run()
    assert fired == [199 * 10 + 1_000]
    # 199 ticks + the first arm + 2 early pops (at 1010 and 2010), not 199 timer entries.
    assert sim.heap_pushes == 199 + 1 + 2
    assert sim.cancelled_popped == 0


def test_timer_negative_restart_rejected():
    sim = Simulator()
    t = Timer(sim, None, lambda: None)
    with pytest.raises(ValueError):
        t.restart(-1)

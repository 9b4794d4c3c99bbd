"""Property tests: however a run is chopped up, it is the same run.

``Simulator.run``, ``run_until_time`` and ``run_until_done`` are thin
wrappers over one loop.  A random program of ``schedule`` / ``at`` / timer
arm-cancel-rearm / processes, driven to completion by a random interleaving
of the three calls, must execute the same ``(time, callback)`` sequence and
end at the same ``now``, ``_seq`` and ``events_processed`` as one
uninterrupted ``run()`` — including when a bound is hit with dead timer
entries at the head of the heap, when the awaited process can never finish,
and when ``until`` already lies in the past.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import SimulationError, Simulator, Timer
from repro.sim.reference import SeedSimulator

_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["schedule", "at", "arm", "cancel", "rearm", "sleep", "event", "spawn"]
        ),
        st.integers(min_value=0, max_value=6),
    ),
    min_size=1,
    max_size=30,
)

# How the run is driven: (call, argument) pairs, applied until nothing is
# left, then a final run().  ``until``/``limit`` arguments are offsets from
# the clock at the time of the call, so negative ones lie in the past.
_drives = st.lists(
    st.tuples(
        st.sampled_from(["run", "run_until_time", "run_until_done"]),
        st.integers(min_value=-3, max_value=12),
    ),
    max_size=12,
)


class _Program:
    """One random program instantiated on one engine."""

    def __init__(self, sim, steps, rearmable: bool) -> None:
        self.sim = sim
        self.log = []
        self.procs = [sim.process(self._driver(steps, rearmable), name="driver")]

    def _fire(self, tag):
        self.log.append((self.sim.now, tag))

    def _child(self, tag, delay):
        yield delay
        self.log.append((self.sim.now, tag))

    def _driver(self, steps, rearmable):
        sim = self.sim
        timer = Timer(sim, None, self._fire, "timer") if rearmable else None
        for i, (op, d) in enumerate(steps):
            tag = f"{op}{i}"
            if op == "schedule":
                sim.schedule(d, self._fire, tag)
            elif op == "at":
                sim.at(sim.now + d, self._fire, tag)
            elif op == "arm":
                if rearmable:
                    timer.restart(d)
                else:
                    sim.timer(d, self._fire, tag)
            elif op == "cancel":
                # A dead entry parked far ahead: the head of the heap once
                # everything live before it has run.
                sim.timer(d + 1, self._fire, tag + ".MUST_NOT_FIRE").cancel()
                if rearmable:
                    timer.cancel()
            elif op == "rearm":
                if rearmable:
                    timer.cancel()
                    timer.restart(d + 1)
            elif op == "sleep":
                yield d
                self.log.append((sim.now, f"slept:{tag}"))
            elif op == "event":
                ev = sim.event()
                sim.schedule(d, ev.trigger, tag)
                self.log.append((sim.now, f"woke:{(yield ev)}"))
            elif op == "spawn":
                self.procs.append(sim.process(self._child(tag, d), name=tag))
        yield 20  # let stragglers land while a process is still awaited


def _final_state(sim):
    return sim.now, sim._seq, sim.events_processed


def _drive(prog, drives, two_lane: bool) -> int:
    """Apply ``drives`` and then run to the end; returns the latest
    ``until`` a ``run()`` was given (it may snap the clock that far)."""
    sim = prog.sim
    horizon = 0
    for call, arg in drives:
        before = sim.now
        if call == "run":
            sim.run(until=before + arg)
            horizon = max(horizon, before + arg)
            if two_lane:
                assert sim.now >= before  # the clock never moves backwards
        elif call == "run_until_time" and two_lane:
            sim.run_until_time(before + arg)
            assert before <= sim.now <= max(before, before + arg)
        elif call == "run_until_done":
            proc = prog.procs[arg % len(prog.procs)]
            try:
                sim.run_until_done(proc, limit=before + arg)
            except Exception as exc:  # SimulationError / SeedSimulationError
                assert "time limit" in str(exc) or "deadlock" in str(exc)
    sim.run()
    return horizon


@settings(max_examples=300, deadline=None)
@given(steps=_steps, drives=_drives)
def test_any_interleaving_of_the_three_run_calls_is_one_run(steps, drives):
    whole = _Program(Simulator(), steps, rearmable=True)
    whole.sim.run()

    chopped = _Program(Simulator(), steps, rearmable=True)
    horizon = _drive(chopped, drives, two_lane=True)

    assert chopped.log == whole.log
    # run(until) leaves the clock at `until` when the work ends before it.
    end, seq, events = _final_state(whole.sim)
    assert _final_state(chopped.sim) == (max(end, horizon), seq, events)
    assert all("MUST_NOT_FIRE" not in tag for _, tag in whole.log)


@settings(max_examples=150, deadline=None)
@given(steps=_steps, drives=_drives)
def test_chopped_run_matches_the_seed_engine(steps, drives):
    """Same program, one-shot timers only (the seed engine has no restart):
    the chopped two-lane run orders callbacks like the seed engine chopped
    the same way.  The seed lets a cancelled timer's entry run as an event,
    so clocks and event counts are not comparable, only the callback log."""
    fast = _Program(Simulator(), steps, rearmable=False)
    _drive(fast, drives, two_lane=True)
    seed = _Program(SeedSimulator(), steps, rearmable=False)
    _drive(seed, drives, two_lane=False)
    assert fast.log == seed.log


def _armed_then_cancelled(sim, deadline):
    sim.timer(deadline, lambda: None).cancel()


def test_bound_hit_with_dead_heads_queued():
    sim = Simulator()
    fired = []
    _armed_then_cancelled(sim, 30)
    _armed_then_cancelled(sim, 40)
    sim.schedule(100, fired.append, "late")
    assert sim.run_until_time(50) == 0  # two dead heads dropped, bound hit
    assert (sim.now, sim.cancelled_popped, sim.pending_events) == (0, 2, 1)
    assert sim.run(until=50) == 0 and sim.now == 50
    sim.run()
    assert fired == ["late"] and sim.now == 100 and sim.cancelled_popped == 2


def test_deadlock_with_only_dead_entries_left():
    sim = Simulator()
    _armed_then_cancelled(sim, 30)

    def waits_forever():
        yield sim.event()

    proc = sim.process(waits_forever())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_done(proc, limit=1_000)
    assert sim.cancelled_popped == 1 and sim.events_processed == 1


def _returns_at_once():
    return
    yield


def test_a_bound_already_passed_runs_nothing():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: None)
    sim.run()
    assert sim.now == 10
    # Fast-lane work is due *now*, which is past every bound below.
    sim.schedule(0, fired.append, "fast")
    sim.schedule(5, fired.append, "heap")
    proc = sim.process(_returns_at_once())
    assert sim.run(until=4) == 0 and sim.now == 10
    assert sim.run_until_time(4) == 0 and sim.now == 10
    with pytest.raises(SimulationError, match="time limit"):
        sim.run_until_done(proc, limit=4)
    assert fired == [] and sim.events_processed == 1
    sim.run()
    assert fired == ["fast", "heap"] and sim.now == 15 and proc.finished


def test_run_until_time_stops_where_run_until_done_would():
    def build():
        sim = Simulator()
        log = []

        def short():
            yield 5
            log.append("short")

        def long():
            sim.schedule(5, log.append, "same-instant straggler")
            yield 5
            log.append("long")
            yield 5

        return sim, [sim.process(short()), sim.process(long())], log

    a, a_procs, a_log = build()
    a.run_until_done(a_procs[0])
    b, b_procs, b_log = build()
    b.run_until_time(1_000, b_procs[0])
    assert a_log == b_log == ["short"]
    assert _final_state(a) == _final_state(b) and a.pending_events == b.pending_events

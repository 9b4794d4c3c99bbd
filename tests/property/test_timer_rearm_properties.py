"""Property tests: re-arming a Timer equals cancelling it and creating a new one.

A random program of arm / cancel / re-arm steps over several timers, mixed
with ordinary ``schedule`` and ``at`` events, runs three times:

* on :class:`repro.sim.Simulator` with one re-armed :class:`Timer` per slot,
* on :class:`repro.sim.Simulator` creating a fresh ``Timer`` for every arm
  (the *twin*: the only behaviour the engine had before ``restart``),
* on the frozen :class:`repro.sim.reference.SeedSimulator`, also with fresh
  timers.

All three must log the same ``(time, callback)`` firing sequence; the two
``Simulator`` runs must also end on the same clock and the same ``_seq``
(the seed engine lets cancelled timers rot until their deadline and draws a
sequence number for zero delays, so those two are not comparable there).
Delays are small so events collide on timestamps, where ordering bugs live.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, Timer
from repro.sim.core import _COMPACT_MIN_DEAD
from repro.sim.reference import SeedSimulator

N_TIMERS = 3

# (when, op, slot, delay, refire): at absolute time `when` apply `op` to timer
# `slot`.  "arm" arms only an idle timer (how the protocol's timers are
# used), "restart" replaces whatever is pending, "event"/"at" are ordinary
# scheduling.  `refire` > 0 makes the timer re-arm itself from its own
# callback that many times (the NACK timer's "keep nagging").
_steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),
        st.sampled_from(["arm", "restart", "cancel", "event", "at"]),
        st.integers(min_value=0, max_value=N_TIMERS - 1),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=1,
    max_size=60,
)


def _run(sim, steps, rearm, check=None):
    """Run the program; ``rearm`` picks restart() over fresh timers."""
    log = []
    delays = [0] * N_TIMERS
    refires = [0] * N_TIMERS
    timers = [None] * N_TIMERS

    def fire(slot):
        log.append((sim.now, f"timer{slot}"))
        if refires[slot] > 0:
            refires[slot] -= 1
            arm(slot)

    def arm(slot):
        if rearm:
            timers[slot].restart(delays[slot])
        else:
            timers[slot] = sim.timer(delays[slot], fire, slot)

    if rearm:
        timers = [Timer(sim, None, fire, slot) for slot in range(N_TIMERS)]

    def apply(index, op, slot, delay, refire):
        timer = timers[slot]
        if op in ("arm", "restart"):
            if op == "arm" and timer is not None and timer.active:
                return
            if timer is not None:
                timer.cancel()
            delays[slot], refires[slot] = delay, refire
            arm(slot)
        elif op == "cancel":
            if timer is not None:
                timer.cancel()
        elif op == "event":
            sim.schedule(delay, log.append, (sim.now + delay, f"event{index}"))
        else:
            sim.at(sim.now + delay, log.append, (sim.now + delay, f"at{index}"))
        if check is not None:
            check(sim, timers)

    for index, (when, op, slot, delay, refire) in enumerate(steps):
        sim.at(when, apply, index, op, slot, delay, refire)
    sim.run()
    return log


def _one_entry_per_timer(sim, timers):
    for timer in timers:
        queued = [e for e in sim._queue if e[2] == timer._pop_cb]
        assert len(queued) <= 1
        if timer.active and timer._seq:
            assert queued == [timer._entry]
            assert queued[0][0] <= timer.deadline


@settings(max_examples=300, deadline=None)
@given(steps=_steps)
def test_rearm_equals_cancel_and_recreate(steps):
    sim, twin = Simulator(), Simulator()
    log = _run(sim, steps, rearm=True, check=_one_entry_per_timer)
    assert log == _run(twin, steps, rearm=False)
    assert (sim.now, sim._seq) == (twin.now, twin._seq)
    assert sim.fastlane_hits == twin.fastlane_hits
    assert sim.pending_events == 0 and sim._dead == 0
    assert log == _run(SeedSimulator(), steps, rearm=False)


@settings(max_examples=60, deadline=None)
@given(
    steps=_steps,
    burst_at=st.integers(min_value=0, max_value=8),
    burst_due=st.integers(min_value=1, max_value=14),
)
def test_rearm_survives_compaction_and_dead_heads(steps, burst_at, burst_due):
    """Cross ``_COMPACT_MIN_DEAD`` on purpose in the middle of the program:
    whatever dead entries the timers owned are compacted away (or, for the
    early-due burst, popped as dead heads) — and every later arm still fires
    exactly where the twin's fresh timer does."""

    def with_burst(sim, rearm, check=None):
        def burst():
            extras = [
                sim.timer(burst_due + i % 3, lambda: None)
                for i in range(3 * _COMPACT_MIN_DEAD)
            ]
            for extra in extras:
                extra.cancel()

        sim.at(burst_at, burst)
        return _run(sim, steps, rearm, check)

    sim, twin = Simulator(), Simulator()
    log = with_burst(sim, rearm=True, check=_one_entry_per_timer)
    assert log == with_burst(twin, rearm=False)
    assert (sim.now, sim._seq) == (twin.now, twin._seq)
    assert sim.heap_compactions >= 1
    assert sim.pending_events == 0 and sim._dead == 0

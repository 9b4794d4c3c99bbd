"""Restore semantics: double restore, in-process isolation, mismatch errors."""

import pytest

from repro.checkpoint import (
    FORMAT_VERSION,
    CheckpointMismatch,
    restore,
    take_checkpoint,
)
from repro.verify.fuzz import ScenarioRun, run_scenario, scenario_from_seed


def _paused(sc, t):
    run = ScenarioRun(sc)
    run.run_to(t)
    return run


class TestRestoreTwice:
    def test_two_restores_in_one_process_are_identical(self):
        """Regression for module-level mutable state escaping snapshots.

        When frame-uid / connection-id counters were process globals, the
        second restored simulator in a process continued the first one's
        numbering and diverged.  Both restores must now verify their
        fingerprint and finish with identical results — with both live
        simulators coexisting in this process.
        """
        sc = scenario_from_seed(9, "mixed", "outage")
        reference = run_scenario(sc)
        ck = take_checkpoint(_paused(sc, 1_500_000))

        first = restore(ck)  # fingerprint-verified
        second = restore(ck)  # again, while `first` is still live
        # Interleave: step the second before finishing the first, so any
        # shared hidden state between the two simulators would cross-talk.
        second.run_to(ck.time_ns + 500_000)
        assert first.finish() == reference
        assert second.finish() == reference

    def test_interleaved_fresh_runs_do_not_interfere(self):
        sc_x = scenario_from_seed(9, "mixed", "outage")
        sc_y = scenario_from_seed(10, "bulk", "none")
        ref_x = run_scenario(sc_x)
        ref_y = run_scenario(sc_y)
        run_x, run_y = ScenarioRun(sc_x), ScenarioRun(sc_y)
        run_x.run_to(1_000_000)
        run_y.run_to(1_000_000)
        run_x.run_to(2_000_000)
        assert run_y.finish() == ref_y
        assert run_x.finish() == ref_x


class TestRestoreErrors:
    def test_tampered_fingerprint_raises_with_paths(self):
        sc = scenario_from_seed(9, "mixed", "outage")
        ck = take_checkpoint(_paused(sc, 1_500_000))
        ck.fingerprint = "0" * 64
        # Also tamper one captured leaf so the diff names it.
        path = next(iter(ck.state))
        ck.state = {**ck.state, path: "<tampered>"}
        with pytest.raises(CheckpointMismatch) as exc:
            restore(ck)
        assert any(p == path for p, _, _ in exc.value.diffs)

    def test_format_version_guard(self):
        sc = scenario_from_seed(9, "mixed", "outage")
        ck = take_checkpoint(_paused(sc, 1_500_000))
        ck.format_version = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="format"):
            restore(ck)

    def test_unknown_run_type_rejected(self):
        with pytest.raises(TypeError):
            take_checkpoint(object())


class TestOverrides:
    def test_trace_override_skips_verify_and_replays(self):
        sc = scenario_from_seed(9, "mixed", "outage")
        reference = run_scenario(sc, trace=True)
        ck = take_checkpoint(_paused(sc, 1_500_000))
        traced = restore(ck, trace=True)  # capture shape differs: no verify
        assert traced.trace
        res = traced.finish()
        # The traced replay sees the identical frame sequence.
        assert res.fingerprint == reference.fingerprint


class TestTimerStates:
    """A checkpoint taken while per-frame timers sit in every state a
    re-armable timer can be in — armed on a fresh entry, armed on a revived
    entry that has yet to pop, cancelled with the dead entry still queued —
    restores (fingerprint-verified replay) and finishes like the
    uninterrupted run."""

    @staticmethod
    def _timer_states(cluster):
        states = set()
        for stack in cluster.stacks:
            timers = [nic._coalesce_timer for nic in stack.node.nics]
            for conn in stack.protocol.connections.values():
                timers += [
                    conn.retransmit_timer._timer,
                    conn._delayed_ack_timer,
                    conn._nack_timer,
                ]
            for t in timers:
                entry = t._entry
                if entry is None or len(entry) != 4:
                    continue
                if t.active:
                    states.add("revived" if entry[1] != t._seq else "fresh")
                elif entry[3] is not None:
                    states.add("dead-queued")
        return states

    def test_restore_with_armed_cancelled_and_revived_timers(self):
        sc = scenario_from_seed(9, "mixed", "outage")
        reference = run_scenario(sc)
        paused = _paused(sc, 1_500_000)
        assert self._timer_states(paused.cluster) >= {"revived", "dead-queued"}
        ck = take_checkpoint(paused)
        restored = restore(ck)
        assert self._timer_states(restored.cluster) == self._timer_states(
            paused.cluster
        )
        assert restored.finish() == reference
        assert paused.finish() == reference

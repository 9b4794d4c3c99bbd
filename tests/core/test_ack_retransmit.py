"""Unit tests for ack policy and retransmit timer."""

import pytest

from repro.core import AckPolicy, AckPolicyParams, RetransmitTimer
from repro.core.retransmit import (
    BACKOFF_FACTOR,
    COARSE_TIMEOUT_NS,
    MAX_RETRIES,
    MAX_TIMEOUT_NS,
)
from repro.sim import Simulator


class TestAckPolicy:
    def test_explicit_ack_due_after_threshold(self):
        p = AckPolicy(AckPolicyParams(ack_every_frames=3))
        assert not p.on_data_frame()
        assert not p.on_data_frame()
        assert p.on_data_frame()

    def test_piggyback_resets_counter(self):
        p = AckPolicy(AckPolicyParams(ack_every_frames=3))
        p.on_data_frame()
        p.on_data_frame()
        p.on_ack_emitted(2, piggybacked=True)
        assert not p.on_data_frame()
        assert p.frames_pending_ack == 1

    def test_delayed_ack_needed_only_with_pending(self):
        p = AckPolicy(AckPolicyParams(ack_every_frames=10))
        assert not p.needs_delayed_ack(0)
        p.on_data_frame()
        assert p.needs_delayed_ack(1)
        p.on_ack_emitted(1, piggybacked=False)
        assert not p.needs_delayed_ack(1)

    def test_delayed_ack_when_cum_ack_advanced_silently(self):
        p = AckPolicy(AckPolicyParams())
        p.on_ack_emitted(5, piggybacked=True)
        assert not p.needs_delayed_ack(5)
        assert p.needs_delayed_ack(9)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            AckPolicyParams(ack_every_frames=0)


class TestRetransmitTimer:
    def test_fires_after_timeout(self):
        sim = Simulator()
        fired = []
        t = RetransmitTimer(sim, lambda: fired.append(sim.now))
        t.arm()
        sim.run()
        assert fired == [COARSE_TIMEOUT_NS]

    def test_progress_resets(self):
        sim = Simulator()
        fired = []
        t = RetransmitTimer(sim, lambda: fired.append(sim.now))
        t.arm()
        sim.schedule(COARSE_TIMEOUT_NS // 2, t.on_progress)
        sim.run()
        assert fired == []

    def test_exponential_backoff(self):
        sim = Simulator()
        fired = []

        def on_timeout():
            fired.append(sim.now)
            if len(fired) < 3:
                t.arm()

        t = RetransmitTimer(sim, on_timeout)
        t.arm()
        sim.run()
        # One timeout, then twice it, then four times it.
        assert BACKOFF_FACTOR == 2
        assert fired == [COARSE_TIMEOUT_NS * k for k in (1, 3, 7)]

    def test_backoff_capped(self):
        sim = Simulator()
        fired = []

        def on_timeout():
            fired.append(sim.now)
            if len(fired) < 7:
                t.arm()

        t = RetransmitTimer(sim, on_timeout)
        t.arm()
        sim.run()
        gaps = [b - a for a, b in zip([0] + fired, fired)]
        assert gaps == [
            min(COARSE_TIMEOUT_NS * BACKOFF_FACTOR**i, MAX_TIMEOUT_NS)
            for i in range(7)
        ]
        assert gaps[-1] == gaps[-2] == MAX_TIMEOUT_NS

    def test_dead_connection_callback(self):
        sim = Simulator()
        dead = []

        def on_timeout():
            t.arm()

        t = RetransmitTimer(sim, on_timeout, on_dead=lambda: dead.append(sim.now))
        t.arm()
        sim.run()
        assert len(dead) == 1
        assert t.timeouts_fired == MAX_RETRIES + 1  # the retries + the fatal one

    def test_arm_idempotent(self):
        sim = Simulator()
        fired = []
        t = RetransmitTimer(sim, lambda: fired.append(1))
        t.arm()
        t.arm()
        sim.run()
        assert fired == [1]

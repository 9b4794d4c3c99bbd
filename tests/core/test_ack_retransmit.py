"""Unit tests for ack policy and retransmit timer."""

import pytest

from repro.core import AckPolicy, AckPolicyParams, RetransmitParams, RetransmitTimer
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
        t = RetransmitTimer(
            sim, RetransmitParams(coarse_timeout_ns=1000), fired.append_time
            if False
            else (lambda: fired.append(sim.now)),
        )
        t.arm()
        sim.run()
        assert fired == [1000]

    def test_progress_resets(self):
        sim = Simulator()
        fired = []
        t = RetransmitTimer(
            sim, RetransmitParams(coarse_timeout_ns=1000), lambda: fired.append(sim.now)
        )
        t.arm()
        sim.schedule(500, t.on_progress)
        sim.run()
        assert fired == []

    def test_exponential_backoff(self):
        sim = Simulator()
        fired = []

        def on_timeout():
            fired.append(sim.now)
            if len(fired) < 3:
                t.arm()

        t = RetransmitTimer(
            sim,
            RetransmitParams(coarse_timeout_ns=1000, backoff_factor=2),
            on_timeout,
        )
        t.arm()
        sim.run()
        # 1000, then +2000, then +4000.
        assert fired == [1000, 3000, 7000]

    def test_backoff_capped(self):
        sim = Simulator()
        fired = []

        def on_timeout():
            fired.append(sim.now)
            if len(fired) < 4:
                t.arm()

        t = RetransmitTimer(
            sim,
            RetransmitParams(
                coarse_timeout_ns=1000, backoff_factor=10, max_timeout_ns=2000
            ),
            on_timeout,
        )
        t.arm()
        sim.run()
        assert fired == [1000, 3000, 5000, 7000]

    def test_dead_connection_callback(self):
        sim = Simulator()
        dead = []

        def on_timeout():
            t.arm()

        t = RetransmitTimer(
            sim,
            RetransmitParams(coarse_timeout_ns=100, max_retries=3,
                             backoff_factor=1),
            on_timeout,
            on_dead=lambda: dead.append(sim.now),
        )
        t.arm()
        sim.run()
        assert len(dead) == 1
        assert t.timeouts_fired == 4  # 3 retries + the fatal one

    def test_arm_idempotent(self):
        sim = Simulator()
        fired = []
        t = RetransmitTimer(
            sim, RetransmitParams(coarse_timeout_ns=1000), lambda: fired.append(1)
        )
        t.arm()
        t.arm()
        sim.run()
        assert fired == [1]

    def test_params_validation(self):
        with pytest.raises(ValueError):
            RetransmitParams(coarse_timeout_ns=0)
        with pytest.raises(ValueError):
            RetransmitParams(backoff_factor=0)

"""Unit tests for the per-edge failure-detector state machine."""

from repro.control import EdgeFailureDetector, EdgeState
from repro.control.detector import (
    CONFIRM_WINDOW_NS,
    DETECT_BOUND_NS,
    PROBE_INTERVAL_NS,
    PROBE_TIMEOUT_NS,
    RECOVERY_PROBES,
    SUSPECT_AFTER_LOSSES,
)

MS = 1_000_000


def make(transitions=None):
    cb = None
    if transitions is not None:
        def cb(rail, old, new, now, reason):
            transitions.append((now, old, new, reason))
    return EdgeFailureDetector(0, on_transition=cb)


def test_starts_up():
    det = make()
    assert det.state is EdgeState.UP


def test_detect_bound_formula():
    assert DETECT_BOUND_NS == (
        SUSPECT_AFTER_LOSSES * PROBE_INTERVAL_NS
        + PROBE_TIMEOUT_NS
        + CONFIRM_WINDOW_NS
        + 2 * PROBE_INTERVAL_NS
    )
    assert DETECT_BOUND_NS == 7 * MS


def test_single_loss_does_not_suspect():
    det = make()
    det.on_probe_loss(1 * MS, 0.9)
    assert det.state is EdgeState.UP


def test_consecutive_losses_suspect_then_confirm_down():
    log = []
    det = make(transitions=log)
    det.on_probe_loss(1 * MS, 0.9)
    det.on_probe_loss(2 * MS, 0.8)
    assert det.state is EdgeState.SUSPECT
    # Within the confirm window: still only suspect.
    det.on_probe_loss(2 * MS + 500_000, 0.6)
    assert det.state is EdgeState.SUSPECT
    det.on_probe_loss(3 * MS + 100_000, 0.5)
    assert det.state is EdgeState.DOWN
    assert [(old, new) for _, old, new, _ in log] == [
        (EdgeState.UP, EdgeState.SUSPECT),
        (EdgeState.SUSPECT, EdgeState.DOWN),
    ]


def test_success_resets_consecutive_losses():
    det = make()
    det.on_probe_loss(1 * MS, 0.9)
    det.on_probe_success(2 * MS, 0.95)
    det.on_probe_loss(3 * MS, 0.9)
    assert det.state is EdgeState.UP
    assert det.consecutive_losses == 1


def test_low_score_suspects_even_on_success():
    det = make()
    det.on_probe_success(1 * MS, 0.2)
    assert det.state is EdgeState.SUSPECT


def test_suspect_recovers_on_good_score():
    det = make()
    det.on_probe_loss(1 * MS, 0.9)
    det.on_probe_loss(2 * MS, 0.8)
    assert det.state is EdgeState.SUSPECT
    det.on_probe_success(3 * MS, 0.9)
    assert det.state is EdgeState.UP
    assert det.suspect_since is None


def test_full_lifecycle_up_down_recovering_up():
    assert RECOVERY_PROBES == 2
    det = make()
    det.on_probe_loss(1 * MS, 0.5)
    det.on_probe_loss(2 * MS, 0.3)
    det.on_probe_loss(4 * MS, 0.1)
    assert det.state is EdgeState.DOWN
    det.on_probe_success(10 * MS, 0.5)
    assert det.state is EdgeState.RECOVERING
    det.on_probe_success(11 * MS, 0.8)
    assert det.state is EdgeState.UP


def test_loss_during_recovery_goes_back_down():
    det = make()
    det.force_down(1 * MS)
    det.on_probe_success(2 * MS, 0.5)
    assert det.state is EdgeState.RECOVERING
    det.on_probe_loss(3 * MS, 0.4)
    assert det.state is EdgeState.DOWN


def test_force_down_and_up_are_idempotent():
    log = []
    det = make(transitions=log)
    det.force_down(1 * MS)
    det.force_down(2 * MS)
    assert det.state is EdgeState.DOWN
    det.force_up(3 * MS)
    det.force_up(4 * MS)
    assert det.state is EdgeState.UP
    assert len(log) == 2


def test_transition_callback_payload():
    log = []
    det = make(transitions=log)
    det.force_down(7 * MS, "cable pulled")
    now, old, new, reason = log[0]
    assert now == 7 * MS
    assert old is EdgeState.UP and new is EdgeState.DOWN
    assert reason == "cable pulled"

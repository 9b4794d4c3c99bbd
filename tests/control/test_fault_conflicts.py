"""FaultSchedule conflict validation (FaultScheduleError).

Overlapping or contradictory fault windows were previously accepted
silently and produced nonsense (a window expiry "repairing" a crashed
node, a second gray window clobbering the first's saved pristine
state).  ``FaultSchedule.validate()`` — run automatically by
``apply()`` — now rejects them with a typed error naming both events.
"""

import pytest

from repro.bench import make_cluster
from repro.control import (
    Crash,
    DegradedLink,
    FaultSchedule,
    FaultScheduleError,
    IntermittentDrop,
    Outage,
    Restart,
    SlowNic,
    SlowNode,
    TrunkDrain,
    TrunkOutage,
)

MS = 1_000_000


def test_error_type_is_a_value_error():
    # Callers that caught ValueError keep working.
    assert issubclass(FaultScheduleError, ValueError)


def test_overlapping_gray_windows_same_edge_rejected():
    sched = FaultSchedule(
        [
            DegradedLink(at_ns=1 * MS, node=0, rail=0, duration_ns=4 * MS),
            IntermittentDrop(at_ns=3 * MS, node=0, rail=0, duration_ns=2 * MS),
        ]
    )
    with pytest.raises(FaultScheduleError, match="overlapping gray windows"):
        sched.validate()


def test_overlapping_slow_node_windows_rejected():
    sched = FaultSchedule(
        [
            SlowNode(at_ns=1 * MS, node=2, duration_ns=4 * MS),
            SlowNode(at_ns=2 * MS, node=2, duration_ns=1 * MS),
        ]
    )
    with pytest.raises(FaultScheduleError):
        sched.validate()


def test_overlapping_drains_of_one_trunk_rejected():
    # The first drain's end would re-enable the trunk under the second;
    # the switch names may come in either order.
    sched = FaultSchedule(
        [
            TrunkDrain(at_ns=1 * MS, rail=0, a="leaf0.0", b="spine0.0",
                       duration_ns=4 * MS),
            TrunkDrain(at_ns=3 * MS, rail=0, a="spine0.0", b="leaf0.0",
                       duration_ns=4 * MS),
        ]
    )
    with pytest.raises(FaultScheduleError, match="drains on one target"):
        sched.validate()


def test_disjoint_windows_and_distinct_targets_pass():
    FaultSchedule(
        [
            # One trunk: back-to-back drains, and an outage (which composes
            # by max) inside one; another trunk and another rail overlap.
            TrunkDrain(at_ns=1 * MS, rail=0, a="leaf0.0", b="spine0.0",
                       duration_ns=2 * MS),
            TrunkDrain(at_ns=3 * MS, rail=0, a="leaf0.0", b="spine0.0",
                       duration_ns=2 * MS),
            TrunkOutage(at_ns=1 * MS, rail=0, a="leaf0.0", b="spine0.0",
                        duration_ns=9 * MS),
            TrunkDrain(at_ns=1 * MS, rail=0, a="leaf0.0", b="spine0.1",
                       duration_ns=9 * MS),
            TrunkDrain(at_ns=1 * MS, rail=1, a="leaf0.0", b="spine0.0",
                       duration_ns=9 * MS),
            # Same edge, back to back (end is exclusive).
            DegradedLink(at_ns=1 * MS, node=0, rail=0, duration_ns=2 * MS),
            IntermittentDrop(at_ns=3 * MS, node=0, rail=0, duration_ns=2 * MS),
            # Overlapping in time but on different rails / nodes.
            SlowNic(at_ns=1 * MS, node=0, rail=1, duration_ns=9 * MS),
            SlowNode(at_ns=1 * MS, node=1, duration_ns=9 * MS),
        ]
    ).validate()


def test_crash_inside_gray_window_rejected():
    sched = FaultSchedule(
        [
            SlowNode(at_ns=1 * MS, node=1, duration_ns=5 * MS),
            Crash(at_ns=3 * MS, node=1),
        ]
    )
    with pytest.raises(FaultScheduleError, match="crash inside"):
        sched.validate()


def test_crash_inside_outage_window_rejected():
    sched = FaultSchedule(
        [
            Outage(at_ns=1 * MS, node=1, rail=0, duration_ns=5 * MS),
            Crash(at_ns=2 * MS, node=1),
        ]
    )
    with pytest.raises(FaultScheduleError):
        sched.validate()


def test_crash_outside_window_of_other_node_passes():
    FaultSchedule(
        [
            SlowNode(at_ns=1 * MS, node=1, duration_ns=2 * MS),
            Crash(at_ns=4 * MS, node=1),  # after the window
            Restart(at_ns=4 * MS, node=1, delay_ns=1 * MS),
            Crash(at_ns=2 * MS, node=2),  # inside, but a different node
            Restart(at_ns=2 * MS, node=2, delay_ns=1 * MS),
        ]
    ).validate()


def test_double_crash_without_restart_rejected():
    sched = FaultSchedule(
        [Crash(at_ns=1 * MS, node=0), Crash(at_ns=3 * MS, node=0)]
    )
    with pytest.raises(FaultScheduleError, match="second crash"):
        sched.validate()


def test_crash_restart_crash_passes():
    FaultSchedule(
        [
            Crash(at_ns=1 * MS, node=0),
            Restart(at_ns=1 * MS, node=0, delay_ns=1 * MS),
            Crash(at_ns=4 * MS, node=0),
            Restart(at_ns=4 * MS, node=0, delay_ns=1 * MS),
        ]
    ).validate()


def test_restart_landing_after_second_crash_rejected():
    # The restart "takes effect" at at_ns + delay_ns = 5ms, after the
    # second crash at 3ms — so the second crash hits a corpse.
    sched = FaultSchedule(
        [
            Crash(at_ns=1 * MS, node=0),
            Restart(at_ns=1 * MS, node=0, delay_ns=4 * MS),
            Crash(at_ns=3 * MS, node=0),
        ]
    )
    with pytest.raises(FaultScheduleError):
        sched.validate()


def test_apply_runs_validation():
    cluster = make_cluster("1L-1G", nodes=2)
    sched = FaultSchedule(
        [
            SlowNode(at_ns=1 * MS, node=1, duration_ns=4 * MS),
            SlowNode(at_ns=2 * MS, node=1, duration_ns=4 * MS),
        ]
    )
    with pytest.raises(FaultScheduleError):
        sched.apply(cluster)

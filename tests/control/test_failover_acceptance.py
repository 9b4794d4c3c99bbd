"""The ISSUE's failover acceptance scenario, end to end.

On a two-rail connection carrying a continuous stream, killing one rail
mid-transfer must be (a) detected within the configured detect window,
(b) survived with intact bytes, (c) degraded to no worse than 45% of the
two-rail baseline goodput, and (d) fully undone when the rail is
re-added — with the whole run bit-deterministic across repeats.
"""

from repro.bench import run_failover
from repro.control import EdgeState
from repro.control.detector import DETECT_BOUND_NS

MS = 1_000_000

KILL_NS = 10 * MS
REPAIR_NS = 60 * MS
RUN_NS = 100 * MS


def run_once():
    return run_failover(
        config="2Lu-1G",
        kill_ns=KILL_NS,
        repair_ns=REPAIR_NS,
        run_ns=RUN_NS,
        seed=0,
    )


def fingerprint(result):
    """Every observable of a run, for bit-determinism comparison."""
    return (
        result.chunks_sent,
        result.data_intact,
        result.detected_ns,
        result.recovered_ns,
        result.baseline_goodput_bps,
        result.degraded_goodput_bps,
        result.recovered_goodput_bps,
        result.probe_frames,
        result.wire_frames,
        tuple(
            (t.time_ns, t.rail, t.old.value, t.new.value, t.reason)
            for t in result.transitions
        ),
    )


def test_failover_acceptance():
    result = run_once()

    # (a) detection within the configured window.
    bound = DETECT_BOUND_NS
    assert result.detected_ns is not None, "rail death never detected"
    assert result.detect_latency_ns <= bound, (
        f"detected after {result.detect_latency_ns} ns, bound is {bound} ns"
    )

    # (b) the transfer keeps going and every byte arrives intact.
    assert result.data_intact
    assert result.chunks_sent > 0

    # (c) steady-state goodput after failover >= 45% of the 2-rail baseline.
    assert result.degraded_fraction >= 0.45, (
        f"degraded goodput is only {result.degraded_fraction:.1%} of baseline"
    )

    # (d) re-adding the rail restores striping across both rails: the edge
    # walks DOWN -> RECOVERING -> UP and goodput returns to baseline level.
    states = [t.new for t in result.transitions if t.rail == 0]
    assert EdgeState.DOWN in states
    assert EdgeState.RECOVERING in states
    assert states[-1] is EdgeState.UP
    assert result.recovered_ns is not None
    assert result.recovered_goodput_bps >= 0.9 * result.baseline_goodput_bps, (
        "re-striping after repair did not restore two-rail goodput"
    )


def test_failover_is_bit_deterministic():
    assert fingerprint(run_once()) == fingerprint(run_once())

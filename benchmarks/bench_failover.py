"""Failover benchmarks: detection latency and degraded/recovered goodput.

Measures what the edge lifecycle control plane (``repro.control``) costs
and delivers when a rail dies mid-transfer on the paper's two-rail
configurations, recorded to ``BENCH_failover.json`` at the repo root:

* **detection latency** — simulated ns from cable kill to the sender's
  detector declaring the edge DOWN, vs the configured analytic bound
  (``repro.control.detector.DETECT_BOUND_NS``);
* **degraded goodput** — steady-state goodput on the surviving rail as a
  fraction of the two-rail baseline (floor: 45%);
* **recovered goodput** — goodput after the rail is repaired and
  re-striped, vs the pre-kill baseline;
* **probe overhead** — heartbeat frames as a fraction of all wire frames
  during a healthy bulk transfer.

Invocations:

* smoke —
  ``PYTHONPATH=src python -m pytest benchmarks/bench_failover.py -k smoke``
  (seconds; asserts the acceptance floors on 2Lu-1G);
* full —
  ``PYTHONPATH=src python -m pytest benchmarks/bench_failover.py -m slow``
  (adds the probe overhead of a healthy run).  2L-1G and adaptive striping
  are not measured: on this sequential chunk-then-wait stream they give
  the 2Lu-1G numbers exactly (EXPERIMENTS.md).
"""

import json

import pytest
from conftest import record

from repro.bench.failover import run_failover
from repro.control.detector import DETECT_BOUND_NS, PROBE_INTERVAL_NS


MS = 1_000_000

# Acceptance floors (ISSUE acceptance criteria).
MIN_DEGRADED_FRACTION = 0.45


def _point(config: str) -> dict:
    result = run_failover(
        config=config,
        kill_ns=10 * MS,
        repair_ns=60 * MS,
        run_ns=100 * MS,
    )
    assert result.data_intact, f"{config}: corrupted data after failover"
    assert result.detected_ns is not None, f"{config}: failure never detected"
    return {
        "config": config,
        "chunks_sent": result.chunks_sent,
        "detect_latency_ns": result.detect_latency_ns,
        "detect_bound_ns": DETECT_BOUND_NS,
        "baseline_goodput_mbps": round(result.baseline_goodput_bps / 1e6, 1),
        "degraded_goodput_mbps": round(result.degraded_goodput_bps / 1e6, 1),
        "degraded_fraction": round(result.degraded_fraction, 3),
        "recovered_goodput_mbps": round(result.recovered_goodput_bps / 1e6, 1),
        "transitions": len(result.transitions),
    }


def test_failover_smoke():
    """Acceptance floors on the out-of-order two-rail configuration."""
    point = _point("2Lu-1G")
    report = {"failover_2Lu_1G": point}
    record("failover", report)
    print(json.dumps(report, indent=2))
    assert point["detect_latency_ns"] <= point["detect_bound_ns"], (
        f"detection took {point['detect_latency_ns']} ns, "
        f"over the {point['detect_bound_ns']} ns bound"
    )
    assert point["degraded_fraction"] >= MIN_DEGRADED_FRACTION, (
        f"degraded goodput {point['degraded_fraction']:.1%} of baseline, "
        f"below the {MIN_DEGRADED_FRACTION:.0%} floor"
    )
    assert point["recovered_goodput_mbps"] >= point["degraded_goodput_mbps"], (
        "re-adding the rail did not improve goodput"
    )


@pytest.mark.slow
def test_failover_full():
    """Probe overhead on a healthy run."""
    report = {}
    # Probe overhead: healthy 2-rail run, no faults (kill scheduled after
    # the stream ends, so both rails stay up throughout).
    healthy = run_failover(
        config="2Lu-1G", kill_ns=200 * MS, repair_ns=None, run_ns=50 * MS
    )
    assert healthy.data_intact
    report["probe_overhead"] = {
        "probe_interval_ns": PROBE_INTERVAL_NS,
        "goodput_mbps": round(healthy.baseline_goodput_bps / 1e6, 1),
        "probe_frames": healthy.probe_frames,
        "wire_frames": healthy.wire_frames,
        "probe_frame_fraction": round(healthy.probe_overhead, 4),
    }
    assert healthy.probe_overhead < 0.10, (
        f"heartbeats are {healthy.probe_overhead:.1%} of wire frames"
    )
    record("failover", report)
    print(json.dumps(report, indent=2))

"""Crash benchmarks: whole-node failure, reconnect latency, exactly-once.

Measures what the crash recovery subsystem (``repro.recovery``) delivers
when the receiver of an exactly-once message stream dies mid-run and
reboots, recorded to ``BENCH_crash.json`` at the repo root:

* **recovery timeline** — crash, restart, sender-side PEER_DOWN
  detection, and reconnect-established times for one run;
* **reconnect latency** — detection to re-established connection, vs the
  parameter-derived bound
  (:func:`~repro.recovery.reconnect_bound_ns`);
* **recovered goodput** — post-reconnect delivery goodput as a fraction
  of the pre-crash baseline (floor: 95%);
* **exactly-once accounting** — journal redeliveries, receiver-side
  duplicate suppression, and a receiver log holding each message exactly
  once.

Invocations:

* smoke —
  ``PYTHONPATH=src python -m pytest benchmarks/bench_crash.py -k smoke``
  (seconds; asserts the acceptance floors on 2Lu-1G);
* full —
  ``PYTHONPATH=src python -m pytest benchmarks/bench_crash.py -m slow``
  (adds a long boot delay).  2L-1G is not measured: this paced stream of
  small messages is insensitive to delivery order and gives the 2Lu-1G
  numbers exactly (EXPERIMENTS.md).
"""

import json

import pytest
from conftest import record

from repro.bench.crash import run_crash
from repro.verify.fuzz import run_family


MS = 1_000_000

# Acceptance floors (ISSUE acceptance criteria).
MIN_RECOVERED_FRACTION = 0.95


def _point(config: str, restart_delay_ns: int = 5 * MS, **kw) -> dict:
    result = run_crash(
        config=config, restart_delay_ns=restart_delay_ns, **kw
    )
    assert result.ok, f"{config}: {result.violations}"
    return {
        "config": config,
        "messages_sent": result.messages_sent,
        "redeliveries": result.redeliveries,
        "duplicates_suppressed": result.duplicates_suppressed,
        "stale_frames_rejected": result.stale_frames_rejected,
        "timeline_ns": dict(result.timeline),
        "reconnect_latency_ns": result.reconnect_latency_ns,
        "reconnect_bound_ns": result.reconnect_bound_ns,
        "pre_crash_goodput_mbps": round(result.pre_crash_goodput_bps / 1e6, 1),
        "recovered_goodput_mbps": round(
            result.recovered_goodput_bps / 1e6, 1
        ),
        "recovered_fraction": round(result.recovered_fraction, 3),
    }


def test_crash_smoke():
    """Acceptance floors on the out-of-order two-rail configuration."""
    point = _point("2Lu-1G")
    report = {"crash_2Lu_1G": point}
    record("crash", report)
    print(json.dumps(report, indent=2))
    assert point["reconnect_latency_ns"] <= point["reconnect_bound_ns"], (
        f"reconnect took {point['reconnect_latency_ns']} ns, "
        f"over the {point['reconnect_bound_ns']} ns bound"
    )
    assert point["recovered_fraction"] >= MIN_RECOVERED_FRACTION, (
        f"recovered goodput {point['recovered_fraction']:.1%} of baseline, "
        f"below the {MIN_RECOVERED_FRACTION:.0%} floor"
    )


def test_crash_fuzz():
    """200 randomized crash scenarios: exactly-once, zero stale accepted.

    150 whole-node crash/reboot runs (journal redelivery + dedup) plus 50
    incarnation-collision runs (same connection id re-dialed by a fresh
    incarnation while dead-incarnation frames are still in the fabric).
    Every run carries the invariant monitor, whose stale-frame-accepted
    and journal-conservation checks must stay silent.
    """
    crash = [run_family("crash", seed) for seed in range(150)]
    incarnation = [run_family("incarnation", seed) for seed in range(50)]
    failures = [
        f"{r.family} seed={r.seed}: {r.failure}"
        for r in crash + incarnation
        if not r.ok
    ]
    assert not failures, "\n".join(failures)
    redeliveries = sum(r.result.redeliveries for r in crash)
    dups = sum(r.result.duplicates_suppressed for r in crash) + sum(
        r.result.duplicate_msgs_suppressed for r in incarnation
    )
    stale = sum(r.result.stale_frames_rejected for r in crash)
    incarnation_stale = sum(r.result.stale_frames_rejected for r in incarnation)
    # The suppression paths must actually be exercised, not just silent.
    assert redeliveries > 0, "no crash scenario redelivered anything"
    assert dups > 0, "duplicate suppression never triggered"
    assert incarnation_stale > 0, "stale-incarnation rejection never triggered"
    record(
        "crash",
        {
            "crash_fuzz": {
                "crash_scenarios": 150,
                "incarnation_scenarios": 50,
                "redeliveries": redeliveries,
                "duplicates_suppressed": dups,
                "stale_frames_rejected": stale + incarnation_stale,
                "failures": 0,
            }
        }
    )


@pytest.mark.slow
def test_crash_full():
    """A slow-boot run."""
    report = {}
    # Long boot: the reconnect dial must ride its backoff until the peer
    # is actually listening again.
    slow_boot = _point("2Lu-1G", restart_delay_ns=20 * MS, run_ns=80 * MS)
    report["crash_slow_boot"] = slow_boot
    assert slow_boot["reconnect_latency_ns"] <= slow_boot["reconnect_bound_ns"]
    assert slow_boot["recovered_fraction"] >= MIN_RECOVERED_FRACTION

    record("crash", report)
    print(json.dumps(report, indent=2))

"""Congestion-control benchmarks: incast goodput collapse and recovery.

Measures what ``repro.congestion`` delivers on the many-to-one pattern
that motivates it, recorded to ``BENCH_congestion.json`` at the repo
root:

* **incast sweep** — 4/8/16 senders converging on one receiver for each
  controller (static window, AIMD, DCTCP+ECN).  Acceptance floors at
  16-to-1: each adaptive controller must cut switch tail drops by at
  least half *and* beat the static window's goodput;
* **single-flow parity** — with one sender there is no congestion, so
  every controller must produce the identical run (the adaptive cwnd
  starts at the full window and nothing ever shrinks it);
* **determinism** — the same configuration twice yields a byte-identical
  :class:`~repro.bench.incast.IncastResult`.

Invocations:

* smoke —
  ``PYTHONPATH=src python -m pytest benchmarks/bench_congestion.py -k smoke``
  (seconds; asserts the acceptance floors);
* full —
  ``PYTHONPATH=src python -m pytest benchmarks/bench_congestion.py -m slow``
  (adds ECN-assisted AIMD, pacing variants, and a 24-sender point).
"""

import dataclasses
import json

import pytest
from conftest import record

from repro.bench.incast import run_incast


# Acceptance floors (ISSUE acceptance criteria).
MIN_DROP_REDUCTION = 0.50  # adaptive controllers halve tail drops at 16:1
ECN_THRESHOLD = 32  # frames; receiver queue is 160 on 1L-1G

# The sweep's controller variants: (label, controller, ecn threshold).
VARIANTS = (
    ("static", "static", None),
    ("aimd", "aimd", None),
    ("dctcp", "dctcp", ECN_THRESHOLD),
)


def _point(
    senders: int, congestion: str, ecn: int | None, **kw
) -> dict:
    r = run_incast(
        senders=senders,
        congestion=congestion,
        ecn_threshold_frames=ecn,
        **kw,
    )
    cwnds = r.final_cwnd_frames
    return {
        "senders": senders,
        "congestion": congestion,
        "ecn_threshold_frames": ecn,
        "goodput_mbps": round(r.goodput_bps / 1e6, 2),
        "elapsed_ns": r.elapsed_ns,
        "dropped_queue_full": r.dropped_queue_full,
        "peak_queue_depth": r.peak_queue_depth,
        "retransmissions": r.retransmissions,
        "timeout_retransmits": r.timeout_retransmits,
        "ce_marked": r.ce_marked,
        "ecn_echoes_received": r.ecn_echoes_received,
        "pacing_stall_ms": round(r.pacing_stall_ns / 1e6, 2),
        "final_cwnd_mean": (
            round(sum(cwnds) / len(cwnds), 1) if cwnds else None
        ),
    }


def test_congestion_smoke():
    """Incast sweep + acceptance floors + parity + determinism."""
    sweep = []
    by_key = {}
    for senders in (4, 8, 16):
        for label, congestion, ecn in VARIANTS:
            point = _point(senders, congestion, ecn)
            sweep.append(point)
            by_key[(senders, label)] = point

    # Acceptance floors at 16-to-1.
    static = by_key[(16, "static")]
    assert static["dropped_queue_full"] > 0, (
        "16:1 incast did not overflow the switch queue; the scenario is "
        "not exercising congestion at all"
    )
    for label in ("aimd", "dctcp"):
        adaptive = by_key[(16, label)]
        reduction = 1 - (
            adaptive["dropped_queue_full"] / static["dropped_queue_full"]
        )
        assert reduction >= MIN_DROP_REDUCTION, (
            f"{label}: only cut tail drops by {reduction:.0%} "
            f"({adaptive['dropped_queue_full']} vs "
            f"{static['dropped_queue_full']}), floor is "
            f"{MIN_DROP_REDUCTION:.0%}"
        )
        assert adaptive["goodput_mbps"] > static["goodput_mbps"], (
            f"{label}: {adaptive['goodput_mbps']} Mbps did not beat the "
            f"static window's {static['goodput_mbps']} Mbps at 16:1"
        )
    assert by_key[(16, "dctcp")]["ce_marked"] > 0, "ECN never marked a frame"
    assert by_key[(16, "dctcp")]["ecn_echoes_received"] > 0, (
        "no ECN echo ever reached a sender"
    )

    # Single-flow parity: one sender sees no congestion, so the adaptive
    # controllers must not perturb the run at all.
    single = {
        label: run_incast(senders=1, congestion=congestion,
                          ecn_threshold_frames=ecn)
        for label, congestion, ecn in VARIANTS
    }
    base = single["static"]
    for label, r in single.items():
        assert r.elapsed_ns == base.elapsed_ns, (
            f"single-flow {label} took {r.elapsed_ns} ns vs static "
            f"{base.elapsed_ns} ns"
        )
        assert r.dropped_queue_full == 0 and r.retransmissions == 0

    # Determinism witness: same parameters, same bytes.
    first = run_incast(senders=8, congestion="dctcp",
                       ecn_threshold_frames=ECN_THRESHOLD)
    second = run_incast(senders=8, congestion="dctcp",
                        ecn_threshold_frames=ECN_THRESHOLD)
    assert dataclasses.asdict(first) == dataclasses.asdict(second), (
        "identical incast configurations diverged"
    )

    report = {
        "incast_sweep_1L_1G": sweep,
        "single_flow_parity": {
            label: r.elapsed_ns for label, r in single.items()
        },
    }
    record("congestion", report)
    print(json.dumps(report, indent=2))


@pytest.mark.slow
def test_congestion_full():
    """ECN-assisted AIMD, pacing, a wider fan-in, and data integrity."""
    report = {}

    # ECN-assisted AIMD and pacing variants at 16:1.
    variants = []
    variants.append(_point(16, "aimd", ECN_THRESHOLD))
    for label, congestion in (("aimd", "aimd"), ("dctcp", "dctcp")):
        variants.append(
            _point(16, congestion, ECN_THRESHOLD, pacing=True)
        )
    report["incast_variants_16"] = variants
    for point in variants:
        assert point["dropped_queue_full"] < 11_000  # far below static

    # Pacing actually pushed departures back.
    paced = variants[1]
    assert paced["pacing_stall_ms"] > 0, "pacing never delayed a frame"

    # Wider fan-in still completes and still beats static.
    static24 = _point(24, "static", None)
    dctcp24 = _point(24, "dctcp", ECN_THRESHOLD)
    report["incast_24"] = [static24, dctcp24]
    assert dctcp24["goodput_mbps"] > static24["goodput_mbps"]

    # End-to-end integrity with real payloads under heavy loss.
    r = run_incast(senders=16, congestion="dctcp",
                   ecn_threshold_frames=ECN_THRESHOLD, verify_data=True)
    assert r.data_intact, "receiver memory corrupted under incast"
    report["integrity_16_dctcp"] = {"data_intact": r.data_intact}

    record("congestion", report)
    print(json.dumps(report, indent=2))

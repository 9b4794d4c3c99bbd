"""Datacenter fabric benchmarks: oversubscribed incast and ECMP balance.

Measures what ``repro.fabric`` delivers on a 3:1-oversubscribed
leaf-spine (3 leaves x 6 hosts over 2 spine uplinks, 1 GbE everywhere),
recorded to ``BENCH_fabric.json`` at the repo root:

* **fabric incast** — the PR 4 controller comparison (static window,
  AIMD, DCTCP+ECN) pushed across the multi-switch fabric: 16 senders on
  leaves 0-2 converge on one receiver behind the last leaf, so queues
  now build at trunk ports as well as the access port.  Acceptance
  floors: each adaptive controller must cut switch tail drops by at
  least half at equal-or-better goodput;
* **ECMP evenness** — a 16-round permutation matrix; the max/min byte
  ratio across the spines must stay within 1.25 (the flow hash spreads
  offered load evenly);
* **fingerprint stability** — the single-switch fuzz fingerprints are
  re-pinned here, byte-identical: adding the fabric subsystem must not
  perturb the default path;
* **fabric fuzz** — randomized topologies/traffic with trunk churn keep
  every routing invariant (acyclicity, ECMP determinism, conservation);
* **determinism** — the same fabric configuration twice yields a
  byte-identical result.

Invocations:

* smoke —
  ``PYTHONPATH=src python -m pytest benchmarks/bench_fabric.py -k smoke``
  (asserts the acceptance floors);
* full —
  ``PYTHONPATH=src python -m pytest benchmarks/bench_fabric.py -m slow``
  (adds fat-tree matrices, trunk-failure rerouting, more fuzz seeds).
"""

import dataclasses
import json

import pytest
from conftest import record

from repro.bench import make_cluster, run_incast
from repro.fabric import AllToAll, FatTreeSpec, Permutation, leaf_spine_3to1, run_traffic
from repro.control import FaultSchedule, TrunkOutage
from repro.verify.fuzz import run_family


# Acceptance floors (ISSUE acceptance criteria).
MIN_DROP_REDUCTION = 0.50  # adaptive controllers halve drops at 16:1
MAX_ECMP_RATIO = 1.25  # max/min spine byte ratio on a permutation
ECN_THRESHOLD = 32
EVENNESS_SEED = 5  # deterministic; rounds=16 keeps the ratio tight

# The controller variants, mirroring benchmarks/bench_congestion.py.
VARIANTS = (
    ("static", "static", None),
    ("aimd", "aimd", None),
    ("dctcp", "dctcp", ECN_THRESHOLD),
)

# Single-switch fuzz fingerprints, pinned to the same values as
# tests/verify/test_fuzz.py: the fabric subsystem draws every new knob
# from its own RNG streams, so the default path stays byte-identical.
PINNED_FINGERPRINTS = {
    0: "9602b13563a225033d17f44a8a7f6a000f1b3aead3b7963aa5c0ca5e7e52a5dd",
    1: "7170900315165228ba1ed4ae8da7bb44c21b88c9ee64e60bb7f938c2b8699302",
    7: "a35296563d99515e316e117ef054870dd6e0b7dc34ebec061a8eb1fb1839ac23",
    42: "54c8bf57395628440066e52fa19dc508abb7d9180530e7c1ab85d0bfff4ca7c4",
    123: "8e62a7d62f364e104b71b44a396848168507bac1306179dbe03f2a1a9440fea0",
}


def _point(congestion: str, ecn: int | None) -> dict:
    # 16 senders on leaves 0-2 converge on node 16 behind the last leaf:
    # most frames cross two trunk hops.
    r = run_incast(
        config="1L-1G", senders=16, congestion=congestion,
        ecn_threshold_frames=ecn, fabric=leaf_spine_3to1(),
    )
    assert r.routing_violations == [], r.routing_violations
    return {
        "congestion": congestion,
        "ecn_threshold_frames": ecn,
        "goodput_mbps": round(r.goodput_bps / 1e6, 2),
        "elapsed_ns": r.elapsed_ns,
        "dropped_queue_full": r.dropped_queue_full,
        "peak_queue_depth": r.peak_queue_depth,
        "retransmissions": r.retransmissions,
        "ce_marked": r.ce_marked,
        "per_switch_drops": r.per_switch_drops,
    }


def test_fabric_smoke():
    """Incast floors + ECMP evenness + fingerprints + fuzz + determinism."""
    points = {}
    for label, congestion, ecn in VARIANTS:
        points[label] = _point(congestion, ecn)

    static = points["static"]
    assert static["dropped_queue_full"] > 0, (
        "16:1 fabric incast did not overflow any switch queue; the "
        "scenario is not exercising congestion at all"
    )
    for label in ("aimd", "dctcp"):
        adaptive = points[label]
        reduction = 1 - (
            adaptive["dropped_queue_full"] / static["dropped_queue_full"]
        )
        assert reduction >= MIN_DROP_REDUCTION, (
            f"{label}: only cut drops by {reduction:.0%} "
            f"({adaptive['dropped_queue_full']} vs "
            f"{static['dropped_queue_full']}), floor is "
            f"{MIN_DROP_REDUCTION:.0%}"
        )
        assert adaptive["goodput_mbps"] >= static["goodput_mbps"], (
            f"{label}: {adaptive['goodput_mbps']} Mbps fell below the "
            f"static window's {static['goodput_mbps']} Mbps at 16:1"
        )
    assert points["dctcp"]["ce_marked"] > 0, "ECN never marked a frame"

    # ECMP evenness on a 16-round permutation matrix: the max/min spine
    # byte ratio (1.0 = perfect).
    cluster = make_cluster(
        "1L-1G", nodes=18, seed=EVENNESS_SEED, synthetic_payloads=False,
        fabric=leaf_spine_3to1(),
    )
    evenness = run_traffic(
        cluster, Permutation(16_000, rounds=16), seed=EVENNESS_SEED
    )
    assert not evenness.violations, evenness.violations
    ratio = evenness.ecmp_evenness
    assert ratio <= MAX_ECMP_RATIO, (
        f"ECMP spine byte ratio {ratio:.3f} exceeds {MAX_ECMP_RATIO}"
    )

    # Single-switch fingerprints must not drift.
    for seed, expected in PINNED_FINGERPRINTS.items():
        res = run_family("protocol", seed)
        assert res.ok, f"seed {seed}: {res.failure}"
        assert res.fingerprint == expected, (
            f"seed {seed} fingerprint drifted: {res.fingerprint}"
        )

    # Randomized fabrics with trunk churn keep the routing invariants.
    fuzz = [run_family("fabric", seed) for seed in range(6)]
    for r in fuzz:
        assert r.ok, f"fabric fuzz seed {r.seed}: {r.failure}"

    # Determinism witness: same parameters, same bytes.  ECMP hashes the
    # connection id, which every fresh cluster allocates from 1, so no
    # earlier run in this process moves a path.
    witness = dict(
        config="1L-1G", senders=8, congestion="dctcp",
        ecn_threshold_frames=ECN_THRESHOLD, fabric=leaf_spine_3to1(),
    )
    first, second = run_incast(**witness), run_incast(**witness)
    assert dataclasses.asdict(first) == dataclasses.asdict(second), (
        "identical fabric incast configurations diverged"
    )

    report = {
        "fabric_incast_16_leafspine_3to1": list(points.values()),
        "ecmp_evenness_permutation": {
            "seed": EVENNESS_SEED,
            "rounds": 16,
            "bytes_per_flow": 16_000,
            "spine_byte_ratio": round(ratio, 4),
            "trunk_byte_ratio": round(evenness.trunk_evenness, 4),
            "uplink_bytes": {
                f"{lo}->{hi}": b
                for (lo, hi), b in sorted(evenness.uplink_bytes.items())
            },
        },
        "fabric_fuzz": [
            {
                "seed": r.seed,
                "topology": r.scenario.topology,
                "traffic": r.scenario.traffic,
                "trunk_events": len(r.scenario.trunk_events),
                "flows": r.result.flows,
                "repins": r.result.repins,
                "switch_drops": r.result.switch_drops,
            }
            for r in fuzz
        ],
        "single_switch_fingerprints_stable": sorted(PINNED_FINGERPRINTS),
    }
    record("fabric", report)
    print(json.dumps(report, indent=2))


@pytest.mark.slow
def test_fabric_full():
    """Fat-tree matrices, trunk-failure rerouting, and more fuzz seeds."""
    report = {}

    # All-to-all over a k=4 fat-tree subset: multi-tier ECMP end to end.
    cluster = make_cluster(
        "1L-1G", nodes=8, seed=0, synthetic_payloads=False,
        fabric=FatTreeSpec(k=4),
    )
    r = run_traffic(cluster, AllToAll(bytes_per_flow=8_192), seed=0)
    assert not r.violations, r.violations
    report["fat_tree_all_to_all_8"] = {
        "flows": r.flows,
        "goodput_mbps": round(r.goodput_bps / 1e6, 2),
        "switch_drops": r.switch_drops,
    }

    # A failed trunk mid-incast: flows re-pin and the run still drains.
    cluster2 = make_cluster(
        "1L-1G", nodes=18, seed=1, synthetic_payloads=False,
        fabric=leaf_spine_3to1(),
    )
    FaultSchedule(
        [TrunkOutage(200_000, 0, "leaf0.0", "spine0.0", 2_000_000)]
    ).apply(cluster2)
    r2 = run_traffic(cluster2, Permutation(16_000, rounds=4), seed=1)
    assert not r2.violations, r2.violations
    assert r2.repins > 0, "trunk failure never re-pinned a flow"
    report["trunk_failure_repin"] = {
        "flows": r2.flows,
        "repins": r2.repins,
        "retransmissions": r2.retransmissions,
    }

    # Wider fuzz sweep.
    fuzz = [run_family("fabric", seed) for seed in range(6, 26)]
    for r3 in fuzz:
        assert r3.ok, f"fabric fuzz seed {r3.seed}: {r3.failure}"
    report["fabric_fuzz_extended"] = {
        "seeds": [r3.seed for r3 in fuzz],
        "total_repins": sum(r3.result.repins for r3 in fuzz),
    }

    record("fabric", report)
    print(json.dumps(report, indent=2))

"""Hybrid-fidelity fast path: wall-clock speedup and goodput divergence.

Records ``BENCH_fastpath.json`` at the repo root: for each cluster
configuration, the 1 MB one-way micro-benchmark with fast-forward off and
on — wall time, goodput, the relative goodput divergence, and the
fast-forward coverage statistics (jumps, synthesized ops/frames/bytes,
fraction of virtual time covered analytically).

Invocations:

* smoke (CI ``fastpath-smoke`` job) —
  ``PYTHONPATH=src python -m pytest benchmarks/bench_fastpath.py -k smoke``
  asserts the 1L-1G point: jumps fire, divergence < 1 %, speedup over the
  ``MIN_SMOKE_SPEEDUP`` floor;
* full —
  ``PYTHONPATH=src python -m pytest benchmarks/bench_fastpath.py -m slow``
  measures all four configurations and rewrites ``BENCH_fastpath.json``
  (acceptance: >= 10x on every configuration where a jump fires; the
  single-rail ones, planned in closed form, sit two orders above that).
"""

import time

import pytest
from conftest import record

from repro.bench.cluster import CONFIG_NAMES, make_cluster
from repro.bench.micro import run_one_way

SIZE = 1 << 20  # the 1 MB point the paper's Figure 2 peaks at

# CI floor: with run-length descriptors and the closed-form run advance
# the 1L-1G point measures 220-310x here (the jump costs O(ops), ~1 ms);
# 80x keeps the 2.5x margin the old 4x floor had under 10-14x, so it only
# trips on a real regression (the detector refusing to arm, planning gone
# per-frame again), not shared-runner noise.
MIN_SMOKE_SPEEDUP = 80.0
MAX_DIVERGENCE = 0.01


def _run(config: str, fastpath: bool) -> dict:
    cluster = make_cluster(config, fastpath=fastpath, synthetic_payloads=True)
    start = time.perf_counter()
    result = run_one_way(cluster, SIZE)
    wall = time.perf_counter() - start
    out = {
        "wall_s": round(wall, 5),  # the fast-forwarded run takes ~1 ms
        "goodput_mb_s": round(result.throughput_mbps, 2),
        "elapsed_virtual_ns": result.elapsed_ns,
        "data_frames": result.data_frames,
    }
    if fastpath:
        stats = cluster.layers[0].stats  # the fast path: the one layer built
        out["coverage"] = stats.coverage(
            result.elapsed_ns, SIZE * result.iterations
        )
        out["denials"] = dict(stats.denials)
        out["abort_reasons"] = dict(stats.abort_reasons)
    return out


def measure_point(config: str, repeats: int = 3) -> dict:
    """Best-of-N walls for off/on; divergence from the (deterministic) runs."""
    best = None
    for _ in range(repeats):
        off = _run(config, fastpath=False)
        on = _run(config, fastpath=True)
        speedup = off["wall_s"] / on["wall_s"] if on["wall_s"] > 0 else 0.0
        if best is None or speedup > best["speedup_wall"]:
            best = {
                "config": config,
                "size": SIZE,
                "off": off,
                "on": on,
                "speedup_wall": round(speedup, 2),
                "goodput_divergence_pct": round(
                    abs(on["goodput_mb_s"] - off["goodput_mb_s"])
                    / off["goodput_mb_s"]
                    * 100,
                    4,
                ),
            }
    return best


def test_fastpath_smoke():
    point = measure_point("1L-1G")
    cov = point["on"]["coverage"]
    assert cov["jumps"] >= 1, point["on"]
    assert point["goodput_divergence_pct"] < MAX_DIVERGENCE * 100, point
    assert point["speedup_wall"] >= MIN_SMOKE_SPEEDUP, point
    record("fastpath", {"one_way_1MB_1L-1G": point})


@pytest.mark.slow
def test_fastpath_full():
    report = {}
    for config in CONFIG_NAMES:
        point = measure_point(config)
        cov = point["on"]["coverage"]
        assert cov["jumps"] >= 1, (config, point["on"])
        assert point["goodput_divergence_pct"] < MAX_DIVERGENCE * 100, point
        report[f"one_way_1MB_{config}"] = point
    record("fastpath", report)

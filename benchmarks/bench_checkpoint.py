"""Checkpoint benchmark: what a snapshot and a verified restore cost.

Captures the full simulator state (flattened paths + SHA-256
fingerprint) of a fuzz scenario mid-run, restores it by verified replay,
and records both wall-clock costs and the number of captured state paths
to ``BENCH_checkpoint.json`` at the repo root.

Invocation:

* smoke —
  ``PYTHONPATH=src python -m pytest benchmarks/bench_checkpoint.py -k smoke``
  (seconds; asserts that the checkpointed run and its restore both finish
  bit-identically to an uninterrupted run).
"""

import json
import time

from conftest import record

from repro.checkpoint import restore, take_checkpoint
from repro.verify.fuzz import ScenarioRun, run_scenario, scenario_from_seed


def test_snapshot_restore_cost_smoke():
    """Capture + verified-restore cost on a mid-flight fuzz scenario."""
    sc = scenario_from_seed(9, "mixed", "outage")
    run = ScenarioRun(sc)
    run.run_to(1_500_000)

    t0 = time.perf_counter()
    ck = take_checkpoint(run)
    capture_ms = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    restored = restore(ck)  # rebuild, replay, re-capture, verify
    restore_ms = (time.perf_counter() - t0) * 1e3

    # The checkpointed run and its restore finish bit-identically to an
    # uninterrupted run (the witness protocol).
    ref = run_scenario(sc)
    assert run.finish() == ref
    assert restored.finish() == ref

    report = {
        "snapshot_restore": {
            "scenario": "seed 9 mixed/outage @ 1.5 ms",
            "state_paths": len(ck.state),
            "capture_ms": round(capture_ms, 2),
            "verified_restore_ms": round(restore_ms, 2),
        }
    }
    record("checkpoint", report)
    print(json.dumps(report, indent=2))

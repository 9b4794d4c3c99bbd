"""Fuzz smoke grid: seeded protocol fuzzing under the invariant monitor.

Runs the full workload × fault-profile grid from :mod:`repro.verify.fuzz`
with the :class:`~repro.verify.InvariantMonitor` attached and asserts zero
invariant violations, recording totals to ``BENCH_fuzz.json`` at the repo
root.  A second test witnesses bit-determinism: the same seed must yield
an identical frame trace and final-stats fingerprint across runs.

Invocations:

* smoke —
  ``PYTHONPATH=src python -m pytest benchmarks/bench_fuzz.py -k smoke``
  (seconds; 5 workloads x 5 fault profiles x 8 seeds = 200 scenarios);
* full —
  ``PYTHONPATH=src python -m pytest benchmarks/bench_fuzz.py -m slow``
  (1000 unconstrained seeds).
"""

import pytest
from conftest import record

from repro.verify.fuzz import (
    FAULT_PROFILES,
    WORKLOADS,
    run_family,
    run_scenario,
    scenario_from_seed,
)

SEEDS_PER_CELL = 8  # x 5 workloads x 5 fault profiles = 200 scenarios


def test_fuzz_smoke():
    """200 seeded scenarios across the workload x fault grid, 0 violations."""
    scenarios = 0
    checks = 0
    sim_ns = 0
    failures = []
    for workload in WORKLOADS:
        for profile in FAULT_PROFILES:
            for k in range(SEEDS_PER_CELL):
                res = run_family(
                    "protocol", k, workload=workload, fault_profile=profile
                )
                scenarios += 1
                checks += res.checks
                sim_ns += res.elapsed_ns
                if not res.ok:
                    failures.append(f"seed={k} {workload}/{profile}: {res.failure}")
    assert scenarios == len(WORKLOADS) * len(FAULT_PROFILES) * SEEDS_PER_CELL
    assert not failures, "\n".join(failures)
    # Each scenario must actually exercise the monitor, not skip it.
    assert checks > 20 * scenarios, f"only {checks} checks in {scenarios} runs"

    record(
        "fuzz",
        {
            "scenarios": scenarios,
            "invariant_checks": checks,
            "violations": 0,
            "simulated_ns_total": sim_ns,
            "grid": {
                "workloads": list(WORKLOADS),
                "fault_profiles": list(FAULT_PROFILES),
                "seeds_per_cell": SEEDS_PER_CELL,
            },
        },
    )


def test_fuzz_determinism_smoke():
    """Same seed, same bits: trace + final stats fingerprints are identical."""
    for seed in (0, 3, 7):
        sc = scenario_from_seed(seed, "mixed", "chaos")
        first = run_scenario(sc, trace=True)
        second = run_scenario(sc, trace=True)
        assert first.ok, first.failure
        assert first.fingerprint == second.fingerprint, (
            f"seed {seed} nondeterministic: "
            f"{first.fingerprint} != {second.fingerprint}"
        )


@pytest.mark.slow
def test_fuzz_wide():
    """1000 unconstrained seeds (workload and faults drawn from the seed)."""
    failures = []
    for seed in range(1000):
        res = run_family("protocol", seed)
        if not res.ok:
            failures.append(f"seed={seed}: {res.failure}")
    assert not failures, "\n".join(failures)

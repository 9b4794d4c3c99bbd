"""The randomized gray-failure grid: deterministic, conserved, covered.

The ``gray`` fuzz family derives a whole scenario — topology, load, tail
policy, detection, one or two gray faults, maybe a crash — from a seed,
runs it under the invariant monitor, and fingerprints the result.  The
grid only means something if (a) a seed is perfectly reproducible and
(b) a modest seed range actually exercises the space.
"""

from repro.verify.fuzz import FuzzResult, run_family


def test_gray_scenario_is_deterministic():
    first = run_family("gray", 3)
    second = run_family("gray", 3)
    assert isinstance(first, FuzzResult) and first.family == "gray"
    assert first.scenario.gray_kinds
    assert first == second  # every field, the whole ServeResult included


def test_gray_scenarios_hold_invariants():
    for seed in range(10):
        run = run_family("gray", seed)
        res = run.result
        assert run.ok, (seed, run.violations[:3])
        assert res.generated > 0
        assert res.generated == (
            res.completed + res.shed + res.shed_client + res.failed
        ), seed


def test_gray_grid_covers_the_space():
    results = [run_family("gray", seed) for seed in range(30)]
    axes = [r.scenario for r in results]
    kinds = {k for a in axes for k in a.gray_kinds}
    assert len(kinds) >= 4, f"30 seeds should span most kinds: {kinds}"
    assert any(a.mitigated for a in axes)
    assert any(not a.mitigated for a in axes)
    assert any(a.detected for a in axes)
    assert any(not a.detected for a in axes)
    assert any(r.result.hedges_sent > 0 for r in results)

"""The randomized gray-failure grid: deterministic, conserved, covered.

``run_gray_scenario`` derives a whole scenario — topology, load, tail
policy, detection, one or two gray faults, maybe a crash — from a seed,
runs it under the invariant monitor, and fingerprints the result.  The
grid only means something if (a) a seed is perfectly reproducible and
(b) a modest seed range actually exercises the space.
"""

from repro.verify.fuzz import ServeFuzzResult, run_gray_scenario


def test_gray_scenario_is_deterministic():
    first = run_gray_scenario(3)
    second = run_gray_scenario(3)
    assert isinstance(first, ServeFuzzResult)
    assert first.gray_kinds == second.gray_kinds
    assert first.result.fingerprint == second.result.fingerprint
    assert first.result.generated == second.result.generated
    assert first.result.completed == second.result.completed
    assert first.result.hedges_sent == second.result.hedges_sent


def test_gray_scenarios_hold_invariants():
    for seed in range(10):
        run = run_gray_scenario(seed)
        res = run.result
        assert run.ok, (seed, res.violations[:3])
        assert res.generated > 0
        assert res.generated == (
            res.completed + res.shed + res.shed_client + res.failed
        ), seed


def test_gray_grid_covers_the_space():
    results = [run_gray_scenario(seed) for seed in range(30)]
    kinds = {k for r in results for k in r.gray_kinds}
    assert len(kinds) >= 4, f"30 seeds should span most kinds: {kinds}"
    assert any(r.mitigated for r in results)
    assert any(not r.mitigated for r in results)
    assert any(r.detected for r in results)
    assert any(not r.detected for r in results)
    assert any(r.result.hedges_sent > 0 for r in results)

"""One ``ok`` for all six fuzz families: each family's own way of going wrong
comes back through ``run_family`` as ``ok is False`` plus a named violation."""

import pytest

from repro.bench.crash import CrashRun
from repro.bench.serve import ServeRun
from repro.fabric import TrafficRun
from repro.sim import SimulationError
from repro.verify import InvariantMonitor
from repro.verify.fuzz import FAMILIES, FuzzResult, run_family, shrink


def _before(monkeypatch, cls, method, tamper):
    """Run ``tamper(self)`` just before ``cls.method``."""
    original = getattr(cls, method)

    def patched(self, *args, **kwargs):
        tamper(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, patched)


def _plant_monitor_violation(monkeypatch):
    _before(
        monkeypatch, InvariantMonitor, "final_check",
        lambda mon: mon.violations.append("[planted] by the test"),
    )


def _plant_payload_mismatch(monkeypatch):
    _before(
        monkeypatch, TrafficRun, "finish", lambda run: run.mismatches.append(0)
    )


def _plant_lost_message(monkeypatch):
    # One flow's message never counted: finish one receive short.
    def forget_one(run):
        run.flows.append(run.flows[0])

    _before(monkeypatch, TrafficRun, "finish", forget_one)


def _plant_short_receiver_log(monkeypatch):
    _before(
        monkeypatch, CrashRun, "_report",
        lambda run: run.recovery.nodes[1].delivered.pop(),
    )


def _plant_no_reconnect(monkeypatch):
    _before(
        monkeypatch, CrashRun, "_report",
        lambda run: run.recovery.reconnect_latencies.clear(),
    )


def _plant_too_short_to_serve(monkeypatch):
    init = ServeRun.__init__

    def one_microsecond(self, **kwargs):
        init(self, **{**kwargs, "duration_ns": 1_000})

    monkeypatch.setattr(ServeRun, "__init__", one_microsecond)


PLANTED = {
    "protocol": (_plant_monitor_violation, "[planted]"),
    "incarnation": (_plant_monitor_violation, "[planted]"),
    "gray": (_plant_monitor_violation, "[planted]"),
    "fabric": (_plant_payload_mismatch, "data-integrity"),
    "fabric-count": (_plant_lost_message, "messages-received"),
    "crash": (_plant_short_receiver_log, "exactly-once"),
    "crash-reconnect": (_plant_no_reconnect, "never-reconnected"),
    "serve": (_plant_too_short_to_serve, "no-requests-generated"),
}


@pytest.mark.parametrize("case", PLANTED)
def test_a_planted_failure_is_not_ok_and_is_named(monkeypatch, case):
    family = case.split("-")[0]
    clean = run_family(family, 0)
    assert clean.ok and clean.failure is None and clean.violations == ()

    plant, name = PLANTED[case]
    plant(monkeypatch)
    res = run_family(family, 0)
    assert res.family == family and res.seed == 0
    assert res.ok is False
    assert any(name in v for v in res.violations), res.violations
    assert res.failure == f"invariant: {res.violations[0]}"  # says why
    # The run itself was untouched: same draw, same bits.
    assert res.recipe == clean.recipe
    if case != "serve":
        assert res.fingerprint == clean.fingerprint


def test_every_family_is_behind_the_one_door():
    assert list(FAMILIES) == [
        "protocol", "crash", "incarnation", "fabric", "serve", "gray",
    ]
    with pytest.raises(KeyError):
        run_family("no-such-family", 0)


@pytest.mark.parametrize("family", ["crash", "incarnation", "fabric", "serve", "gray"])
def test_a_simulation_error_comes_back_as_failure(monkeypatch, family):
    """Only ``protocol`` used to catch: the other five aborted the caller's
    seed loop at the first bad seed."""
    from repro.bench.cluster import Cluster

    def stuck(self):
        raise SimulationError("planted: not drained")

    # Serving ends through stop_periodic(); the other four through quiesce().
    monkeypatch.setattr(Cluster, "stop_periodic", stuck)
    res = run_family(family, 1)
    assert isinstance(res, FuzzResult) and not res.ok
    assert res.failure == "simulation: planted: not drained"
    assert (res.family, res.seed) == (family, 1)
    drew = FAMILIES[family].derive(1)  # the recipe survives the error
    assert {key: res.recipe[key] for key in drew} == drew


def _records(recipe: dict) -> tuple[int, int]:
    """(ops, fault events) a recipe lists."""
    sc = recipe.get("sc")
    if sc is not None:
        return len(sc.ops), len(sc.faults)
    return 0, len(recipe.get("faults") or ())


# family -> (seed, derivation constraints): cheap seeds that draw records.
SHRINK_SEEDS = {
    "protocol": (0, {"workload": "bulk", "fault_profile": "outage"}),
    "crash": (0, {}),
    "incarnation": (0, {}),
    "fabric": (7, {}),
    "serve": (1, {}),
    "gray": (0, {}),
}


@pytest.mark.parametrize("family", SHRINK_SEEDS)
def test_every_family_shrinks_a_planted_failure(monkeypatch, family):
    """A planted failure fails every candidate, so the shrinker drops every
    op and fault event it can reach, and what it returns still fails."""
    plant, _name = PLANTED[family]
    plant(monkeypatch)
    seed, constraints = SHRINK_SEEDS[family]
    res = run_family(family, seed, **constraints)
    assert not res.ok
    ops, faults = _records(res.recipe)
    small = shrink(res, max_runs=2 + ops + faults)
    assert FAMILIES[family].run(**small).finish().violations  # still fails
    assert _records(small) == (0, 0)

"""Checks on the benchmark itself: ``pytest benchmarks/perf -q``.

Not part of tier-1 (``pytest.ini`` collects ``tests/`` only).  Workloads
run at 1/20 size, so this takes seconds, not the benchmark's minutes.
"""

import json
import re
from types import SimpleNamespace

import pytest

import run as perf_run  # puts src/ on sys.path, like the command line does
from perf_layers import LAYERS, attribute, package_of
from perf_workloads import WORKLOADS, serve_ops

SCALE = 1 / 20
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec():
    return perf_run.load_spec()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_builder_runs_at_a_twentieth(name):
    r = perf_run._repeat(WORKLOADS[name], seed=0, scale=SCALE)
    assert r["attempted"] >= 1
    assert r["failed"] == 0
    assert r["units"] > 0
    assert r["wall_s"] > 0 and r["setup_s"] > 0
    assert set(r["values"]) == (
        set(perf_run.SIM_METRICS) | set(perf_run.COUNTERS) | {"fingerprint"}
    )
    # The model checks that do not depend on the run being full size.
    assert not [p for p in r["problems"] if "paper_err_pct" not in p]


def test_workloads_are_the_declared_ones(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_untraced_metrics_are_the_declared_end_to_end(spec):
    result = perf_run.measure(
        WORKLOADS["pingpong_10g_64b"], seed=0, seconds=0, scale=SCALE
    )
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == perf_run.END_TO_END
    assert set(result["metrics"]) == set(declared)
    assert all(v > 0 for v in result["metrics"].values())
    assert len(result["samples"]["wall_s"]) == perf_run.MIN_REPEATS
    assert len(result["samples"]["setup_s"]) == perf_run.SETUP_SAMPLES
    assert not result["problems"]


def test_traced_metrics_are_the_declared_per_layer(spec, tmp_path):
    out = tmp_path / "trace.json"
    result = perf_run.measure_traced(
        WORKLOADS["pingpong_10g_64b"], seed=0, scale=SCALE, trace_out=str(out)
    )
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == perf_run.PER_LAYER
    assert set(result["metrics"]) == set(declared)
    assert all(NAME.fullmatch(name) for name in declared)
    for layer in LAYERS:
        assert f"{layer}.self_s" in declared and f"{layer}.calls" in declared
    assert result["metrics"]["sim.self_s"] > 0
    assert result["metrics"]["trace.overhead_x"] > 1
    assert not result["problems"]
    events = json.loads(out.read_text())["traceEvents"]
    assert {e["name"] for e in events} == set(LAYERS)
    assert (tmp_path / "trace.json.pstats").stat().st_size > 0


def test_package_attribution():
    assert package_of("/x/checkout/src/repro/sim/core.py") == "sim"
    assert package_of("src/repro/ethernet/nic.py") == "ethernet"
    assert package_of("/x/src/repro/serve/runtime.py") == "serve"
    # The harness, the package root, the stdlib, C functions, this benchmark.
    assert package_of("/x/src/repro/bench/micro.py") == "other"
    assert package_of("/x/src/repro/__init__.py") == "other"
    assert package_of("/usr/lib/python3.11/heapq.py") == "other"
    assert package_of("~") == "other"
    assert package_of("/x/benchmarks/perf/perf_workloads.py") == "other"
    assert package_of("/x/repro/sim/core.py") == "other"


def test_c_functions_are_charged_to_the_calling_package():
    push = ("~", 0, "<built-in method _heapq.heappush>")
    schedule = ("/x/src/repro/sim/core.py", 322, "schedule")
    pump = ("/x/src/repro/core/protocol.py", 10, "pump")
    stats = {
        schedule: (5, 5, 1.0, 1.5, {pump: (5, 5, 1.0, 1.5)}),
        push: (5, 5, 0.5, 0.5, {schedule: (5, 5, 0.5, 0.5)}),
        pump: (1, 1, 2.0, 3.5, {}),
    }
    layers = attribute(stats)
    assert layers["sim"] == (1.5, 10)
    assert layers["core"] == (2.0, 1)
    assert layers["other"] == (0.0, 0)


def test_a_shed_request_counts_as_failed():
    served = SimpleNamespace(generated=10, shed=0, shed_client=0, failed=0, pending=0)
    assert serve_ops(served) == (10, 0)
    shed = SimpleNamespace(generated=10, shed=1, shed_client=2, failed=0, pending=1)
    assert serve_ops(shed) == (10, 4)

"""One benchmark for the simulator: host time, simulated time, per-layer split.

Two ways to run it, both from the root of a checkout::

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/perf/run.py [--seed N] [--workload NAME ...] [--check] [--trace-out FILE]

The first form measures one workload in this process and ends with the
one-line JSON result the benchmark contract asks for: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The second form is the whole ledger: every workload (or the named ones),
each in a child process of its own — one after another, so they never
compete for the two cores and ``peak_rss_mb`` is per workload — untraced
and then traced.  ``--check`` runs the set twice and compares the two.
Either form exits non-zero if any correctness check fails.

How a run is laid out (see README.md for what every metric means):

* one discarded warm-up at a tenth of the size;
* untraced timed repeats, at least three, until ``--seconds`` of them
  have been measured; each is split into a build phase (``setup_s``) and
  a run phase (``wall_s``), and the medians are reported, scaled to the
  sandbox's reference speed by a calibration loop timed around them;
* with ``--trace 1`` instead: one untraced repeat for the exact counters,
  one repeat under ``cProfile`` for the per-package split, and the four
  layer kernels.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import math
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{HERE}: no src/repro in {ROOT}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import perf_layers
import perf_workloads
from perf_layers import LAYERS
from perf_workloads import COUNTERS, SIM_METRICS, UNDEFINED, WORKLOADS

MIN_REPEATS = 3
# calibrate() on this sandbox at its usual speed.  wall_s and setup_s are
# divided by (measured / reference): the sandbox moves between speed
# regimes 30 % apart that last minutes, which no bound survives otherwise.
CALIBRATION_REF_S = 0.18
SETUP_SAMPLES = 5  # set-ups timed per run; setup_s is their median
WARMUP_SCALE = 0.1

# Host-time metrics: subject to sandbox noise.  name -> unit.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
HOST_PER_LAYER = {
    "sim.ns_per_event": "ns",
    "bench.cpu_s": "s",
    "bench.import_s": "s",
    "bench.host_us_per_unit": "us",
    "trace.overhead_x": "x",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **dict.fromkeys(perf_layers.KERNELS, "ns"),
}
# Everything a --trace 1 run reports.  The simulated end-to-end metrics
# ride here because the contract's end-to-end list only fits metrics that
# every workload defines, that are never 0 and that vary from run to run.
PER_LAYER = {**SIM_METRICS, **COUNTERS, **HOST_PER_LAYER}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- measuring one workload ------------------------------------------------------

_IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import perf_layers, perf_workloads; print(time.perf_counter() - t)"
)


class _Cell:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, i: int) -> int:
        self.total += i & 7
        return self.total


def calibrate(steps: int = 250_000) -> float:
    """Seconds for a fixed pure-Python loop of heap, dict and method-call
    work: the machine's speed right now.  It runs none of the simulator's
    code, so a change under test cannot move it."""
    heap = [(i * 7919 % 1000, i) for i in range(-1024, 0)]
    heapq.heapify(heap)
    table: dict = {}
    cell = _Cell()
    replace = heapq.heapreplace
    start = time.perf_counter()
    for i in range(steps):
        replace(heap, (i * 7919 % 1000, i))
        table[i & 255] = cell.add(i)
    return time.perf_counter() - start


def import_seconds() -> float:
    """Time to import the simulator's packages in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(HERE), str(ROOT / "src")],
        capture_output=True, text=True, check=True,
    )
    return float(probe.stdout)


def _repeat(workload, seed: int, scale: float = 1.0, profile=None) -> dict:
    """Build and run once; counters are read after the clock has stopped."""
    gc.collect()  # the previous repeat's cluster is cyclic garbage
    t0 = time.perf_counter()
    run = workload.build(seed, scale)
    t1 = time.perf_counter()
    cpu0 = time.process_time()
    if profile is not None:
        profile.enable()
    outcome = run()
    if profile is not None:
        profile.disable()
    cpu_s = time.process_time() - cpu0
    wall_s = time.perf_counter() - t1
    values = perf_workloads.counters(outcome)
    return {
        "setup_s": t1 - t0,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "units": outcome.units,
        "values": values,
        "problems": perf_workloads.violations(workload, outcome, values),
    }


def _same_model(first: dict, other: dict, label: str) -> list[str]:
    """Simulated metrics and exact counters must repeat bit for bit."""
    return [
        f"{label}: {name} {other[name]!r} != {first[name]!r}"
        for name in first
        if other[name] != first[name]
    ]


def measure(workload, seed: int, seconds: float, scale: float = 1.0) -> dict:
    """The untraced run: end-to-end metrics from timed repeats."""
    _repeat(workload, seed, scale * WARMUP_SCALE)
    repeats = []
    speed_samples = [calibrate()]
    began = time.perf_counter()
    while True:
        repeats.append(_repeat(workload, seed, scale))
        speed_samples.append(calibrate())
        spent = time.perf_counter() - began
        if len(repeats) >= MIN_REPEATS and spent + spent / len(repeats) > seconds:
            break
    slowdown = statistics.mean(speed_samples) / CALIBRATION_REF_S
    # Set-up is what a user pays before the first simulated event: the
    # import of the packages plus a build phase.
    builds = [r["setup_s"] for r in repeats[:SETUP_SAMPLES]]
    while len(builds) < SETUP_SAMPLES:
        gc.collect()
        t0 = time.perf_counter()
        workload.build(seed, scale)
        builds.append(time.perf_counter() - t0)
    setups = [(import_seconds() + build) / slowdown for build in builds]
    walls = [r["wall_s"] / slowdown for r in repeats]
    first = repeats[0]
    problems = list(first["problems"])
    for k, r in enumerate(repeats[1:], start=2):
        problems += _same_model(first["values"], r["values"], f"repeat {k}")
    return {
        "attempted": sum(r["attempted"] for r in repeats),
        "failed": sum(r["failed"] for r in repeats),
        "problems": problems,
        "exact": first["values"],
        "slowdown": slowdown,
        "samples": {"wall_s": walls, "setup_s": setups},
        "metrics": {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }


def measure_traced(workload, seed: int, scale: float = 1.0, trace_out=None) -> dict:
    """The traced run: exact counters, per-package self time, layer kernels."""
    _repeat(workload, seed, scale * WARMUP_SCALE)
    plain = _repeat(workload, seed, scale)
    profile = cProfile.Profile()
    traced = _repeat(workload, seed, scale, profile)
    stats = pstats.Stats(profile)
    layers = perf_layers.attribute(stats.stats)
    if trace_out:
        perf_layers.write_chrome_trace(trace_out, workload.name, layers)
        stats.dump_stats(trace_out + ".pstats")
    exact = plain["values"]
    metrics = {
        **{name: exact[name] for name in (*SIM_METRICS, *COUNTERS)},
        "sim.ns_per_event": plain["wall_s"] * 1e9 / exact["sim.events"],
        "bench.cpu_s": plain["cpu_s"],
        "bench.import_s": import_seconds(),
        "bench.host_us_per_unit": plain["wall_s"] * 1e6 / plain["units"],
        "trace.overhead_x": traced["wall_s"] / plain["wall_s"],
        **perf_layers.run_kernels(),
    }
    for layer, (self_s, calls) in layers.items():
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.calls"] = calls
    return {
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "problems": plain["problems"]
        + _same_model(exact, traced["values"], "traced repeat"),
        "exact": exact,
        "samples": {},
        "metrics": metrics,
    }


# -- printing --------------------------------------------------------------------

def _domain(name: str) -> str:
    if name in END_TO_END or name in HOST_PER_LAYER:
        return "host"
    if name in SIM_METRICS:
        return "simulated"
    return "exact counter"


def _print_metric(name: str, value, unit: str, samples=None) -> None:
    if value == UNDEFINED and name in SIM_METRICS:
        shown = "unvalidated" if name == "paper_err_pct" else "not defined here"
        print(f"  {name:32s} {shown}")
        return
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    line = f"  {name:32s} {text:>14s} {unit:7s} [{_domain(name)}]"
    if samples:
        line += (
            f"  median of {len(samples)}, min {min(samples):.6g}"
            f" max {max(samples):.6g}"
        )
    print(line)


def report(workload, seed: int, trace: bool, result: dict) -> bool:
    """Print every metric by name and the contract's result line."""
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}")
    if workload.note:
        print(f"  note: {workload.note}")
    units = PER_LAYER if trace else END_TO_END
    for name, unit in units.items():
        _print_metric(name, result["metrics"][name], unit,
                      result["samples"].get(name))
    if not trace:
        print(f"  wall_s and setup_s are at reference speed: the calibration "
              f"loop ran {result['slowdown']:.3f}x its reference time")
        # The simulated end-to-end metrics, for a reader; the result line
        # of a --trace 1 run is where they are recorded.
        for name, unit in SIM_METRICS.items():
            _print_metric(name, result["exact"][name], unit)
        if result["exact"]["sim_p999_us"] != UNDEFINED:
            done = result["exact"]["serve.completed"]
            print(f"  percentiles over {done} requests, "
                  f"{done - math.ceil(done * 0.999)} beyond p99.9")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")
    correct = not result["problems"]
    print("detail: " + json.dumps(
        {"exact": result["exact"], "samples": result["samples"],
         "slowdown": result.get("slowdown"), "problems": result["problems"]}
    ))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return correct


# -- the whole set, one child process per run ---------------------------------------


def _child(name: str, seed: int, seconds: int, trace: int, trace_out=None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if len(lines) < 2 or not lines[-2].startswith("detail: "):
        sys.stderr.write(proc.stderr)
        sys.exit(f"{name}: child exited {proc.returncode} with no result")
    print("\n".join(lines[:-2]))
    out = json.loads(lines[-1])
    out.update(json.loads(lines[-2].removeprefix("detail: ")))
    return out


def run_set(names, seed: int, seconds: int, trace_out=None) -> dict:
    results = {}
    for name in names:
        out = None
        if trace_out:
            p = Path(trace_out)
            out = str(p.with_name(f"{p.stem}.{name}{p.suffix}"))
        results[name] = {
            "untraced": _child(name, seed, seconds, 0),
            "traced": _child(name, seed, seconds, 1, out),
        }
    return results


def _spread(samples) -> float:
    return (max(samples) - min(samples)) / statistics.median(samples)


def compare(first: dict, second: dict, bounds: dict) -> bool:
    """Print how two sets of runs of the same code agree; True if they do."""
    agree = True
    for name in first:
        print(f"check {name}")
        a, b = first[name], second[name]
        for metric, bound in bounds.items():
            va = a["untraced"]["metrics"][metric]["value"]
            vb = b["untraced"]["metrics"][metric]["value"]
            delta = (vb - va) / va
            spread = max(
                (_spread(r["untraced"]["samples"][metric])
                 for r in (a, b) if metric in r["untraced"]["samples"]),
                default=0.0,
            )
            if abs(delta) > bound:
                verdict, agree = "DIFFERS", False
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "unchanged"
            print(f"  {metric:32s} {va:.6g} -> {vb:.6g}  {delta:+.1%} "
                  f"(bound {bound:.0%}, repeat spread {spread:.1%})  {verdict}")
        for run in ("untraced", "traced"):
            differing = [
                k for k, v in a[run]["exact"].items() if b[run]["exact"][k] != v
            ]
            for k in differing:
                print(f"  {k:32s} {a[run]['exact'][k]!r} -> "
                      f"{b[run]['exact'][k]!r}  DIFFERS ({run})")
            agree = agree and not differing
        print(f"  {len(a['traced']['exact'])} simulated metrics and exact "
              "counters compared bit for bit")
    return agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="repeatable; default: all seven")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        help="length of the timed phase (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="measure one workload in this process")
    parser.add_argument("--check", action="store_true",
                        help="run the set twice and compare")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="Chrome trace of the traced run (+ FILE.pstats)")
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = args.workload or list(WORKLOADS)

    if args.trace is not None:
        if len(names) != 1 or args.check:
            parser.error("--trace takes exactly one --workload and no --check")
        if args.trace_out and not args.trace:
            parser.error("--trace-out needs the traced run (--trace 1)")
        workload = WORKLOADS[names[0]]
        if args.trace:
            result = measure_traced(workload, args.seed, trace_out=args.trace_out)
        else:
            result = measure(workload, args.seed, seconds)
        return 0 if report(workload, args.seed, bool(args.trace), result) else 1

    first = run_set(names, args.seed, seconds, args.trace_out)
    ok = all(r[run]["correct"] for r in first.values() for run in r)
    if args.check:
        second = run_set(names, args.seed, seconds)
        ok = ok and all(r[run]["correct"] for r in second.values() for run in r)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        ok = compare(first, second, bounds) and ok
    print(json.dumps({
        "correct": ok,
        "seed": args.seed,
        "workloads": {
            name: {
                "attempted": r["untraced"]["attempted"],
                "failed": r["untraced"]["failed"],
                "end_to_end": r["untraced"]["metrics"],
                "per_layer": r["traced"]["metrics"],
            }
            for name, r in first.items()
        },
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

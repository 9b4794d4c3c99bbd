"""Per-layer attribution: the traced run and the four layer kernels.

The layers are the ``repro`` packages.  Two sources live here, both
outside the program:

* **The traced run** — the run phase repeated once under ``cProfile``.
  Each function's own time (``tottime``) and call count are summed by the
  package that owns its file.  Time in C functions (``heapq``, ``list``
  methods, numpy) is charged to the *calling* package through the
  profiler's caller table, because ``heappush`` inside the dispatch loop
  is engine time, not "stdlib" time.  That is self time in the span
  sense: what a layer spends between being called and returning, minus
  what the layers it calls spend.
* **Layer kernels** — one layer's public functions timed alone, with no
  workload on top, so a stack workload's per-event cost can be set
  against the bare layer's.
"""

from __future__ import annotations

import json
import random
import time

from repro.analysis import LatencyHistogram
from repro.ethernet import (
    Frame,
    LinkParams,
    MultiEdgeHeader,
    Nic,
    NicParams,
    Switch,
    SwitchParams,
    connect_nic_to_switch,
    mac_address,
    max_payload_per_frame,
)
from repro.fabric import ecmp_hash
from repro.sim import RngRegistry, Simulator

__all__ = [
    "LAYERS",
    "KERNELS",
    "package_of",
    "attribute",
    "write_chrome_trace",
    "run_kernels",
]

# ``other`` is everything not under one of these: stdlib Python code, the
# repro.bench harness and this benchmark.
LAYERS = (
    "sim", "ethernet", "core", "host", "serve", "mp", "fabric", "fastpath",
    "dsm", "apps", "analysis", "congestion", "control", "recovery", "other",
)


def package_of(path: str) -> str:
    """The layer owning a source file: ``.../src/repro/<pkg>/...`` maps to
    ``<pkg>`` when it is a known layer, anything else to ``other``."""
    _, found, tail = ("/" + path.replace("\\", "/")).rpartition("/src/repro/")
    package = tail.split("/", 1)[0]
    return package if found and package in LAYERS[:-1] else "other"


def attribute(stats: dict) -> dict:
    """Sum a ``pstats.Stats(...).stats`` table into
    ``{layer: (self_seconds, calls)}`` for every layer."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for (filename, _line, _name), (_cc, nc, tt, _ct, callers) in stats.items():
        if filename == "~" and callers:
            for (caller_file, _l, _n), (cnc, _ccc, ctt, _cct) in callers.items():
                layer = package_of(caller_file)
                self_s[layer] += ctt
                calls[layer] += cnc
        else:
            layer = package_of(filename)
            self_s[layer] += tt
            calls[layer] += nc
    return {layer: (self_s[layer], calls[layer]) for layer in LAYERS}


def write_chrome_trace(path: str, workload: str, layers: dict) -> None:
    """Per-layer self time as Chrome trace-event JSON (``chrome://tracing``
    or Perfetto, like ``repro.sim.trace.export_chrome_trace``).

    A profile has no timeline, so the layers are laid end to end on one
    track, largest first; the track's length is the traced run's time.
    """
    events = []
    ts = 0.0
    for layer, (self_s, calls) in sorted(
        layers.items(), key=lambda item: -item[1][0]
    ):
        events.append(
            {
                "name": layer,
                "cat": "self_time",
                "ph": "X",
                "ts": ts,
                "dur": self_s * 1e6,
                "pid": 1,
                "tid": workload,
                "args": {"calls": calls},
            }
        )
        ts += self_s * 1e6
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# -- layer kernels -------------------------------------------------------------


def _noop() -> None:
    pass


def _sim_ns_per_event(frames: int = 30_000) -> float:
    """The protocol-shaped event mix of
    ``benchmarks/bench_engine_speed.py::_drive_mix`` on a bare engine: per
    frame, four wire delays, two CPU charges, two zero-delay wake-ups and
    a retransmit-style timer armed then cancelled."""
    sim = Simulator()

    def proc():
        for _ in range(frames):
            ev = sim.event()
            sim.schedule(0, ev.trigger, None)
            yield ev
            yield 600
            yield 12336
            yield 1000
            yield 600
            sim.timer(400_000, _noop).cancel()
            ev = sim.event()
            sim.schedule(0, ev.trigger, None)
            yield ev
            yield 650
            yield 1200

    p = sim.process(proc())
    start = time.perf_counter()
    sim.run_until_done(p)
    wall = time.perf_counter() - start
    return wall * 1e9 / sim.events_processed


def _ethernet_ns_per_frame(frames: int = 25_600, burst: int = 128) -> float:
    """MTU frames NIC -> switch -> NIC with no protocol above them."""
    sim = Simulator()
    rng = RngRegistry(0)
    switch = Switch(sim, SwitchParams(ports=2, output_queue_frames=2 * burst))
    nics = []
    for i in range(2):
        nic = Nic(sim, NicParams(), mac=mac_address(i, 0), rng=rng, name=f"nic{i}")
        connect_nic_to_switch(sim, nic, switch, i, LinkParams(), rng)
        nic.disable_interrupts()
        nics.append(nic)
    tx, rx = nics
    header = MultiEdgeHeader(payload_length=max_payload_per_frame())
    received = 0
    start = time.perf_counter()
    for _ in range(frames // burst):
        for _ in range(burst):
            tx.transmit(Frame(tx.mac, rx.mac, header))
        sim.run()
        received += len(rx.poll()[0])
    wall = time.perf_counter() - start
    if received != frames:
        raise RuntimeError(f"ethernet kernel lost frames: {received}/{frames}")
    return wall * 1e9 / frames


def _analysis_ns_per_record(records: int = 300_000) -> float:
    """``LatencyHistogram.record`` over latencies spread across 1 us-10 ms."""
    rnd = random.Random(0)
    values = [int(10 ** rnd.uniform(3, 7)) for _ in range(records)]
    hist = LatencyHistogram()
    record = hist.record
    start = time.perf_counter()
    for v in values:
        record(v)
    wall = time.perf_counter() - start
    return wall * 1e9 / records


def _fabric_ns_per_hash(hashes: int = 200_000) -> float:
    """``ecmp_hash`` over sequentially allocated connection ids."""
    start = time.perf_counter()
    for conn_id in range(hashes):
        ecmp_hash("0:leaf0", 0x020000000001, 0x020000000011, 0, conn_id)
    wall = time.perf_counter() - start
    return wall * 1e9 / hashes


KERNELS = {
    "sim.kernel_ns_per_event": _sim_ns_per_event,
    "ethernet.kernel_ns_per_frame": _ethernet_ns_per_frame,
    "analysis.kernel_ns_per_record": _analysis_ns_per_record,
    "fabric.kernel_ns_per_hash": _fabric_ns_per_hash,
}


def run_kernels() -> dict:
    """Time every layer kernel once; name -> nanoseconds per operation."""
    return {name: kernel() for name, kernel in KERNELS.items()}

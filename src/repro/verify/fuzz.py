"""Deterministic fuzzing under the invariant monitor: six families, one door.

A :class:`Scenario` is a fully declarative description of one randomized
run: cluster configuration, protocol knobs (window, pump batch, TX ring
depth, striping policy), a workload (a sequence of :class:`OpSpec` remote
operations), and a :class:`~repro.control.faults.FaultSchedule`.  Scenarios
are derived from a seed by :func:`scenario_from_seed`, executed by
:func:`run_scenario` with an :class:`~repro.verify.InvariantMonitor`
attached, and — when one fails — reduced by :func:`shrink_scenario` to a
minimal reproducer.  That is the ``protocol`` family; ``crash``,
``incarnation``, ``fabric``, ``serve`` and ``gray`` derive other kinds of
run.  ``run_family(name, seed)`` is the front door to all six and returns a
:class:`FuzzResult` whose ``ok`` means one thing, ``failure is None``, and
whose ``violations`` name every clause that did not hold.

Everything is deterministic: the scenario is a pure function of
``(seed, workload, fault_profile)``, and the simulation itself is seeded,
so the same seed always produces the identical event trace, final stats,
and :func:`fingerprint`.  That determinism is itself asserted by the CI
smoke suite (``benchmarks/bench_fuzz.py``).

Command line::

    PYTHONPATH=src python -m repro.verify.fuzz --count 50
    PYTHONPATH=src python -m repro.verify.fuzz --family serve --seed 97
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Callable, Optional

from ..bench.cluster import Cluster, make_cluster
from ..bench.run import Run
from ..control import (
    BitErrorRamp,
    Crash,
    FaultSchedule,
    Flap,
    Outage,
    PermanentFailure,
    Repair,
    Restart,
    TrunkDrain,
    TrunkOutage,
)
from ..congestion import CongestionParams
from ..core import ProtocolParams, dial, enable_listener
from ..ethernet import OpFlags
from ..host import myri10g_params, tigon3_params
from ..sim import SimulationError
from .monitor import InvariantMonitor, InvariantViolation

__all__ = [
    "OpSpec",
    "Scenario",
    "Axes",
    "FuzzResult",
    "FAMILIES",
    "run_family",
    "WORKLOADS",
    "FAULT_PROFILES",
    "scenario_from_seed",
    "run_scenario",
    "shrink_scenario",
    "fingerprint",
    "FINGERPRINT_FIELDS",
    "run_crash_scenario",
    "run_incarnation_scenario",
    "FabricScenario",
    "fabric_scenario_from_seed",
    "run_fabric_scenario",
    "run_gray_scenario",
    "run_serve_scenario",
]

WORKLOADS = ("bulk", "small", "scatter", "read", "mixed")
FAULT_PROFILES = ("none", "outage", "flap", "ber", "chaos")
_CONFIGS = ("1L-1G", "1L-10G", "2L-1G", "2Lu-1G")

_US = 1_000
_MS = 1_000_000


@dataclass(frozen=True)
class OpSpec:
    """One remote operation in a scenario's workload."""

    src: int
    dst: int
    kind: str  # "write" | "scatter" | "read"
    size: int  # total payload bytes (scatter: per segment)
    segments: int = 0  # scatter only
    flags: int = 0
    wait: bool = False  # wait for completion before issuing the next op


@dataclass(frozen=True)
class Scenario:
    """A fully declarative, replayable fuzz case."""

    seed: int
    config: str
    nodes: int
    workload: str
    fault_profile: str
    striping: Optional[str]
    window_frames: int
    pump_batch: int
    tx_ring_frames: Optional[int]
    control_plane: bool
    ops: tuple[OpSpec, ...]
    faults: tuple[object, ...]
    limit_ns: int = 2_000_000_000
    # Congestion knobs (repro.congestion).  ECN marking is exercised even
    # with the static policy: receivers still echo, senders still count,
    # and the conservation invariants still apply.
    congestion: str = "static"
    ecn_threshold: Optional[int] = None
    pacing: bool = False


@dataclass(frozen=True)
class Axes:
    """What a ``crash``, ``incarnation``, ``serve`` or ``gray`` seed drew
    (the other two families carry their whole scenario instead)."""

    config: str
    fault_profile: str = "none"  # "none" | "crash"
    gray_kinds: tuple = ()  # class names of the injected gray events
    mitigated: bool = False  # a TailSpec was armed
    detected: bool = False  # the differential gray scorer was armed


@dataclass
class FuzzResult:
    """Outcome of one fuzz run, of any family."""

    family: str  # a key of FAMILIES
    seed: int
    # Scenario | FabricScenario | Axes; None (and the next two empty) when
    # the run died before it was built.
    scenario: object = None
    fingerprint: str = ""
    elapsed_ns: int = 0
    # The error that stopped the run, else its first violation; None = ok.
    failure: Optional[str] = None
    checks: int = 0  # invariant-monitor checks executed
    # The monitor's findings, then the family's named clauses (DESIGN.md).
    violations: tuple[str, ...] = ()
    # Fast-forward jumps taken when the run had fastpath enabled (0 when
    # disabled or never armed); parity harnesses use it to split seeds
    # into exact-identity vs timing-divergence expectations.
    fastpath_jumps: int = 0
    # The family's own measurements: CrashResult, ClusterSummary
    # (incarnation), TrafficResult (fabric), ServeResult (serve, gray).
    result: object = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def _failure_of(exc: Exception) -> str:
    """How an error that stopped a run reads in :attr:`FuzzResult.failure`."""
    kind = "invariant" if isinstance(exc, InvariantViolation) else "simulation"
    return f"{kind}: {exc}"


# ---------------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------------


def _gen_ops(rng: random.Random, workload: str, pairs: list[tuple[int, int]]):
    def flags_for(p_notify=0.3, p_fence_fwd=0.15, p_fence_bwd=0.15) -> int:
        f = 0
        if rng.random() < p_notify:
            f |= OpFlags.NOTIFY
        if rng.random() < p_fence_fwd:
            f |= OpFlags.FENCE_FORWARD
        if rng.random() < p_fence_bwd:
            f |= OpFlags.FENCE_BACKWARD
        return f

    def pair() -> tuple[int, int]:
        return rng.choice(pairs)

    ops: list[OpSpec] = []
    if workload == "bulk":
        for _ in range(rng.randint(2, 5)):
            src, dst = pair()
            ops.append(
                OpSpec(src, dst, "write", rng.randint(16_384, 131_072),
                       flags=flags_for(), wait=rng.random() < 0.25)
            )
    elif workload == "small":
        for _ in range(rng.randint(10, 40)):
            src, dst = pair()
            ops.append(
                OpSpec(src, dst, "write", rng.randint(16, 1024),
                       flags=flags_for(), wait=rng.random() < 0.25)
            )
    elif workload == "scatter":
        for _ in range(rng.randint(3, 10)):
            src, dst = pair()
            ops.append(
                OpSpec(src, dst, "scatter", rng.randint(16, 256),
                       segments=rng.randint(2, 8), flags=flags_for(),
                       wait=rng.random() < 0.25)
            )
    elif workload == "read":
        for _ in range(rng.randint(3, 8)):
            src, dst = pair()
            ops.append(
                OpSpec(src, dst, "read", rng.randint(512, 16_384),
                       flags=flags_for(p_notify=0.0), wait=rng.random() < 0.4)
            )
    elif workload == "mixed":
        for _ in range(rng.randint(6, 20)):
            src, dst = pair()
            kind = rng.choice(("write", "write", "scatter", "read"))
            if kind == "write":
                spec = OpSpec(src, dst, "write", rng.randint(64, 32_768),
                              flags=flags_for(), wait=rng.random() < 0.25)
            elif kind == "scatter":
                spec = OpSpec(src, dst, "scatter", rng.randint(16, 256),
                              segments=rng.randint(2, 6), flags=flags_for(),
                              wait=rng.random() < 0.25)
            else:
                spec = OpSpec(src, dst, "read", rng.randint(512, 8_192),
                              flags=flags_for(p_notify=0.0),
                              wait=rng.random() < 0.4)
            ops.append(spec)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return tuple(ops)


def _gen_faults(
    rng: random.Random, profile: str, nodes: int, rails: int
) -> tuple[object, ...]:
    """Bounded fault events: runs must always complete within the limit."""

    def edge() -> tuple[int, int]:
        return rng.randrange(nodes), rng.randrange(rails)

    events: list[object] = []
    if profile == "none":
        pass
    elif profile == "outage":
        for _ in range(rng.randint(1, 2)):
            node, rail = edge()
            events.append(
                Outage(at_ns=rng.randint(200 * _US, 5 * _MS), node=node,
                       rail=rail, duration_ns=rng.randint(100 * _US, 2 * _MS))
            )
    elif profile == "flap":
        node, rail = edge()
        period = rng.randint(400 * _US, 1500 * _US)
        events.append(
            Flap(at_ns=rng.randint(200 * _US, 2 * _MS), node=node, rail=rail,
                 period_ns=period, down_ns=rng.randint(100 * _US,
                                                       min(400 * _US, period)),
                 count=rng.randint(2, 4))
        )
    elif profile == "ber":
        node, rail = edge()
        at = rng.randint(100 * _US, 2 * _MS)
        events.append(
            BitErrorRamp(at_ns=at, node=node, rail=rail,
                         bit_error_rate=10 ** rng.uniform(-7.0, -4.5))
        )
        events.append(
            Repair(at_ns=at + rng.randint(1 * _MS, 4 * _MS), node=node,
                   rail=rail)
        )
    elif profile == "chaos":
        for _ in range(rng.randint(2, 4)):
            node, rail = edge()
            kind = rng.choice(("outage", "ber", "perm"))
            at = rng.randint(200 * _US, 4 * _MS)
            if kind == "outage":
                events.append(
                    Outage(at_ns=at, node=node, rail=rail,
                           duration_ns=rng.randint(100 * _US, 1500 * _US))
                )
            elif kind == "ber":
                events.append(
                    BitErrorRamp(at_ns=at, node=node, rail=rail,
                                 bit_error_rate=10 ** rng.uniform(-7.0, -5.0))
                )
                events.append(
                    Repair(at_ns=at + rng.randint(1 * _MS, 3 * _MS),
                           node=node, rail=rail)
                )
            else:
                # Permanent failure is always paired with a repair so the
                # run can drain even on a single-rail configuration.
                events.append(PermanentFailure(at_ns=at, node=node, rail=rail))
                events.append(
                    Repair(at_ns=at + rng.randint(1 * _MS, 3 * _MS),
                           node=node, rail=rail)
                )
    else:
        raise ValueError(f"unknown fault profile {profile!r}")
    return tuple(events)


def scenario_from_seed(
    seed: int,
    workload: Optional[str] = None,
    fault_profile: Optional[str] = None,
) -> Scenario:
    """Derive a scenario deterministically from ``(seed, workload, faults)``.

    ``random.Random`` with a string seed hashes it stably (SHA-512), so the
    derivation is identical across processes and Python invocations.
    """
    rng = random.Random(f"multiedge-fuzz:{seed}:{workload}:{fault_profile}")
    if workload is None:
        workload = rng.choice(WORKLOADS)
    if fault_profile is None:
        fault_profile = rng.choice(FAULT_PROFILES)
    config = rng.choice(_CONFIGS)
    rails = 2 if config.startswith("2") else 1
    nodes = rng.choice((2, 2, 2, 3))

    pairs = [(0, 1)]
    if rng.random() < 0.4:
        pairs.append((1, 0))  # reverse traffic on the same connection
    if nodes == 3:
        pairs.append(rng.choice(((2, 1), (0, 2), (2, 0))))

    striping = None
    if rails > 1:
        striping = rng.choice(
            (None, "round_robin", "shortest_queue", "single_rail", "adaptive")
        )
    # Congestion knobs come from their own stream so every draw above is
    # byte-for-byte identical to what the pre-congestion fuzzer produced.
    crng = random.Random(
        f"multiedge-fuzz-congestion:{seed}:{workload}:{fault_profile}"
    )
    congestion = crng.choice(("static", "static", "aimd", "dctcp"))
    ecn_threshold = crng.choice((None, 8, 16, 32))
    pacing = congestion != "static" and crng.random() < 0.25
    return Scenario(
        seed=seed,
        config=config,
        nodes=nodes,
        workload=workload,
        fault_profile=fault_profile,
        striping=striping,
        window_frames=rng.choice((8, 16, 64, 256)),
        pump_batch=rng.choice((1, 4, 8)),
        tx_ring_frames=rng.choice((None, None, 4, 8, 32)),
        control_plane=rails > 1 and rng.random() < 0.5,
        ops=_gen_ops(rng, workload, pairs),
        faults=_gen_faults(rng, fault_profile, nodes, rails),
        congestion=congestion,
        ecn_threshold=ecn_threshold,
        pacing=pacing,
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _build_cluster(sc: Scenario, trace: bool, fastpath: bool = False) -> Cluster:
    congestion_params = None
    if sc.pacing:
        congestion_params = CongestionParams(pacing=True)
    protocol = ProtocolParams(
        window_frames=sc.window_frames,
        pump_batch=sc.pump_batch,
        in_order_delivery=(sc.config == "2L-1G"),
        striping=sc.striping or "round_robin",
        congestion=sc.congestion,
        congestion_params=congestion_params,
    )
    overrides: dict = {"protocol": protocol}
    if sc.tx_ring_frames is not None:
        base = myri10g_params if sc.config == "1L-10G" else tigon3_params
        ring = sc.tx_ring_frames
        overrides["nic_factory"] = lambda: base(tx_ring_frames=ring)
    if fastpath:
        overrides["fastpath"] = True
    cluster = make_cluster(sc.config, nodes=sc.nodes, seed=sc.seed, **overrides)
    if sc.ecn_threshold is not None:
        cluster.set_ecn_threshold(sc.ecn_threshold)
    if trace:
        cluster.enable_frame_tracing()
    return cluster


# What fingerprint() hashes of each endpoint's ConnectionStats, by name and
# in this order.  A counter added to ConnectionStats is not hashed, so it
# moves no pinned fingerprint; changing this tuple is a re-pin (DESIGN.md §9).
FINGERPRINT_FIELDS = (
    # send side
    "ops_submitted", "ops_completed", "data_frames_sent", "data_bytes_sent",
    "retransmitted_frames", "explicit_acks_sent", "nacks_sent",
    "piggybacked_acks", "timeout_retransmits", "nack_retransmits",
    "pump_charged_ns", "pump_stalled_ns",
    # edge lifecycle
    "edges_removed", "edges_added", "migrated_frames", "probes_sent",
    "probes_answered",
    # receive side
    "data_frames_received", "data_bytes_received", "duplicate_frames",
    "out_of_order_frames", "buffered_frames", "max_buffered_frames",
    "reorder_distance_total", "reorder_events", "reorder_histogram",
    "explicit_acks_received", "nacks_received", "notifications_delivered",
)


def fingerprint(cluster: Cluster, include_trace: bool = False) -> str:
    """SHA-256 over final simulation time, the :data:`FINGERPRINT_FIELDS`
    of every endpoint's stats plus its sequence state, and (optionally) the
    captured frame trace — the bit-determinism witness."""
    h = hashlib.sha256()
    h.update(str(cluster.sim.now).encode())
    for stack in cluster.stacks:
        for conn_id in sorted(stack.protocol.connections):
            conn = stack.protocol.connections[conn_id]
            h.update(f"|{conn_id}@{stack.node_id}".encode())
            s = conn.stats
            for name in FINGERPRINT_FIELDS:
                h.update(f"{name}={getattr(s, name)};".encode())
            h.update(
                f"next_seq={conn.window.next_seq};"
                f"expected={conn.tracker.expected};".encode()
            )
    if include_trace:
        for rec in cluster.tracer.records:
            h.update(repr(rec).encode())
    return h.hexdigest()


def _verdict(
    family: str,
    seed: int,
    scenario: object,
    cluster: Cluster,
    monitor: Optional[InvariantMonitor] = None,
    violations=None,
    result: object = None,
    failure: Optional[str] = None,
    trace: bool = False,
) -> FuzzResult:
    """The one place a finished run's facts become a :class:`FuzzResult`:
    ``violations`` are the monitor's unless the run's own result lists more,
    ``failure`` is the error that stopped the run, if one did, and a run
    that reached its end fails on the first violation."""
    if violations is None:
        violations = monitor.violations if monitor is not None else ()
    violations = tuple(str(v) for v in violations)
    if failure is None and violations:
        failure = f"invariant: {violations[0]}"
    return FuzzResult(
        family=family,
        seed=seed,
        scenario=scenario,
        failure=failure,
        fingerprint=fingerprint(cluster, include_trace=trace),
        elapsed_ns=cluster.sim.now,
        checks=monitor.checks_run if monitor is not None else 0,
        violations=violations,
        fastpath_jumps=(
            cluster.fastpath.stats.jumps if cluster.fastpath is not None else 0
        ),
        result=result,
    )


class ScenarioRun(Run):
    """One ``protocol`` scenario as a pausable :class:`~repro.bench.run.Run`
    (:func:`run_scenario` is the one-shot front door).

    Construction wires the cluster, faults, and sender processes;
    :meth:`run_to` pauses no later than the instant the workload ends;
    :meth:`finish` never raises — a failure lands in the :class:`FuzzResult`.
    """

    def __init__(
        self,
        sc: Scenario,
        use_monitor: bool = True,
        collect: bool = False,
        trace: bool = False,
        fastpath: bool = False,
    ) -> None:
        self.sc = sc
        self.trace = trace
        self._failure: Optional[str] = None
        cluster = self.cluster = _build_cluster(sc, trace, fastpath)
        pairs = sorted({(op.src, op.dst) for op in sc.ops})
        conn_pairs = sorted({(min(i, j), max(i, j)) for i, j in pairs})
        handles = {}
        for i, j in conn_pairs:
            a, b = cluster.connect(i, j)
            handles[(i, j)] = a
            handles[(j, i)] = b

        if sc.control_plane:
            for i, j in conn_pairs:
                cluster.enable_edge_control(i, j)

        self.monitor = (
            InvariantMonitor.attach(cluster, collect=collect)
            if use_monitor
            else None
        )
        self.faults = FaultSchedule(list(sc.faults))
        self.faults.apply(cluster)

        # One send/receive buffer per (src, dst) direction; ops reuse them.
        max_size = max(
            (op.size * max(op.segments, 1) for op in sc.ops), default=0
        ) or 64
        bufs = {}
        for i, j in pairs:
            src_node = cluster.nodes[i]
            dst_node = cluster.nodes[j]
            bufs[(i, j)] = (
                src_node.memory.alloc(max_size),
                dst_node.memory.alloc(max_size),
            )

        by_src: dict[int, list[OpSpec]] = {}
        for op in sc.ops:
            by_src.setdefault(op.src, []).append(op)

        def sender(src: int, specs: list[OpSpec]):
            pending = []
            for spec in specs:
                handle = handles[(spec.src, spec.dst)]
                local, remote = bufs[(spec.src, spec.dst)]
                if spec.kind == "write":
                    oh = yield from handle.rdma_write(
                        local, remote, spec.size, flags=spec.flags
                    )
                elif spec.kind == "scatter":
                    segments = [
                        (remote + k * spec.size, bytes(spec.size))
                        for k in range(spec.segments)
                    ]
                    oh = yield from handle.rdma_write_scatter(
                        segments, flags=spec.flags
                    )
                elif spec.kind == "read":
                    oh = yield from handle.rdma_read(
                        local, remote, spec.size, flags=spec.flags
                    )
                else:
                    raise ValueError(f"unknown op kind {spec.kind!r}")
                pending.append(oh)
                if spec.wait:
                    yield from oh.wait()
            for oh in pending:
                yield from oh.wait()

        self.procs = [
            cluster.sim.process(sender(src, specs))
            for src, specs in sorted(by_src.items())
        ]

    @property
    def traffic_done(self) -> bool:
        """True once every workload process has finished (where
        :meth:`run_to` clamps)."""
        return all(p._finished for p in self.procs)

    def run_to(self, time_ns: int) -> None:
        """Execute every event due at or before ``time_ns``, then pause.

        The pause clamps at the instant the last workload process
        finishes — exactly where an uninterrupted run's
        ``run_until_done`` sequence stops before ``finish()`` shuts the
        managers down.  Running any further would execute periodic
        events (keepalives, edge monitors) that the uninterrupted run
        suppresses, breaking ``run-to-end == pause+finish`` composition.
        """
        if self._failure is not None:
            return
        try:
            # finish()'s own sequence, bounded: each workload process in turn.
            for proc in self.procs:
                self.cluster.sim.run_until_time(time_ns, proc)
                if not proc._finished:
                    break
        except (InvariantViolation, SimulationError) as e:
            self._failure = _failure_of(e)

    def finish(self) -> FuzzResult:
        """Run to completion and report; never raises."""
        cluster = self.cluster
        monitor = self.monitor
        failure = self._failure
        if failure is None:
            try:
                for proc in self.procs:
                    cluster.sim.run_until_done(proc, limit=self.sc.limit_ns)
                cluster.quiesce()  # drain retransmits, acks, fault timers
                for stack in cluster.stacks:
                    for conn in stack.protocol.connections.values():
                        for op in [
                            rec.op for rec in conn.window.inflight.values()
                        ] + list(conn._pending_reads.values()):
                            if not op.completed:
                                raise SimulationError(
                                    f"op {op!r} incomplete after drain"
                                )
                if monitor is not None:
                    monitor.final_check()
            except (InvariantViolation, SimulationError) as e:
                failure = _failure_of(e)
        return _verdict(
            "protocol", self.sc.seed, self.sc, cluster, monitor,
            failure=failure, trace=self.trace,
        )


def run_scenario(sc: Scenario, **kwargs) -> FuzzResult:
    """Execute one scenario (arguments as :class:`ScenarioRun`); never
    raises — failures land in the result."""
    return ScenarioRun(sc, **kwargs).finish()


# ---------------------------------------------------------------------------
# Crash fuzzing
# ---------------------------------------------------------------------------


def run_crash_scenario(seed: int) -> FuzzResult:
    """One randomized whole-node crash/recovery run (repro.recovery).

    The run streams journaled messages at a receiver that crashes and
    reboots mid-stream, with the invariant monitor attached; its
    :class:`~repro.bench.crash.CrashResult` (carried as ``result``) must
    list no violation — which covers the monitor's
    no-stale-frame-accepted and journal-conservation checks plus the
    ``exactly-once`` and ``never-reconnected`` clauses.
    """
    from ..bench.crash import CrashRun

    rng = random.Random(f"multiedge-fuzz-crash:{seed}")
    crash_ns = rng.randint(1 * _MS, 6 * _MS)
    restart_delay_ns = rng.randint(200 * _US, 12 * _MS)
    run = CrashRun(
        config=rng.choice(_CONFIGS),
        message_bytes=rng.choice((256, 1024, 2048, 4096)),
        message_interval_ns=rng.randint(30 * _US, 200 * _US),
        crash_ns=crash_ns,
        restart_delay_ns=restart_delay_ns,
        run_ns=crash_ns + restart_delay_ns + rng.randint(10 * _MS, 20 * _MS),
        seed=seed,
        use_monitor=True,
    )
    res = run.finish()
    axes = Axes(config=res.config, fault_profile="crash")
    return _verdict(
        "crash", seed, axes, run.cluster, run.monitor, res.violations, res
    )


def run_incarnation_scenario(seed: int) -> FuzzResult:
    """One randomized incarnation-collision run.

    Node 1 dials node 0 and streams writes; mid-flight it crashes,
    restarts (bumping its incarnation), and — with its dial counter reset
    by the crash — re-dials the *same* connection id.  Frames from the
    dead incarnation still in the fabric then land on the successor
    endpoint and must be rejected by the incarnation guard (witnessed by
    the monitor's ``stale-frame-accepted`` invariant staying silent while
    ``result.stale_frames_rejected`` — the run's
    :class:`~repro.analysis.ClusterSummary` — counts the drops).
    """
    from ..analysis.summary import summarize_cluster

    rng = random.Random(f"multiedge-fuzz-incarnation:{seed}")
    config = rng.choice(("2L-1G", "2Lu-1G"))
    cluster = make_cluster(config, nodes=2, seed=seed, synthetic_payloads=True)
    recovery = cluster.enable_crash_recovery()
    monitor = InvariantMonitor.attach(cluster, collect=True)
    enable_listener(cluster.stacks[0])
    sim = cluster.sim
    n_before = rng.randint(8, 30)
    n_after = rng.randint(2, 10)
    size = rng.choice((2048, 4096, 8192))

    def driver():
        handle = yield from dial(cluster.stacks[1], 0, cluster.config.protocol)
        for k in range(n_before):
            yield from handle.rdma_write(k * size, k * size, size)
        yield rng.randint(0, 30_000)
        recovery.crash(1)
        recovery.restart(1)
        yield rng.randint(0, 10_000)
        handle2 = yield from dial(cluster.stacks[1], 0, cluster.config.protocol)
        ops = []
        for k in range(n_after):
            oh = yield from handle2.rdma_write(k * size, k * size, size)
            ops.append(oh)
        for oh in ops:
            yield from oh.wait()

    proc = sim.process(driver(), name="fuzz.incarnation")
    sim.run_until_done(proc, limit=2_000_000_000)
    cluster.quiesce()
    monitor.final_check()
    axes = Axes(config=config, fault_profile="crash")
    return _verdict(
        "incarnation", seed, axes, cluster, monitor,
        result=summarize_cluster(cluster),
    )


# ---------------------------------------------------------------------------
# Fabric fuzzing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FabricScenario:
    """A declarative multi-switch fabric fuzz case (repro.fabric).

    ``trunk_events`` is a tuple of ``(at_ns, kind, a, b, dwell_ns)``
    tuples: at ``at_ns`` the trunk between switches ``a`` and ``b`` is
    either administratively drained (``"drain"`` — in-flight frames
    still arrive) or hard-failed (``"fail"`` — in-flight frames are
    lost), and restored ``dwell_ns`` later.  Events always leave at
    least one alternate uplink alive, so ECMP re-pins around them.
    """

    seed: int
    topology: str  # "leaf-spine" | "fat-tree"
    leaves: int
    spines: int
    hosts_per_leaf: int
    k: int
    nodes: int
    traffic: str  # "permutation" | "all-to-all" | "hotspot" | "elephant-mice"
    bytes_per_flow: int
    trunk_events: tuple[tuple[int, str, str, str, int], ...]


def fabric_scenario_from_seed(seed: int) -> FabricScenario:
    """Derive a fabric scenario from the ``multiedge-fuzz-fabric:<seed>``
    stream."""
    rng = random.Random(f"multiedge-fuzz-fabric:{seed}")
    traffic = rng.choice(
        ("permutation", "all-to-all", "hotspot", "elephant-mice")
    )
    bytes_per_flow = rng.choice((2_048, 8_192, 16_384))
    leaves = spines = hosts_per_leaf = k = 0
    events: list[tuple[int, str, str, str, int]] = []
    if rng.random() < 0.75:
        topology = "leaf-spine"
        leaves = rng.randint(2, 3)
        spines = rng.randint(2, 3)
        hosts_per_leaf = rng.randint(2, 4)
        nodes = min(leaves * hosts_per_leaf, rng.randint(4, 8))
        # Each event targets a distinct leaf, and spines >= 2, so every
        # leaf keeps at least one live uplink throughout.
        for target_leaf in rng.sample(range(leaves), rng.randint(0, 2)):
            events.append(
                (
                    rng.randint(50 * _US, 2 * _MS),
                    rng.choice(("drain", "fail")),
                    f"leaf0.{target_leaf}",
                    f"spine0.{rng.randrange(spines)}",
                    rng.randint(100 * _US, 1500 * _US),
                )
            )
    else:
        topology = "fat-tree"
        k = 4
        nodes = rng.randint(4, 8)
        if rng.random() < 0.5:
            # One edge-to-aggregation trunk in pod 0; the edge's other
            # aggregation uplink keeps every host reachable.
            events.append(
                (
                    rng.randint(50 * _US, 2 * _MS),
                    rng.choice(("drain", "fail")),
                    "edge0.0.0",
                    f"agg0.0.{rng.randrange(2)}",
                    rng.randint(100 * _US, 1500 * _US),
                )
            )
    return FabricScenario(
        seed=seed,
        topology=topology,
        leaves=leaves,
        spines=spines,
        hosts_per_leaf=hosts_per_leaf,
        k=k,
        nodes=nodes,
        traffic=traffic,
        bytes_per_flow=bytes_per_flow,
        trunk_events=tuple(events),
    )


class FabricRun(Run):
    """One ``fabric`` scenario as a pausable :class:`~repro.bench.run.Run`:
    construction wires the fabric, trunk-churn events, and traffic
    processes, so a pause can land inside a trunk-churn window."""

    def __init__(self, seed: int) -> None:
        from ..fabric import (
            AllToAll,
            ElephantMice,
            FatTreeSpec,
            Hotspot,
            LeafSpineSpec,
            Permutation,
            TrafficRun,
        )

        sc = self.sc = fabric_scenario_from_seed(seed)
        if sc.topology == "leaf-spine":
            spec = LeafSpineSpec(
                leaves=sc.leaves,
                spines=sc.spines,
                hosts_per_leaf=sc.hosts_per_leaf,
            )
        else:
            spec = FatTreeSpec(k=sc.k)
        cluster = self.cluster = make_cluster(
            "1L-1G",
            nodes=sc.nodes,
            seed=sc.seed,
            synthetic_payloads=False,
            fabric=spec,
        )
        kinds = {"drain": TrunkDrain, "fail": TrunkOutage}
        self.faults = FaultSchedule(
            [kinds[kind](at, 0, a, b, dwell) for at, kind, a, b, dwell in sc.trunk_events]
        )
        self.faults.apply(cluster)
        traffic = {
            "permutation": lambda: Permutation(sc.bytes_per_flow, rounds=2),
            "all-to-all": lambda: AllToAll(sc.bytes_per_flow),
            "hotspot": lambda: Hotspot(
                targets=1, bytes_per_flow=sc.bytes_per_flow
            ),
            "elephant-mice": lambda: ElephantMice(
                elephants=2,
                elephant_bytes=4 * sc.bytes_per_flow,
                mice=8,
                mouse_bytes=max(sc.bytes_per_flow // 8, 64),
            ),
        }[sc.traffic]()
        self.traffic_run = TrafficRun(cluster, traffic, seed=sc.seed)

    def finish(self) -> FuzzResult:
        res = self.traffic_run.finish()
        return _verdict(
            "fabric", self.sc.seed, self.sc, self.cluster,
            violations=res.violations, result=res,
        )


def run_fabric_scenario(seed: int) -> FuzzResult:
    """One randomized multi-switch fabric run with trunk churn.

    Builds the scenario's leaf-spine or fat-tree fabric, drives its
    traffic matrix over message passing while trunks drain/fail and
    recover mid-run; its :class:`~repro.fabric.TrafficResult` (carried
    as ``result``) must list no violation of the fabric's routing
    invariants (structural acyclicity, ECMP determinism, switch and trunk
    frame conservation) or of end-to-end delivery (``data-integrity``,
    ``messages-received``).
    """
    return FabricRun(seed).finish()


# ---------------------------------------------------------------------------
# Serve fuzzing
# ---------------------------------------------------------------------------


def _run_serving(family: str, seed: int, **kwargs) -> FuzzResult:
    """The shared end of ``serve`` and ``gray``: one monitored
    :class:`~repro.bench.serve.ServeRun`.  Request conservation is among the
    serve invariants it lists in ``violations``; a run that generated no
    request proves nothing and is a violation of its own.
    """
    from ..bench.serve import ServeRun

    run = ServeRun(seed=seed, use_monitor=True, **kwargs)
    drew = run.recipe
    faults = drew["faults"] or ()
    axes = Axes(
        config=drew["config"],
        fault_profile=(
            "crash" if any(isinstance(ev, Crash) for ev in faults) else "none"
        ),
        gray_kinds=tuple(
            type(ev).__name__ for ev in faults
            if not isinstance(ev, (Crash, Restart))
        ),
        mitigated=drew["tail"] is not None,
        detected=drew["gray_detection"],
    )
    res = run.finish()
    violations = res.violations
    if not res.generated:
        violations += ("no-requests-generated",)
    return _verdict(
        family, seed, axes, run.cluster, run.monitor, violations, res
    )


def _crash_restart(rng, node: int, at: tuple, delay: tuple) -> list:
    """A server crash at a drawn instant and its restart a drawn delay
    later (the node is drawn first, then the instant, then the delay)."""
    at_ns = rng.randint(*at)
    delay_ns = rng.randint(*delay)
    return [
        Crash(at_ns=at_ns, node=node),
        Restart(at_ns=at_ns, node=node, delay_ns=delay_ns),
    ]


def run_serve_scenario(seed: int) -> FuzzResult:
    """One randomized open-loop serving run (repro.serve).

    The draw crosses arrival model (Poisson/bursty) x load-balancing
    policy x fault profile (clean or mid-run server crash/restart) x
    overload knobs (queue cap, workers, service-time model, client
    outbox cap), runs under the invariant monitor, and asserts request
    conservation: every generated request ends as completed, shed
    (server- or client-side), or failed — across crash replay too.
    """
    from ..serve import ArrivalSpec, ServerSpec

    rng = random.Random(f"multiedge-fuzz-serve:{seed}")
    arrival_kind = rng.choice(("poisson", "bursty"))
    policy = rng.choice(
        ("round-robin", "least-outstanding", "leaf-affinity")
    )
    fault_profile = rng.choice(("none", "none", "crash"))
    config = rng.choice(("1L-1G", "1L-10G"))
    n_clients = rng.randint(1, 3)
    n_servers = rng.randint(1, 3)
    duration_ns = rng.randint(4 * _MS, 8 * _MS)
    arrival = ArrivalSpec(
        kind=arrival_kind,
        rate_rps=rng.choice((10_000, 30_000, 60_000)),
        request_bytes=("uniform", 32, 1_024),
        response_bytes=("uniform", 64, 2_048),
        batch=64,
    )
    server = ServerSpec(
        queue_cap=rng.choice((4, 16, 64)),
        workers=rng.choice((1, 2, 4)),
        service=rng.choice(
            (("fixed", 20_000), ("exp", 30_000), ("uniform", 5_000, 50_000))
        ),
    )
    kwargs: dict = {"outbox_cap": rng.choice((0, 8, 64))}
    if fault_profile == "crash":
        n_servers = max(n_servers, 2)
        kwargs["faults"] = _crash_restart(
            rng, n_clients + rng.randrange(n_servers),
            (1 * _MS, duration_ns // 2), (500 * _US, 3 * _MS),
        )
    return _run_serving(
        "serve",
        seed,
        config=config,
        n_clients=n_clients,
        n_servers=n_servers,
        policy=policy,
        arrival=arrival,
        server=server,
        duration_ns=duration_ns,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Gray-failure fuzzing (repro.control gray faults x repro.serve.tail)
# ---------------------------------------------------------------------------


def run_gray_scenario(seed: int) -> FuzzResult:
    """One randomized serving run under gray (degraded-mode) faults.

    The draw crosses gray fault kind (slow node / slow NIC / degraded
    link / intermittent drop / asymmetric partition) x tail-tolerance
    machinery (off, or hedging + retry budget + breakers + ejection) x
    differential detection (off/on) x an optional clean-node crash, and
    asserts the same request-conservation and tail-accounting invariants
    as the plain serve fuzzer: gray degradation may slow requests down,
    but every one of them must still be accounted for.
    """
    from ..control import (
        AsymmetricPartition,
        DegradedLink,
        IntermittentDrop,
        SlowNic,
        SlowNode,
    )
    from ..serve import ArrivalSpec, ServerSpec, TailSpec

    rng = random.Random(f"multiedge-fuzz-gray:{seed}")
    config = rng.choice(("1L-1G", "1L-10G", "2L-1G"))
    rails = 2 if config.startswith("2") else 1
    policy = rng.choice(("round-robin", "least-outstanding"))
    n_clients = rng.randint(1, 2)
    n_servers = rng.randint(2, 4)
    duration_ns = rng.randint(4 * _MS, 6 * _MS)
    arrival = ArrivalSpec(
        kind=rng.choice(("poisson", "bursty")),
        rate_rps=rng.choice((10_000, 30_000)),
        request_bytes=("uniform", 32, 512),
        response_bytes=("uniform", 64, 1_024),
        batch=64,
    )
    server = ServerSpec(
        queue_cap=rng.choice((16, 64)),
        workers=rng.choice((2, 4)),
        service=rng.choice((("fixed", 20_000), ("exp", 30_000))),
    )
    tail = None
    if rng.random() < 0.7:
        tail = TailSpec(
            hedge=rng.random() < 0.8,
            retry_budget=rng.choice((0.05, 0.1, 0.2)),
            breaker=rng.random() < 0.8,
            eject=rng.random() < 0.8,
        )
    detected = rng.random() < 0.5
    # One gray event per node keeps the schedule trivially conflict-free
    # (the validator rejects overlapping windows on one edge).
    n_nodes = n_clients + n_servers
    gray_nodes = rng.sample(range(n_nodes), rng.randint(1, 2))
    faults = []
    for node in gray_nodes:
        at = rng.randint(_MS, duration_ns // 2)
        dur = rng.randint(_MS, 2 * _MS)
        rail = rng.randrange(rails)
        kind = rng.choice(
            ("slow-node", "slow-nic", "degraded", "drop", "partition")
        )
        if kind == "slow-node":
            faults.append(
                SlowNode(at_ns=at, node=node, duration_ns=dur,
                         factor=rng.choice((2.0, 4.0, 8.0)))
            )
        elif kind == "slow-nic":
            faults.append(
                SlowNic(at_ns=at, node=node, rail=rail, duration_ns=dur,
                        factor=rng.choice((2.0, 4.0)))
            )
        elif kind == "degraded":
            faults.append(
                DegradedLink(at_ns=at, node=node, rail=rail, duration_ns=dur,
                             bit_error_rate=rng.choice((1e-7, 1e-6)),
                             jitter_ns=rng.choice((0, 20_000)))
            )
        elif kind == "drop":
            faults.append(
                IntermittentDrop(at_ns=at, node=node, rail=rail,
                                 duration_ns=dur,
                                 drop_p=rng.choice((0.01, 0.05)),
                                 burst_len=rng.choice((2.0, 4.0)))
            )
        else:
            faults.append(
                AsymmetricPartition(at_ns=at, node=node, rail=rail,
                                    duration_ns=dur,
                                    direction=rng.choice(("tx", "rx")))
            )
    clean_servers = [
        s for s in range(n_clients, n_nodes) if s not in gray_nodes
    ]
    if clean_servers and len(clean_servers) < n_servers and rng.random() < 0.3:
        # A fail-stop crash on a gray-free server, racing the gray window.
        faults += _crash_restart(
            rng, rng.choice(clean_servers),
            (_MS, duration_ns // 2), (500 * _US, 2 * _MS),
        )
    return _run_serving(
        "gray",
        seed,
        config=config,
        n_clients=n_clients,
        n_servers=n_servers,
        policy=policy,
        arrival=arrival,
        server=server,
        duration_ns=duration_ns,
        tail=tail,
        faults=faults,
        gray_detection=detected,
    )


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def shrink_scenario(
    sc: Scenario,
    fails: Optional[Callable[[Scenario], bool]] = None,
    max_runs: int = 200,
) -> Scenario:
    """Greedily reduce a failing scenario to a minimal reproducer.

    Removal passes (ops one at a time, then fault events, then halved
    sizes, then knob simplification) repeat until a fixpoint or the run
    budget is exhausted.  Every candidate is re-executed, so the result is
    guaranteed to still fail.
    """
    if fails is None:
        def fails(s: Scenario) -> bool:
            return not run_scenario(s).ok

    runs = 0

    def still_fails(candidate: Scenario) -> bool:
        nonlocal runs
        if runs >= max_runs:
            return False
        runs += 1
        return fails(candidate)

    if not still_fails(sc):
        raise ValueError("shrink_scenario: the input scenario does not fail")

    changed = True
    while changed and runs < max_runs:
        changed = False
        # Drop ops one at a time (back to front keeps indices stable).
        i = len(sc.ops) - 1
        while i >= 0 and len(sc.ops) > 1:
            cand = replace(sc, ops=sc.ops[:i] + sc.ops[i + 1:])
            if still_fails(cand):
                sc = cand
                changed = True
            i -= 1
        # Drop fault events one at a time.
        i = len(sc.faults) - 1
        while i >= 0:
            cand = replace(sc, faults=sc.faults[:i] + sc.faults[i + 1:])
            if still_fails(cand):
                sc = cand
                changed = True
            i -= 1
        # Halve op sizes.
        if any(op.size > 64 for op in sc.ops):
            cand = replace(
                sc,
                ops=tuple(
                    replace(op, size=max(64, op.size // 2)) for op in sc.ops
                ),
            )
            if still_fails(cand):
                sc = cand
                changed = True
        # Simplify knobs.  Each candidate must be rebuilt from the
        # *current* scenario: materializing the whole tuple up front
        # would resurrect knobs an earlier adoption in this very pass
        # just simplified, and the pass would oscillate (adopt A, adopt
        # B-with-A-reverted, re-adopt A, ...) until the run budget was
        # gone.
        def _shrink_nodes(s: Scenario) -> Scenario:
            if s.nodes > 2 and all(
                op.src < 2 and op.dst < 2 for op in s.ops
            ):
                return replace(s, nodes=2)
            return s

        for simplify in (
            lambda s: replace(s, control_plane=False),
            lambda s: replace(s, striping=None),
            lambda s: replace(s, tx_ring_frames=None),
            lambda s: replace(s, congestion="static", pacing=False),
            lambda s: replace(s, ecn_threshold=None),
            _shrink_nodes,
        ):
            simpler = simplify(sc)
            if simpler != sc and still_fails(simpler):
                sc = simpler
                changed = True
    return sc


# ---------------------------------------------------------------------------
# The front door, and the command line
# ---------------------------------------------------------------------------


def _run_protocol(
    seed: int,
    workload: Optional[str] = None,
    fault_profile: Optional[str] = None,
) -> FuzzResult:
    return run_scenario(scenario_from_seed(seed, workload, fault_profile))


# Family name -> ``seed -> FuzzResult``.  Each family draws from its own
# ``multiedge-fuzz[-<family>]:<seed>`` stream, so adding one leaves every
# existing derivation, and every pinned fingerprint, byte-identical.
FAMILIES: dict[str, Callable[..., FuzzResult]] = {
    "protocol": _run_protocol,
    "crash": run_crash_scenario,
    "incarnation": run_incarnation_scenario,
    "fabric": run_fabric_scenario,
    "serve": run_serve_scenario,
    "gray": run_gray_scenario,
}


def run_family(name: str, seed: int, **constraints) -> FuzzResult:
    """Run one seed of one fuzz family; never raises on a failing seed.

    ``constraints`` narrow the ``protocol`` derivation (``workload=``,
    ``fault_profile=``).  An error that escapes the run — a livelock limit,
    a drain that did not drain — comes back as ``failure``, so a seed loop
    sees every bad seed instead of stopping at the first.
    """
    family = FAMILIES[name]
    try:
        return family(seed, **constraints)
    except (InvariantViolation, SimulationError) as e:
        return FuzzResult(name, seed, failure=_failure_of(e))


def run_batch(
    count: int,
    base_seed: int = 0,
    family: str = "protocol",
    shrink: bool = True,
    **constraints,
) -> list[FuzzResult]:
    """Run ``count`` seeds of ``family``; report (and, for ``protocol``,
    shrink) any failure."""
    results = []
    for k in range(count):
        res = run_family(family, base_seed + k, **constraints)
        results.append(res)
        if not res.ok or (k + 1) % 25 == 0:
            status = "FAIL" if not res.ok else "ok"
            print(f"[{k + 1}/{count}] {family} seed={res.seed} {status}")
        if not res.ok:
            print(f"  drew: {res.scenario!r}\n  failure: {res.failure}")
            for v in res.violations:
                print(f"  violation: {v}")
            if shrink and isinstance(res.scenario, Scenario):
                small = shrink_scenario(res.scenario)
                print(f"  minimal reproducer:\n    {small!r}")
    return results


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Deterministic MultiEdge fuzzer (six families)"
    )
    parser.add_argument("--family", choices=tuple(FAMILIES), default="protocol")
    parser.add_argument("--count", type=int, default=50,
                        help="number of seeds to run")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--seed", type=int, default=None,
                        help="run exactly one seed (implies --count 1)")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="protocol family only")
    parser.add_argument("--faults", choices=FAULT_PROFILES, default=None,
                        help="protocol family only")
    parser.add_argument("--no-shrink", action="store_true")
    args = parser.parse_args(argv)

    constraints = {}
    if args.workload is not None:
        constraints["workload"] = args.workload
    if args.faults is not None:
        constraints["fault_profile"] = args.faults
    if constraints and args.family != "protocol":
        parser.error("--workload/--faults constrain the protocol family only")
    if args.seed is not None:
        count, base = 1, args.seed
    else:
        count, base = args.count, args.base_seed
    results = run_batch(
        count,
        base_seed=base,
        family=args.family,
        shrink=not args.no_shrink,
        **constraints,
    )
    failures = [r for r in results if not r.ok]
    checks = sum(r.checks for r in results)
    print(
        f"{len(results)} {args.family} scenarios, {checks} invariant checks, "
        f"{len(failures)} failures"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

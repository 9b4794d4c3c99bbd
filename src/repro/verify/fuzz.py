"""Deterministic fuzzing under the invariant monitor: six families, one door.

A fuzz family is a derivation ``seed -> recipe`` for one
:class:`~repro.bench.run.Run` class, and :data:`FAMILIES` maps each name to
both.  :func:`run_family` draws the recipe, builds ``cls(**recipe)``,
finishes it and judges it; the :class:`FuzzResult` carries the run's
recipe, so ``FAMILIES[name].run(**res.recipe)`` is the same run again, and
:func:`shrink` reduces a failing recipe of any family to a minimal
reproducer.  ``ok`` means one thing, ``failure is None``, and
``violations`` name every clause that did not hold.

The ``protocol`` family's recipe is one :class:`Scenario`: cluster
configuration, protocol knobs (window, pump batch, TX ring depth, striping
policy), a workload (a sequence of :class:`OpSpec` remote operations) and
fault events, drawn by :func:`scenario_from_seed` and run by
:class:`ScenarioRun` with an :class:`~repro.verify.InvariantMonitor`
attached.  ``crash``, ``incarnation``, ``fabric``, ``serve`` and ``gray``
draw the arguments of other runs.

Everything is deterministic: a recipe is a pure function of the seed, and
the simulation itself is seeded, so the same seed always produces the
identical event trace, final stats, and :func:`fingerprint`.  That
determinism is itself asserted by the CI smoke suite
(``benchmarks/bench_fuzz.py``).

Command line::

    PYTHONPATH=src python -m repro.verify.fuzz --count 50
    PYTHONPATH=src python -m repro.verify.fuzz --family serve --seed 97
"""

from __future__ import annotations

import hashlib
import inspect
import random
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from typing import Callable, NamedTuple, Optional

from ..analysis.summary import summarize_cluster
from ..bench.cluster import Cluster, make_cluster, named_config
from ..bench.crash import CrashRun
from ..bench.run import Run
from ..bench.serve import ServeRun
from ..control import (
    AsymmetricPartition,
    BitErrorRamp,
    Crash,
    DegradedLink,
    FaultEvent,
    FaultSchedule,
    Flap,
    IntermittentDrop,
    Outage,
    PermanentFailure,
    Repair,
    Restart,
    SlowNic,
    SlowNode,
    TrunkDrain,
    TrunkOutage,
)
from ..core import ProtocolParams, dial, enable_listener
from ..ethernet import OpFlags
from ..fabric import (
    AllToAll,
    ElephantMice,
    FatTreeSpec,
    Hotspot,
    LeafSpineSpec,
    Permutation,
    TrafficRun,
)
from ..host import myri10g_params, tigon3_params
from ..serve import ArrivalSpec, ServerSpec, TailSpec
from ..sim import SimulationError
from .monitor import InvariantMonitor, InvariantViolation

__all__ = [
    "OpSpec",
    "Scenario",
    "FuzzResult",
    "Family",
    "FAMILIES",
    "run_family",
    "shrink",
    "WORKLOADS",
    "FAULT_PROFILES",
    "scenario_from_seed",
    "run_scenario",
    "fingerprint",
    "FINGERPRINT_FIELDS",
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


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """A fully declarative, replayable fuzz case.

    A field with a default is a knob: :func:`shrink` tries it at its default.
    """

    seed: int
    config: str
    nodes: int = 2
    workload: str
    fault_profile: str
    striping: Optional[str] = None
    window_frames: int
    pump_batch: int
    tx_ring_frames: Optional[int] = None
    control_plane: bool = False
    ops: tuple[OpSpec, ...]
    faults: tuple[object, ...]
    limit_ns: int  # the livelock bound of the run, not a knob
    # Congestion knobs (repro.congestion).  ECN marking is exercised even
    # with the static policy: receivers still echo, senders still count,
    # and the conservation invariants still apply.
    congestion: str = "static"
    ecn_threshold: Optional[int] = None
    pacing: bool = False


@dataclass
class FuzzResult:
    """Outcome of one fuzz run, of any family."""

    family: str  # a key of FAMILIES
    seed: int
    # The run's recipe (Run.recipe): FAMILIES[family].run(**recipe) is the
    # same run again.
    recipe: dict
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
        limit_ns=2_000_000_000,
        congestion=congestion,
        ecn_threshold=ecn_threshold,
        pacing=pacing,
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _build_cluster(sc: Scenario, trace: bool, fastpath: bool = False) -> Cluster:
    protocol = ProtocolParams(
        window_frames=sc.window_frames,
        pump_batch=sc.pump_batch,
        in_order_delivery=(sc.config == "2L-1G"),
        striping=sc.striping or "round_robin",
        congestion=sc.congestion,
        pacing=sc.pacing,
    )
    overrides: dict = {"protocol": protocol}
    if sc.tx_ring_frames is not None:
        base = myri10g_params if sc.config == "1L-10G" else tigon3_params
        ring = sc.tx_ring_frames
        overrides["nic_factory"] = lambda: base(tx_ring_frames=ring)
    if fastpath:
        overrides["fastpath"] = True
    cfg = named_config(sc.config, nodes=sc.nodes, seed=sc.seed, **overrides)
    switch = replace(cfg.switch, ecn_threshold_frames=sc.ecn_threshold)
    cluster = Cluster(replace(cfg, switch=switch))
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
    recipe: dict,
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
        recipe=recipe,
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

    Construction wires the cluster, faults, and sender processes; the
    workload is those processes, bounded by ``sc.limit_ns``.
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
        self.limit_ns = sc.limit_ns
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

    def _report(self) -> FuzzResult:
        return _verdict(
            "protocol", self.sc.seed, self.recipe, self.cluster, self.monitor,
            trace=self.trace,
        )


def run_scenario(sc: Scenario, **kwargs) -> FuzzResult:
    """Execute one scenario (arguments as :class:`ScenarioRun`); never
    raises — failures land in the result."""
    return _judge("protocol", sc.seed, ScenarioRun(sc, **kwargs))


# ---------------------------------------------------------------------------
# Crash and incarnation fuzzing (repro.recovery)
# ---------------------------------------------------------------------------


def _crash(seed: int) -> dict:
    """A journaled message stream whose receiver crashes and reboots
    mid-stream (:class:`~repro.bench.crash.CrashRun`, monitor attached).
    Its result lists the monitor's no-stale-frame-accepted and
    journal-conservation findings plus the ``exactly-once`` and
    ``never-reconnected`` clauses."""
    rng = random.Random(f"multiedge-fuzz-crash:{seed}")
    crash_ns = rng.randint(1 * _MS, 6 * _MS)
    restart_delay_ns = rng.randint(200 * _US, 12 * _MS)
    return dict(
        config=rng.choice(_CONFIGS),
        message_bytes=rng.choice((256, 1024, 2048, 4096)),
        message_interval_ns=rng.randint(30 * _US, 200 * _US),
        crash_ns=crash_ns,
        restart_delay_ns=restart_delay_ns,
        run_ns=crash_ns + restart_delay_ns + rng.randint(10 * _MS, 20 * _MS),
        seed=seed,
        use_monitor=True,
    )


class IncarnationRun(Run):
    """One incarnation-collision run.

    Node 1 dials node 0 and streams ``n_before`` writes; ``crash_after_ns``
    later it crashes and restarts (bumping its incarnation), and
    ``redial_after_ns`` after that — with its dial counter reset by the
    crash — re-dials the *same* connection id for ``n_after`` more writes.
    Frames from the dead incarnation still in the fabric then land on the
    successor endpoint and must be rejected by the incarnation guard
    (witnessed by the monitor's ``stale-frame-accepted`` invariant staying
    silent while ``result.stale_frames_rejected`` — the run's
    :class:`~repro.analysis.ClusterSummary` — counts the drops).
    """

    def __init__(
        self,
        config: str,
        n_before: int,
        n_after: int,
        size: int,
        crash_after_ns: int,
        redial_after_ns: int,
        seed: int,
    ) -> None:
        cluster = self.cluster = make_cluster(
            config, nodes=2, seed=seed, synthetic_payloads=True
        )
        recovery = cluster.enable_crash_recovery()
        self.monitor = InvariantMonitor.attach(cluster, collect=True)
        enable_listener(cluster.stacks[0])

        def driver():
            handle = yield from dial(cluster.stacks[1], 0, cluster.config.protocol)
            for k in range(n_before):
                yield from handle.rdma_write(k * size, k * size, size)
            yield crash_after_ns
            recovery.crash(1)
            recovery.restart(1)
            yield redial_after_ns
            handle2 = yield from dial(cluster.stacks[1], 0, cluster.config.protocol)
            ops = []
            for k in range(n_after):
                oh = yield from handle2.rdma_write(k * size, k * size, size)
                ops.append(oh)
            for oh in ops:
                yield from oh.wait()

        self.procs = [cluster.sim.process(driver(), name="fuzz.incarnation")]
        self.limit_ns = 2_000_000_000

    def _report(self) -> FuzzResult:
        return _verdict(
            "incarnation", self.recipe["seed"], self.recipe, self.cluster,
            self.monitor, result=summarize_cluster(self.cluster),
        )


def _incarnation(seed: int) -> dict:
    rng = random.Random(f"multiedge-fuzz-incarnation:{seed}")
    return dict(
        config=rng.choice(("2L-1G", "2Lu-1G")),
        n_before=rng.randint(8, 30),
        n_after=rng.randint(2, 10),
        size=rng.choice((2048, 4096, 8192)),
        crash_after_ns=rng.randint(0, 30_000),
        redial_after_ns=rng.randint(0, 10_000),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Fabric fuzzing
# ---------------------------------------------------------------------------


class FabricRun(Run):
    """One multi-switch fabric run with trunk churn, pausable so a pause
    can land inside a trunk-churn window.

    Builds a leaf-spine (``leaves`` x ``spines``, ``hosts_per_leaf``) or a
    ``k``-ary fat-tree, drives the ``traffic`` matrix over message passing
    while the trunk ``faults`` (:class:`~repro.control.TrunkDrain`,
    :class:`~repro.control.TrunkOutage`) come and go; its
    :class:`~repro.fabric.TrafficResult` (carried as ``result``) lists any
    violation of the fabric's routing invariants (structural acyclicity,
    ECMP determinism, switch and trunk frame conservation) or of
    end-to-end delivery (``data-integrity``, ``messages-received``).
    """

    def __init__(
        self,
        topology: str,  # "leaf-spine" | "fat-tree"
        leaves: int,
        spines: int,
        hosts_per_leaf: int,
        k: int,
        nodes: int,
        traffic: str,  # "permutation" | "all-to-all" | "hotspot" | "elephant-mice"
        bytes_per_flow: int,
        faults: tuple,
        seed: int,
    ) -> None:
        if topology == "leaf-spine":
            spec = LeafSpineSpec(
                leaves=leaves, spines=spines, hosts_per_leaf=hosts_per_leaf
            )
        else:
            spec = FatTreeSpec(k=k)
        cluster = self.cluster = make_cluster(
            "1L-1G", nodes=nodes, seed=seed, synthetic_payloads=False,
            fabric=spec,
        )
        self.faults = FaultSchedule(list(faults))
        self.faults.apply(cluster)
        pattern = {
            "permutation": lambda: Permutation(bytes_per_flow, rounds=2),
            "all-to-all": lambda: AllToAll(bytes_per_flow),
            "hotspot": lambda: Hotspot(targets=1, bytes_per_flow=bytes_per_flow),
            "elephant-mice": lambda: ElephantMice(
                elephants=2,
                elephant_bytes=4 * bytes_per_flow,
                mice=8,
                mouse_bytes=max(bytes_per_flow // 8, 64),
            ),
        }[traffic]()
        traffic = self.traffic = TrafficRun(cluster, pattern, seed=seed)
        self.procs, self.limit_ns = traffic.procs, traffic.limit_ns

    def _report(self) -> FuzzResult:
        res = self.traffic.report(self.end_ns)
        return _verdict(
            "fabric", self.recipe["seed"], self.recipe, self.cluster,
            violations=res.violations, result=res,
        )


def _trunk_fault(rng, a: str, b: str, uplinks: int) -> FaultEvent:
    """A drain or a hard failure of trunk ``a`` -- ``b<i>``, restored later
    (drawn: the instant, the kind, the uplink ``i``, the dwell)."""
    at_ns = rng.randint(50 * _US, 2 * _MS)
    kind = rng.choice((TrunkDrain, TrunkOutage))
    b = f"{b}{rng.randrange(uplinks)}"
    return kind(at_ns, 0, a, b, rng.randint(100 * _US, 1500 * _US))


def _fabric(seed: int) -> dict:
    rng = random.Random(f"multiedge-fuzz-fabric:{seed}")
    traffic = rng.choice(
        ("permutation", "all-to-all", "hotspot", "elephant-mice")
    )
    bytes_per_flow = rng.choice((2_048, 8_192, 16_384))
    leaves = spines = hosts_per_leaf = k = 0
    faults = []
    if rng.random() < 0.75:
        topology = "leaf-spine"
        leaves = rng.randint(2, 3)
        spines = rng.randint(2, 3)
        hosts_per_leaf = rng.randint(2, 4)
        nodes = min(leaves * hosts_per_leaf, rng.randint(4, 8))
        # Each event targets a distinct leaf, and spines >= 2, so every
        # leaf keeps at least one live uplink throughout.
        for target_leaf in rng.sample(range(leaves), rng.randint(0, 2)):
            faults.append(
                _trunk_fault(rng, f"leaf0.{target_leaf}", "spine0.", spines)
            )
    else:
        topology = "fat-tree"
        k = 4
        nodes = rng.randint(4, 8)
        if rng.random() < 0.5:
            # One edge-to-aggregation trunk in pod 0; the edge's other
            # aggregation uplink keeps every host reachable.
            faults.append(_trunk_fault(rng, "edge0.0.0", "agg0.0.", 2))
    return dict(
        topology=topology,
        leaves=leaves,
        spines=spines,
        hosts_per_leaf=hosts_per_leaf,
        k=k,
        nodes=nodes,
        traffic=traffic,
        bytes_per_flow=bytes_per_flow,
        faults=tuple(faults),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Serve and gray-failure fuzzing (repro.serve, repro.control gray faults)
# ---------------------------------------------------------------------------


def _crash_restart(rng, node: int, at: tuple, delay: tuple) -> list:
    """A server crash at a drawn instant and its restart a drawn delay
    later (the node is drawn first, then the instant, then the delay)."""
    at_ns = rng.randint(*at)
    delay_ns = rng.randint(*delay)
    return [
        Crash(at_ns=at_ns, node=node),
        Restart(at_ns=at_ns, node=node, delay_ns=delay_ns),
    ]


def _serve(seed: int) -> dict:
    """An open-loop serving run (:class:`~repro.bench.serve.ServeRun`,
    monitor attached): arrival model (Poisson/bursty) x load-balancing
    policy x fault profile (clean or mid-run server crash/restart) x
    overload knobs (queue cap, workers, service-time model, client outbox
    cap).  Its result lists request conservation among the serve
    invariants: every generated request ends as completed, shed (server-
    or client-side), or failed — across crash replay too."""
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
    recipe: dict = {"outbox_cap": rng.choice((0, 8, 64))}
    if fault_profile == "crash":
        n_servers = max(n_servers, 2)
        recipe["faults"] = _crash_restart(
            rng, n_clients + rng.randrange(n_servers),
            (1 * _MS, duration_ns // 2), (500 * _US, 3 * _MS),
        )
    return dict(
        recipe,
        config=config,
        n_clients=n_clients,
        n_servers=n_servers,
        policy=policy,
        arrival=arrival,
        server=server,
        duration_ns=duration_ns,
        seed=seed,
        use_monitor=True,
    )


def _gray(seed: int) -> dict:
    """A serving run under gray (degraded-mode) faults: gray fault kind
    (slow node / slow NIC / degraded link / intermittent drop / asymmetric
    partition) x tail-tolerance machinery (off, or hedging + retry budget
    + breakers + ejection) x differential detection (off/on) x an optional
    clean-node crash.  Gray degradation may slow requests down, but every
    one of them must still be accounted for."""
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
        edge = dict(at_ns=at, node=node, rail=rng.randrange(rails), duration_ns=dur)
        # The kind is drawn first, then what that kind draws of its own.
        kinds = {
            "slow-node": lambda: SlowNode(
                at_ns=at, node=node, duration_ns=dur,
                factor=rng.choice((2.0, 4.0, 8.0)),
            ),
            "slow-nic": lambda: SlowNic(**edge, factor=rng.choice((2.0, 4.0))),
            "degraded": lambda: DegradedLink(
                **edge, bit_error_rate=rng.choice((1e-7, 1e-6)),
                jitter_ns=rng.choice((0, 20_000)),
            ),
            "drop": lambda: IntermittentDrop(
                **edge, drop_p=rng.choice((0.01, 0.05)),
                burst_len=rng.choice((2.0, 4.0)),
            ),
            "partition": lambda: AsymmetricPartition(
                **edge, direction=rng.choice(("tx", "rx"))
            ),
        }
        faults.append(kinds[rng.choice(tuple(kinds))]())
    clean_servers = [
        s for s in range(n_clients, n_nodes) if s not in gray_nodes
    ]
    if clean_servers and len(clean_servers) < n_servers and rng.random() < 0.3:
        # A fail-stop crash on a gray-free server, racing the gray window.
        faults += _crash_restart(
            rng, rng.choice(clean_servers),
            (_MS, duration_ns // 2), (500 * _US, 2 * _MS),
        )
    return dict(
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
        seed=seed,
        use_monitor=True,
    )


# ---------------------------------------------------------------------------
# The front door
# ---------------------------------------------------------------------------


class Family(NamedTuple):
    """A fuzz family: one :class:`~repro.bench.run.Run` class and how a seed
    draws its keyword arguments."""

    run: type  # a Run subclass
    derive: Callable[..., dict]  # seed -> the keyword arguments of ``run``


# Each family draws from its own ``multiedge-fuzz[-<family>]:<seed>``
# stream, so adding one leaves every existing derivation, and every pinned
# fingerprint, byte-identical.
FAMILIES: dict[str, Family] = {
    "protocol": Family(
        ScenarioRun, lambda seed, **kw: {"sc": scenario_from_seed(seed, **kw)}
    ),
    "crash": Family(CrashRun, _crash),
    "incarnation": Family(IncarnationRun, _incarnation),
    "fabric": Family(FabricRun, _fabric),
    "serve": Family(ServeRun, _serve),
    "gray": Family(ServeRun, _gray),
}


def _judge(name: str, seed: int, run: Run, finish=None) -> FuzzResult:
    """Finish ``run`` (``finish()``, by default ``run.finish()``) and judge
    it as a seed of family ``name``: the fuzzer's own runs judge themselves,
    a :class:`~repro.bench.crash.CrashResult` or
    :class:`~repro.bench.serve.ServeResult` by its ``violations``.  Any error
    that escapes the running run is its ``failure`` (``invariant: ...``,
    ``simulation: ...``, else ``error: <type>: ...``), judged with the
    cluster and monitor as the error left them.  ``run`` is built before
    this is called, so an error building it is not caught here."""
    try:
        out = (finish or run.finish)()
    except Exception as e:
        if isinstance(e, InvariantViolation):
            failure = f"invariant: {e}"
        elif isinstance(e, SimulationError):
            failure = f"simulation: {e}"
        else:
            failure = f"error: {type(e).__name__}: {e}"
        return _verdict(
            name, seed, run.recipe, run.cluster, run.monitor,
            failure=failure, trace=run.recipe.get("trace", False),
        )
    if isinstance(out, FuzzResult):
        return out
    return _verdict(
        name, seed, run.recipe, run.cluster, run.monitor, out.violations, out
    )


def run_family(name: str, seed: int, **constraints) -> FuzzResult:
    """Run one seed of one fuzz family; never raises on a failing seed.

    ``constraints`` narrow the ``protocol`` derivation (``workload=``,
    ``fault_profile=``).  Any error that escapes the running run — a
    livelock limit, a drain that did not drain, a ``KeyError`` in the
    stack — comes back as ``failure``, so a seed loop sees every bad seed
    instead of stopping at the first.  It raises only when the derived
    recipe cannot be built (or ``name`` is not a family).
    """
    family = FAMILIES[name]
    return _judge(name, seed, family.run(**family.derive(seed, **constraints)))


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def _fields(cls: type, recipe: dict):
    """``(path, value, default)`` of each entry of a recipe and of each
    field of an entry that is a dataclass (a :class:`Scenario`, an
    :class:`~repro.serve.ArrivalSpec`, ...).  ``default`` is the run
    signature's or the dataclass's, ``MISSING`` where there is none."""
    params = cls._signature.parameters  # what Run binds a recipe with
    for key, value in recipe.items():
        default = params[key].default
        yield (key,), value, MISSING if default is inspect.Parameter.empty else default
        if is_dataclass(value):
            for f in fields(value):
                yield (key, f.name), vars(value)[f.name], f.default


def _put(recipe: dict, path: tuple, value) -> dict:
    key, *name = path
    if name:
        value = replace(recipe[key], **{name[0]: value})
    return {**recipe, key: value}


def _halved(value, name: str = ""):
    """``value`` with every size (``size``, ``*bytes*``) and duration
    (``duration_ns``) halved, to a floor of 64.  A fault event is left as
    it is: faults shrink by being dropped."""
    if isinstance(value, FaultEvent):
        return value
    if isinstance(value, dict):
        return {k: _halved(v, k) for k, v in value.items()}
    if is_dataclass(value):
        return replace(value, **{
            f.name: _halved(vars(value)[f.name], f.name) for f in fields(value)
        })
    if isinstance(value, (tuple, list)):
        return type(value)(_halved(v) for v in value)
    if type(value) is int and (
        name == "size" or "bytes" in name or name == "duration_ns"
    ):
        return max(64, value // 2)
    return value


def shrink(
    res: FuzzResult,
    fails: Optional[Callable[[dict], bool]] = None,
    max_runs: int = 200,
) -> dict:
    """Greedily reduce a failing result's recipe to a minimal reproducer.

    Three passes repeat until a fixpoint or the run budget is exhausted:
    drop one element of a sequence of records (``ops``, ``faults``), back
    to front; halve every size and duration at once; reset each knob to its
    default.  Each candidate is built from the *current* recipe —
    materializing a pass's candidates up front would resurrect what an
    earlier adoption in the same pass just changed, and the pass would
    oscillate until the budget was gone.  ``fails(recipe)`` judges a
    candidate (default: build ``FAMILIES[res.family].run(**recipe)`` and
    run it); one that cannot be built is not a reproducer.
    """
    cls = FAMILIES[res.family].run
    if fails is None:
        def fails(recipe: dict) -> bool:
            return not _judge(res.family, res.seed, cls(**recipe)).ok

    runs = 0

    def still_fails(candidate: dict) -> bool:
        nonlocal runs
        if runs >= max_runs:
            return False
        runs += 1
        try:
            return fails(candidate)
        except (ValueError, LookupError):
            # The candidate cannot be built — a fault or an op on a node it
            # no longer has — so it reproduces nothing.
            return False

    recipe = res.recipe
    if not still_fails(recipe):
        raise ValueError("shrink: the recipe does not fail")
    changed = True

    def adopt(candidate: dict) -> bool:
        nonlocal recipe, changed
        if candidate == recipe or not still_fails(candidate):
            return False
        recipe, changed = candidate, True
        return True

    while changed and runs < max_runs:
        changed = False
        for path, seq, _ in list(_fields(cls, recipe)):
            if isinstance(seq, (tuple, list)) and all(map(is_dataclass, seq)):
                for i in reversed(range(len(seq))):
                    if adopt(_put(recipe, path, seq[:i] + seq[i + 1:])):
                        seq = seq[:i] + seq[i + 1:]
        adopt(_halved(recipe))
        for path, _, default in list(_fields(cls, recipe)):
            if default is not MISSING and (
                len(path) == 1 or is_dataclass(recipe[path[0]])
            ):
                adopt(_put(recipe, path, default))
    return recipe


# ---------------------------------------------------------------------------
# The command line
# ---------------------------------------------------------------------------


def run_batch(
    count: int,
    base_seed: int = 0,
    family: str = "protocol",
    shrink_failures: bool = True,
    **constraints,
) -> list[FuzzResult]:
    """Run ``count`` seeds of ``family``; report and shrink any failure."""
    results = []
    for k in range(count):
        res = run_family(family, base_seed + k, **constraints)
        results.append(res)
        if not res.ok or (k + 1) % 25 == 0:
            status = "FAIL" if not res.ok else "ok"
            print(f"[{k + 1}/{count}] {family} seed={res.seed} {status}")
        if not res.ok:
            print(f"  drew: {res.recipe!r}\n  failure: {res.failure}")
            for v in res.violations:
                print(f"  violation: {v}")
            if shrink_failures:
                print(f"  minimal reproducer:\n    {shrink(res)!r}")
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
        shrink_failures=not args.no_shrink,
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

"""Deterministic protocol fuzzing under the invariant monitor.

A :class:`Scenario` is a fully declarative description of one randomized
run: cluster configuration, protocol knobs (window, pump batch, TX ring
depth, striping policy), a workload (a sequence of :class:`OpSpec` remote
operations), and a :class:`~repro.control.faults.FaultSchedule`.  Scenarios
are derived from a seed by :func:`scenario_from_seed`, executed by
:func:`run_scenario` with an :class:`~repro.verify.InvariantMonitor`
attached, and — when one fails — reduced by :func:`shrink_scenario` to a
minimal reproducer.

Everything is deterministic: the scenario is a pure function of
``(seed, workload, fault_profile)``, and the simulation itself is seeded,
so the same seed always produces the identical event trace, final stats,
and :func:`fingerprint`.  That determinism is itself asserted by the CI
smoke suite (``benchmarks/bench_fuzz.py``).

Command line::

    PYTHONPATH=src python -m repro.verify.fuzz --count 50
    PYTHONPATH=src python -m repro.verify.fuzz --seed 1234 --trace
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional

from ..bench.cluster import Cluster, make_cluster
from ..control import (
    BitErrorRamp,
    FaultSchedule,
    Flap,
    Outage,
    PermanentFailure,
    Repair,
)
from ..congestion import CongestionParams
from ..core import ProtocolParams, dial, enable_listener
from ..ethernet import OpFlags
from ..host import myri10g_params, tigon3_params
from ..sim import SimulationError
from .monitor import InvariantMonitor, InvariantViolation

if TYPE_CHECKING:
    from ..bench.serve import ServeResult

__all__ = [
    "OpSpec",
    "Scenario",
    "FuzzResult",
    "WORKLOADS",
    "FAULT_PROFILES",
    "scenario_from_seed",
    "run_scenario",
    "shrink_scenario",
    "fingerprint",
    "FINGERPRINT_FIELDS",
    "run_crash_scenario",
    "run_incarnation_scenario",
    "IncarnationFuzzResult",
    "FabricScenario",
    "FabricFuzzResult",
    "fabric_scenario_from_seed",
    "run_fabric_scenario",
    "ServeFuzzResult",
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

    @property
    def rails(self) -> int:
        return 2 if self.config.startswith("2") else 1


@dataclass
class FuzzResult:
    """Outcome of one scenario run."""

    scenario: Scenario
    failure: Optional[str]  # None on success
    fingerprint: str
    elapsed_ns: int
    checks: int
    violations: tuple[str, ...] = ()
    # Fast-forward jumps taken when the run had fastpath enabled (0 when
    # disabled or never armed); parity harnesses use it to split seeds
    # into exact-identity vs timing-divergence expectations.
    fastpath_jumps: int = 0

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


class ScenarioRun:
    """One scenario execution, pausable mid-flight for checkpointing.

    ``run_scenario`` remains the one-shot front door; this class exposes
    the same execution split into phases so :mod:`repro.checkpoint` can
    stop the simulation at an exact instant, capture state, and continue:

    * construction wires the cluster, faults, and sender processes (no
      simulated time passes),
    * :meth:`run_to` executes every event due at or before a time,
    * :meth:`finish` runs to completion and returns the
      :class:`FuzzResult`.

    The split is scheduling-neutral: ``run_to(T)`` + ``finish()`` executes
    the exact event sequence of a bare ``finish()``.
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
        # Rebuild recipe for repro.checkpoint.
        self.recipe = {
            "sc": sc,
            "use_monitor": use_monitor,
            "collect": collect,
            "trace": trace,
            "fastpath": fastpath,
        }
        self._failure: Optional[str] = None
        cluster = self.cluster = _build_cluster(sc, trace, fastpath)
        pairs = sorted({(op.src, op.dst) for op in sc.ops})
        conn_pairs = sorted({(min(i, j), max(i, j)) for i, j in pairs})
        handles = {}
        for i, j in conn_pairs:
            a, b = cluster.connect(i, j)
            handles[(i, j)] = a
            handles[(j, i)] = b

        self.managers = []
        if sc.control_plane:
            for i, j in conn_pairs:
                m1, m2 = cluster.enable_edge_control(i, j)
                self.managers += [m1, m2]

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

    def state(self) -> dict:
        """Capture root for the checkpoint walker: everything live."""
        return {
            "cluster": self.cluster,
            "procs": self.procs,
            "managers": self.managers,
            "monitor": self.monitor,
            "faults": self.faults,
        }

    @property
    def traffic_done(self) -> bool:
        """True once every workload process has finished.

        Past this instant an uninterrupted :meth:`finish` stops the
        managers (killing periodic activity like edge monitors) before
        any later event runs, so a paused run must not advance beyond it.
        """
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
        except InvariantViolation as v:
            self._failure = f"invariant: {v}"
        except SimulationError as e:
            self._failure = f"simulation: {e}"

    def finish(self) -> FuzzResult:
        """Run to completion and report; never raises."""
        cluster = self.cluster
        monitor = self.monitor
        failure = self._failure
        if failure is None:
            try:
                for proc in self.procs:
                    cluster.sim.run_until_done(proc, limit=self.sc.limit_ns)
                for mgr in self.managers:
                    mgr.stop()
                cluster.sim.run()  # drain retransmits, acks, fault timers
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
            except InvariantViolation as v:
                failure = f"invariant: {v}"
            except SimulationError as e:
                failure = f"simulation: {e}"
        if failure is None and monitor is not None and monitor.violations:
            failure = f"invariant: {monitor.violations[0]}"
        return FuzzResult(
            scenario=self.sc,
            failure=failure,
            fingerprint=fingerprint(cluster, include_trace=self.trace),
            elapsed_ns=cluster.sim.now,
            checks=monitor.checks_run if monitor is not None else 0,
            violations=tuple(str(v) for v in monitor.violations)
            if monitor is not None
            else (),
            fastpath_jumps=(
                cluster.fastpath.stats.jumps
                if cluster.fastpath is not None
                else 0
            ),
        )


def run_scenario(
    sc: Scenario,
    use_monitor: bool = True,
    collect: bool = False,
    trace: bool = False,
    fastpath: bool = False,
) -> FuzzResult:
    """Execute one scenario; never raises — failures land in the result."""
    return ScenarioRun(
        sc,
        use_monitor=use_monitor,
        collect=collect,
        trace=trace,
        fastpath=fastpath,
    ).finish()


# ---------------------------------------------------------------------------
# Crash fuzzing
# ---------------------------------------------------------------------------


def run_crash_scenario(seed: int):
    """One randomized whole-node crash/recovery run (repro.recovery).

    Parameters are drawn from their own RNG stream
    (``multiedge-fuzz-crash:<seed>``) so the pre-existing scenario
    derivation — and therefore every existing fingerprint — stays
    byte-identical.  The run streams journaled messages at a receiver
    that crashes and reboots mid-stream, with the invariant monitor
    attached; the returned :class:`~repro.bench.crash.CrashResult` must
    satisfy ``ok`` (exactly-once, reconnected, zero violations — which
    includes the no-stale-frame-accepted and journal-conservation
    checks).
    """
    from ..bench.crash import run_crash

    rng = random.Random(f"multiedge-fuzz-crash:{seed}")
    crash_ns = rng.randint(1 * _MS, 6 * _MS)
    restart_delay_ns = rng.randint(200 * _US, 12 * _MS)
    return run_crash(
        config=rng.choice(_CONFIGS),
        message_bytes=rng.choice((256, 1024, 2048, 4096)),
        message_interval_ns=rng.randint(30 * _US, 200 * _US),
        crash_ns=crash_ns,
        restart_delay_ns=restart_delay_ns,
        run_ns=crash_ns + restart_delay_ns + rng.randint(10 * _MS, 20 * _MS),
        seed=seed,
        use_monitor=True,
    )


@dataclass(frozen=True)
class IncarnationFuzzResult:
    """Outcome of one :func:`run_incarnation_scenario` run."""

    seed: int
    config: str
    stale_frames_rejected: int
    duplicates_suppressed: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def run_incarnation_scenario(seed: int) -> IncarnationFuzzResult:
    """One randomized incarnation-collision run.

    Node 1 dials node 0 and streams writes; mid-flight it crashes,
    restarts (bumping its incarnation), and — with its dial counter reset
    by the crash — re-dials the *same* connection id.  Frames from the
    dead incarnation still in the fabric then land on the successor
    endpoint and must be rejected by the incarnation guard (witnessed by
    the monitor's ``stale-frame-accepted`` invariant staying silent while
    ``stale_frames_rejected`` counts the drops).  Parameters come from
    their own RNG stream (``multiedge-fuzz-incarnation:<seed>``) so
    existing fingerprints stay byte-identical.
    """

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
    sim.run()
    monitor.final_check()
    from ..analysis.summary import summarize_cluster

    summary = summarize_cluster(cluster)
    return IncarnationFuzzResult(
        seed=seed,
        config=config,
        stale_frames_rejected=summary.stale_frames_rejected,
        duplicates_suppressed=summary.duplicate_msgs_suppressed,
        violations=tuple(str(v) for v in monitor.violations),
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


@dataclass(frozen=True)
class FabricFuzzResult:
    """Outcome of one :func:`run_fabric_scenario` run."""

    scenario: FabricScenario
    flows: int
    messages_received: int
    data_intact: bool
    switch_drops: int
    repins: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (
            self.data_intact
            and self.messages_received == self.flows
            and not self.violations
        )


def fabric_scenario_from_seed(seed: int) -> FabricScenario:
    """Derive a fabric scenario from the dedicated RNG stream
    (``multiedge-fuzz-fabric:<seed>``), so the pre-existing scenario
    derivation — and every pinned fingerprint — stays byte-identical.
    """
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


class FabricRun:
    """One fabric fuzz execution, pausable for checkpointing.

    Same phase split as :class:`ScenarioRun`: construction wires the
    fabric, trunk-churn events, and traffic processes; :meth:`run_to`
    pauses at an exact instant (e.g. inside a trunk-churn window);
    :meth:`finish` completes and reports.
    """

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

        self.recipe = {"seed": seed}  # rebuild recipe for repro.checkpoint
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
        fabric = self.fabric = cluster.fabrics[0]
        for at_ns, kind, a, b, dwell_ns in sc.trunk_events:
            if kind == "drain":
                cluster.sim.at(at_ns, fabric.set_trunk_enabled, a, b, False)
                cluster.sim.at(
                    at_ns + dwell_ns, fabric.set_trunk_enabled, a, b, True
                )
            else:
                cluster.sim.at(at_ns, fabric.fail_trunk, a, b, dwell_ns)
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

    def state(self) -> dict:
        """Capture root for the checkpoint walker."""
        return {
            "cluster": self.cluster,
            "traffic": self.traffic_run.state(),
        }

    def run_to(self, time_ns: int) -> None:
        """Execute every event due at or before ``time_ns``, then pause."""
        self.cluster.sim.run_until_time(time_ns)

    def finish(self) -> FabricFuzzResult:
        result = self.traffic_run.finish()
        cluster = self.cluster
        violations = [
            v for fab in cluster.fabrics for v in fab.routing_invariants()
        ]
        return FabricFuzzResult(
            scenario=self.sc,
            flows=result.flows,
            messages_received=result.messages_received,
            data_intact=result.data_intact,
            switch_drops=result.switch_drops,
            repins=sum(sw.repins for sw in self.fabric.switches),
            violations=tuple(violations),
        )


def run_fabric_scenario(seed: int) -> FabricFuzzResult:
    """One randomized multi-switch fabric run with trunk churn.

    Builds the scenario's leaf-spine or fat-tree fabric, drives its
    traffic matrix over message passing while trunks drain/fail and
    recover mid-run, then asserts the fabric's routing invariants
    (structural acyclicity, ECMP determinism, switch and trunk frame
    conservation) and end-to-end data integrity.
    """
    return FabricRun(seed).finish()


# ---------------------------------------------------------------------------
# Serve fuzzing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeFuzzResult:
    """The axes one serve or gray fuzz seed drew, and what the run measured."""

    seed: int
    fault_profile: str  # "none" | "crash"
    result: ServeResult
    gray_kinds: tuple = ()  # class names of the injected gray events
    mitigated: bool = False  # a TailSpec was armed
    detected: bool = False  # the differential gray scorer was armed

    @property
    def ok(self) -> bool:
        """Request conservation (and every other serve invariant) held.

        Conservation itself — ``generated == completed + shed +
        shed_client + failed`` with nothing left pending — is one of the
        ``check_invariants`` clauses folded into ``result.violations``.
        """
        return self.result.generated > 0 and self.result.ok


def run_serve_scenario(seed: int) -> ServeFuzzResult:
    """One randomized open-loop serving run (repro.serve).

    Parameters come from their own RNG stream
    (``multiedge-fuzz-serve:<seed>``) so every pre-existing fuzz
    derivation — and every pinned fingerprint — stays byte-identical.
    The draw crosses arrival model (Poisson/bursty) x load-balancing
    policy x fault profile (clean or mid-run server crash/restart) x
    overload knobs (queue cap, workers, service-time model, client
    outbox cap), runs under the invariant monitor, and asserts request
    conservation: every generated request ends as completed, shed
    (server- or client-side), or failed — across crash replay too.
    """
    from ..bench.serve import run_serve
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
        kwargs.update(
            crash_server=n_clients + rng.randrange(n_servers),
            crash_ns=rng.randint(1 * _MS, duration_ns // 2),
            restart_delay_ns=rng.randint(500 * _US, 3 * _MS),
        )
    res = run_serve(
        config=config,
        n_clients=n_clients,
        n_servers=n_servers,
        policy=policy,
        arrival=arrival,
        server=server,
        duration_ns=duration_ns,
        seed=seed,
        use_monitor=True,
        **kwargs,
    )
    return ServeFuzzResult(seed=seed, fault_profile=fault_profile, result=res)


# ---------------------------------------------------------------------------
# Gray-failure fuzzing (repro.control gray faults x repro.serve.tail)
# ---------------------------------------------------------------------------


def run_gray_scenario(seed: int) -> ServeFuzzResult:
    """One randomized serving run under gray (degraded-mode) faults.

    Parameters come from their own ``multiedge-fuzz-gray:<seed>`` RNG
    stream, so every pre-existing fuzz derivation — including the pinned
    serve fingerprints — stays byte-identical.  The draw crosses gray
    fault kind (slow node / slow NIC / degraded link / intermittent
    drop / asymmetric partition) x tail-tolerance machinery (off, or
    hedging + retry budget + breakers + ejection) x differential
    detection (off/on) x an optional clean-node crash, and asserts the
    same request-conservation and tail-accounting invariants as the
    plain serve fuzzer: gray degradation may slow requests down, but
    every one of them must still be accounted for.
    """
    from ..bench.serve import run_serve
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
    mitigated = rng.random() < 0.7
    if mitigated:
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
    kwargs: dict = {}
    clean_servers = [
        s for s in range(n_clients, n_nodes) if s not in gray_nodes
    ]
    if clean_servers and len(clean_servers) < n_servers and rng.random() < 0.3:
        # A fail-stop crash on a gray-free server, racing the gray window.
        kwargs.update(
            crash_server=rng.choice(clean_servers),
            crash_ns=rng.randint(_MS, duration_ns // 2),
            restart_delay_ns=rng.randint(500 * _US, 2 * _MS),
        )
    res = run_serve(
        config=config,
        n_clients=n_clients,
        n_servers=n_servers,
        policy=policy,
        arrival=arrival,
        server=server,
        duration_ns=duration_ns,
        seed=seed,
        use_monitor=True,
        tail=tail,
        faults=faults,
        gray_detection=detected,
        **kwargs,
    )
    return ServeFuzzResult(
        seed=seed,
        fault_profile="crash" if kwargs else "none",
        result=res,
        gray_kinds=tuple(type(ev).__name__ for ev in faults),
        mitigated=mitigated,
        detected=detected,
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
# Command line
# ---------------------------------------------------------------------------


def run_batch(
    count: int,
    base_seed: int = 0,
    workload: Optional[str] = None,
    fault_profile: Optional[str] = None,
    shrink: bool = True,
    verbose: bool = True,
) -> list[FuzzResult]:
    """Run ``count`` seeded scenarios; shrink and report any failure."""
    results = []
    for k in range(count):
        sc = scenario_from_seed(base_seed + k, workload, fault_profile)
        res = run_scenario(sc)
        results.append(res)
        if verbose and (not res.ok or (k + 1) % 25 == 0):
            status = "FAIL" if not res.ok else "ok"
            print(
                f"[{k + 1}/{count}] seed={sc.seed} {sc.config} "
                f"{sc.workload}/{sc.fault_profile} {status}"
            )
        if not res.ok:
            print(f"  failure: {res.failure}")
            if shrink:
                small = shrink_scenario(sc)
                print(f"  minimal reproducer:\n    {small!r}")
    return results


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Deterministic MultiEdge protocol fuzzer"
    )
    parser.add_argument("--count", type=int, default=50,
                        help="number of seeded scenarios to run")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--seed", type=int, default=None,
                        help="run exactly one seed (implies --count 1)")
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--faults", choices=FAULT_PROFILES, default=None)
    parser.add_argument("--no-shrink", action="store_true")
    args = parser.parse_args(argv)

    if args.seed is not None:
        count, base = 1, args.seed
    else:
        count, base = args.count, args.base_seed
    results = run_batch(
        count,
        base_seed=base,
        workload=args.workload,
        fault_profile=args.faults,
        shrink=not args.no_shrink,
    )
    failures = [r for r in results if not r.ok]
    checks = sum(r.checks for r in results)
    print(
        f"{len(results)} scenarios, {checks} invariant checks, "
        f"{len(failures)} failures"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

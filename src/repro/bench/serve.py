"""Serving scenario runner: open-loop RPC load over a MultiEdge cluster.

:func:`run_serve` is the reusable harness behind
``benchmarks/bench_serve.py`` and ``examples/serving.py``: it stands up
a cluster, wires an :class:`~repro.mp.MpWorld`, attaches a
:class:`~repro.serve.ServeRuntime`, optionally arms congestion control,
a multi-switch fabric, and a mid-run server crash/restart fault, then
drives the open-loop load to completion and rolls the runtime's
accounting into one comparable :class:`ServeResult`.

:class:`ServeRun` is the pausable form (a :class:`~repro.bench.run.Run`):
pausing a run mid-spike and finishing must give the identical result to
running straight through (the checkpoint witness protocol).

Everything is deterministic: same parameters + same seed give the same
:class:`ServeResult`, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ..control import Crash, DetectorParams, FaultSchedule
from ..serve import ArrivalSpec, ServeConfig, ServerSpec, TailSpec, enable_serving
from ..serve.runtime import ServeRuntime
from .cluster import Cluster, named_config
from .run import Run

__all__ = ["ServeResult", "ServeRun", "run_serve"]

_MS = 1_000_000


@dataclass
class ServeResult:
    """Everything measured by one serving run."""

    config: str
    policy: str
    arrival_kind: str
    clients: int
    servers: int
    elapsed_ns: int
    # Request conservation (client-side view).
    generated: int
    completed: int
    shed: int
    shed_client: int
    failed: int
    replayed: int
    duplicate_responses: int
    deadline_missed: int
    pending: int
    # Tail latency (merged across per-server histograms), ns.
    p50_ns: int
    p99_ns: int
    p999_ns: int
    mean_ns: float
    max_ns: int
    # Phase decomposition p99s, ns.
    queueing_p99_ns: int
    service_p99_ns: int
    network_p99_ns: int
    # Server-side counters, by rank.
    server_received: dict = field(default_factory=dict)
    server_served: dict = field(default_factory=dict)
    server_shed: dict = field(default_factory=dict)
    server_peak_queue: dict = field(default_factory=dict)
    # SLO + windows (empty without a spec / window_ns).
    slo_attained: Optional[bool] = None
    slo_clauses: dict = field(default_factory=dict)
    windows: list = field(default_factory=list)
    # Fault interplay.
    crashes: int = 0
    reconnects: int = 0
    # Tail tolerance (all zero with tail=None).
    hedges_sent: int = 0
    hedges_won: int = 0
    retries_sent: int = 0
    retries_denied: int = 0
    breaker_opens: int = 0
    ejections: int = 0
    # Per-server end-to-end p99, ns (gray-failure attribution).
    p99_by_server: dict = field(default_factory=dict)
    # Invariants + determinism.
    violations: tuple = ()
    fingerprint: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def shed_fraction(self) -> float:
        answered = self.completed + self.shed + self.shed_client
        return (self.shed + self.shed_client) / answered if answered else 0.0


class ServeRun(Run):
    """One serving scenario, pausable mid-flight for checkpointing."""

    def __init__(
        self,
        config: str = "1L-1G",
        n_clients: int = 2,
        n_servers: int = 2,
        policy: str = "round-robin",
        arrival: Optional[ArrivalSpec] = None,
        server: Optional[ServerSpec] = None,
        duration_ns: int = 20 * _MS,
        window_ns: int = 0,
        outbox_cap: int = 0,
        slo=None,
        seed: int = 0,
        congestion: str = "static",
        ecn_threshold_frames: Optional[int] = None,
        fabric=None,
        use_monitor: bool = False,
        drain_grace_ns: int = 300 * _MS,
        tail: Optional[TailSpec] = None,
        faults: Optional[Sequence] = None,
        gray_detection: bool = False,
    ) -> None:
        arrival = arrival or ArrivalSpec()
        server = server or ServerSpec()
        n_nodes = n_clients + n_servers
        clients = tuple(range(n_clients))
        servers = tuple(range(n_clients, n_nodes))
        self.duration_ns = duration_ns
        self.drain_grace_ns = drain_grace_ns
        faults = list(faults or ())
        has_crash = any(isinstance(ev, Crash) for ev in faults)
        cfg = named_config(config, nodes=n_nodes, seed=seed, fabric=fabric)
        cluster = self.cluster = Cluster(
            replace(cfg, protocol=replace(cfg.protocol, congestion=congestion))
        )
        if ecn_threshold_frames is not None:
            cluster.set_ecn_threshold(ecn_threshold_frames)

        self.recovery = None
        if has_crash:
            self.recovery = cluster.enable_crash_recovery()
        if has_crash or gray_detection:
            # The control plane watches every client<->server edge so a
            # server crash escalates to PEER_DOWN and auto-reconnects
            # (and the gray scorer has a population to compare).
            for c in clients:
                for s in servers:
                    cluster.enable_edge_control(
                        c, s, detector_params=DetectorParams()
                    )
        if gray_detection:
            cluster.enable_gray_detection()

        from ..mp import MpWorld

        self.world = MpWorld(cluster)
        self.runtime: ServeRuntime = enable_serving(
            cluster,
            self.world,
            ServeConfig(
                clients=clients,
                servers=servers,
                arrival=arrival,
                server=server,
                policy=policy,
                duration_ns=duration_ns,
                window_ns=window_ns,
                outbox_cap=outbox_cap,
                slo=slo,
                tail=tail,
            ),
        )
        self.monitor = None
        if use_monitor:
            from ..verify.monitor import InvariantMonitor

            self.monitor = InvariantMonitor.attach(cluster, collect=True)
        if faults:
            FaultSchedule(faults).apply(cluster)
        self.runtime.start()

    def finish(self) -> ServeResult:
        cluster = self.cluster
        cluster.sim.run_until_time(self.duration_ns)
        # Cluster.quiesce() with two deliberate differences (DESIGN.md): the
        # horizon is absolute and the clock ends *at* it, and leftovers past
        # it are tolerated — a peer that crashed too late for the detector to
        # escalate PEER_DOWN leaves survivors retransmitting into the void
        # forever (request accounting is still complete: crash replay is
        # driven by the recovery manager, not by detection).
        cluster.stop_periodic()
        cluster.sim.run(until=self.duration_ns + self.drain_grace_ns)
        return self._report()

    def _report(self) -> ServeResult:
        from ..verify.fuzz import fingerprint

        rt = self.runtime
        rt.fail_pending()
        if self.monitor is not None:
            # final_check() runs rt.check_invariants() itself and files each
            # problem as a ``serve-invariant`` violation: read them there.
            self.monitor.final_check()
            violations = [str(v) for v in self.monitor.violations]
        else:
            violations = rt.check_invariants()
        pending = rt.pending
        if pending and self._all_quiet():
            violations.append(
                f"requests-stranded: {pending} requests pending at the "
                "horizon with every server alive and every connection idle"
            )
        if not rt.generated:
            violations.append("no-requests-generated")  # it proved nothing
        merged = rt.merged_histogram()
        slo = rt.slo_report(merged)
        cfg = rt.config
        return ServeResult(
            config=self.cluster.config.name,
            policy=cfg.policy,
            arrival_kind=cfg.arrival.kind,
            clients=len(cfg.clients),
            servers=len(cfg.servers),
            elapsed_ns=self.cluster.sim.now,
            generated=rt.generated,
            completed=rt.completed,
            shed=rt.shed,
            shed_client=rt.shed_client,
            failed=rt.failed,
            replayed=rt.replayed,
            duplicate_responses=rt.duplicate_responses,
            deadline_missed=rt.deadline_missed,
            pending=pending,
            p50_ns=merged.p50,
            p99_ns=merged.p99,
            p999_ns=merged.p999,
            mean_ns=merged.mean,
            max_ns=merged.max_value or 0,
            queueing_p99_ns=rt.hist_queueing.p99,
            service_p99_ns=rt.hist_service.p99,
            network_p99_ns=rt.hist_network.p99,
            server_received={s: l.received for s, l in rt.servers.items()},
            server_served={s: l.served for s, l in rt.servers.items()},
            server_shed={s: l.shed for s, l in rt.servers.items()},
            server_peak_queue={s: l.peak_queue for s, l in rt.servers.items()},
            slo_attained=None if slo is None else slo.attained,
            slo_clauses={} if slo is None else dict(slo.clauses),
            windows=rt.window_reports(),
            crashes=self.recovery.crashes if self.recovery else 0,
            reconnects=self.recovery.reconnects if self.recovery else 0,
            hedges_sent=rt.tail.hedges_sent,
            hedges_won=rt.tail.hedges_won,
            retries_sent=rt.tail.retries_sent,
            retries_denied=rt.tail.budget.denied,
            breaker_opens=rt.tail.breaker_opens,
            ejections=rt.tail.ejections,
            p99_by_server={s: h.p99 for s, h in rt.hist_by_server.items()},
            violations=tuple(violations),
            fingerprint=fingerprint(self.cluster),
        )

    def _all_quiet(self) -> bool:
        """Every server alive, and no connection with send work or frames
        in flight: nothing left that could still answer a request."""
        rt = self.runtime
        return rt.balancer.alive == set(rt.config.servers) and not any(
            conn.has_send_work() or conn.window.inflight
            for stack in self.cluster.stacks
            for conn in stack.protocol.connections.values()
        )


def run_serve(**kwargs) -> ServeResult:
    """One-shot front door: build, run to completion, report."""
    return ServeRun(**kwargs).finish()

"""Crash scenario runner: kill a whole node mid-stream, measure recovery.

:func:`run_crash` is the reusable harness behind the crash acceptance
test, ``benchmarks/bench_crash.py``, and the example script.  It runs a
paced exactly-once message stream (:class:`~repro.recovery.ReliableChannel`)
from node 0 to node 1 over a two-node cluster with the edge lifecycle
control plane and crash recovery enabled, crashes the *receiver* at a
configured time, restarts it after a boot delay, and reports the full
recovery timeline:

* when the sender's control plane escalated to PEER_DOWN (detection),
* when the reconnect dial landed (and the detection-to-reconnect
  latency, vs the parameter-derived bound
  :func:`~repro.recovery.reconnect_bound_ns`),
* goodput before the crash and after recovery,
* exactly-once accounting: every message delivered exactly once at the
  receiver despite journal redelivery across the reconnect.

Everything is deterministic: same parameters + same seed give the same
:class:`CrashResult`, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..control import Crash, FaultSchedule, Restart
from ..recovery import ClusterRecovery, reconnect_bound_ns
from .cluster import make_cluster
from .run import Run

__all__ = ["CrashResult", "CrashRun", "run_crash"]

_MS = 1_000_000


@dataclass
class CrashResult:
    """Everything measured by one :func:`run_crash` run."""

    config: str
    message_bytes: int
    messages_sent: int
    messages_delivered: int  # journal entries acked (exactly-once stream)
    redeliveries: int  # entries re-issued after the reconnect
    duplicates_suppressed: int  # redeliveries deduped at the receiver
    stale_frames_rejected: int  # dead-incarnation frames dropped
    crash_ns: int
    restart_delay_ns: int
    detected_ns: Optional[int]  # sender-side PEER_DOWN escalation time
    reconnected_ns: Optional[int]  # reconnect dial established
    reconnect_bound_ns: int  # parameter-derived worst case
    pre_crash_goodput_bps: float
    recovered_goodput_bps: float
    exactly_once: bool  # receiver log holds each message exactly once
    # Invariant monitor findings, then ``exactly-once`` / ``never-reconnected``.
    violations: tuple[str, ...] = ()
    timeline: list[tuple[str, int]] = field(default_factory=list)

    @property
    def reconnect_latency_ns(self) -> Optional[int]:
        """Detection-to-reconnected time (None if never reconnected)."""
        if self.detected_ns is None or self.reconnected_ns is None:
            return None
        return self.reconnected_ns - self.detected_ns

    @property
    def recovered_fraction(self) -> float:
        """Recovered goodput as a fraction of the pre-crash baseline."""
        if self.pre_crash_goodput_bps <= 0:
            return 0.0
        return self.recovered_goodput_bps / self.pre_crash_goodput_bps

    @property
    def ok(self) -> bool:
        return not self.violations


class CrashRun(Run):
    """Stream journaled messages 0 -> 1, crashing the receiver en route.

    The stream sends one ``message_bytes`` message every
    ``message_interval_ns`` until ``run_ns`` of simulated time; node 1 is
    crashed at ``crash_ns`` and restarted ``restart_delay_ns`` later.
    Sends issued while the connection is down block until the reconnect
    replay finishes, then resume at pace.  A pausable
    :class:`~repro.bench.run.Run`: ``run_to`` can stop inside the crash
    window, and ``finish()`` reports the :class:`CrashResult`.
    """

    def __init__(
        self,
        config: str = "2Lu-1G",
        message_bytes: int = 2048,
        message_interval_ns: int = 50_000,
        crash_ns: int = 10 * _MS,
        restart_delay_ns: int = 5 * _MS,
        run_ns: int = 60 * _MS,
        seed: int = 0,
        use_monitor: bool = True,
    ) -> None:
        cluster = self.cluster = make_cluster(
            config, nodes=2, seed=seed, synthetic_payloads=True
        )
        cluster.connect(0, 1)
        cluster.enable_edge_control(0, 1)
        self.recovery = cluster.layer(ClusterRecovery)
        if use_monitor:
            from ..verify.monitor import InvariantMonitor

            self.monitor = InvariantMonitor.attach(cluster, collect=True)
        self.channel = self.recovery.channel(0, 1)
        FaultSchedule(
            [
                Crash(at_ns=crash_ns, node=1),
                Restart(at_ns=crash_ns, node=1, delay_ns=restart_delay_ns),
            ]
        ).apply(cluster)

        channel = self.channel

        def stream():
            addr = 0
            while cluster.sim.now < run_ns:
                yield from channel.send(addr, addr, message_bytes)
                addr += message_bytes
                yield message_interval_ns

        self.procs = [cluster.sim.process(stream(), name="crash.stream")]
        self.limit_ns = run_ns + 500 * _MS

    def _report(self) -> CrashResult:
        recovery = self.recovery
        channel = self.channel
        crash_ns = self.recipe["crash_ns"]
        restart_delay_ns = self.recipe["restart_delay_ns"]
        detected_ns = reconnected_ns = None
        if recovery.reconnect_latencies:
            at, latency = recovery.reconnect_latencies[0]
            reconnected_ns = at
            detected_ns = at - latency

        entries = channel.journal.entries
        delivered = [e for e in entries if e.delivered]

        def goodput(t0: int, t1: int) -> float:
            """Delivery goodput (bits/s) over [t0, t1)."""
            if t1 <= t0:
                return 0.0
            done = sum(
                e.length for e in delivered
                if e.delivered_at is not None and t0 <= e.delivered_at < t1
            )
            return done * 8 / ((t1 - t0) / 1e9)

        stream_end = max(
            (e.delivered_at for e in delivered if e.delivered_at is not None),
            default=0,
        )
        pre = goodput(0, min(crash_ns, stream_end))
        recovered = 0.0
        if reconnected_ns is not None:
            recovered = goodput(reconnected_ns, max(stream_end, reconnected_ns))

        # Exactly-once: the receiver's durable log must hold each journal seq
        # exactly once (the log is a set, so size == sent is the whole check),
        # and every entry the sender journaled must have been acked.
        log = recovery.nodes[1].delivered
        exactly_once = (
            len(log) == channel.messages_sent
            and len(delivered) == channel.messages_sent
        )

        monitor = self.monitor
        violations = [] if monitor is None else [str(v) for v in monitor.violations]
        if not exactly_once:
            violations.append(
                f"exactly-once: {channel.messages_sent} sent, "
                f"{len(delivered)} acked, {len(log)} in the receiver's log"
            )
        if reconnected_ns is None:
            violations.append("never-reconnected")

        from ..analysis.summary import summarize_cluster

        summary = summarize_cluster(self.cluster)
        timeline = [("crash", crash_ns), ("restart", crash_ns + restart_delay_ns)]
        if detected_ns is not None:
            timeline.append(("detected", detected_ns))
        if reconnected_ns is not None:
            timeline.append(("reconnected", reconnected_ns))
        timeline.sort(key=lambda kv: kv[1])
        return CrashResult(
            config=self.recipe["config"],
            message_bytes=self.recipe["message_bytes"],
            messages_sent=channel.messages_sent,
            messages_delivered=len(delivered),
            redeliveries=channel.redeliveries,
            duplicates_suppressed=summary.duplicate_msgs_suppressed,
            stale_frames_rejected=summary.stale_frames_rejected,
            crash_ns=crash_ns,
            restart_delay_ns=restart_delay_ns,
            detected_ns=detected_ns,
            reconnected_ns=reconnected_ns,
            reconnect_bound_ns=reconnect_bound_ns(restart_delay_ns),
            pre_crash_goodput_bps=pre,
            recovered_goodput_bps=recovered,
            exactly_once=exactly_once,
            violations=tuple(violations),
            timeline=timeline,
        )


def run_crash(**kwargs) -> CrashResult:
    """One-shot front door: build a :class:`CrashRun`, run it, report."""
    return CrashRun(**kwargs).finish()

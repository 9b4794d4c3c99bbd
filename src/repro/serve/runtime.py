"""The serving runtime: sources, balancer, servers, and accounting.

:class:`ServeRuntime` wires the pieces of :mod:`repro.serve` onto a
cluster + :class:`~repro.mp.MpWorld`:

* one open-loop :class:`~repro.serve.arrivals.ArrivalSource` per client
  rank (batched generation — a single armed scheduler event per source);
* one load-balancer instance choosing a server per request;
* one bounded-queue :class:`~repro.serve.server.ServerLoop` per server
  rank;
* per-(src, dst) **outboxes** — exactly one sender process per directed
  pair, which queues, enforces ``outbox_cap``, is purged on a crash and
  stamps the dispatch time (not for safety: mp's eager ring serialises
  concurrent senders itself).  The process count is fixed at wiring time
  and independent of request volume: open-loop load at any rate runs on
  O(clients x servers) processes.

The runtime is also the measurement plane: per-server mergeable
latency histograms, phase decomposition (queueing / service / network),
optional fixed-width attainment windows, and the request-conservation
counters the invariant monitor checks:

    generated == completed + shed + shed_client + failed + pending

Crash interplay (with :mod:`repro.recovery`): when a server crashes,
its queued requests vanish with its memory; the client-side journal
(the ``outstanding`` table) replays every unanswered request to a
surviving server — or parks it until the crashed one reconnects — with
latency still measured from the *original* arrival, so the outage shows
up in the tail exactly as a user would feel it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Generator, Optional

from ..analysis.latency import LatencyHistogram, SloSpec
from ..core import Layer, MultiEdgeError, PeerCrashed
from ..sim import Event
from .arrivals import ArrivalSource, ArrivalSpec, Request
from .balancer import make_balancer
from .tail import MAX_ATTEMPTS, MAX_HEDGES, TailController, TailSpec
from .server import (
    FLAG_SHED,
    TAG_REQ,
    TAG_RESP,
    ServerLoop,
    ServerSpec,
    pack_request,
    pack_response,
    unpack_response,
)

__all__ = ["ServeConfig", "ServeRuntime"]

# Client ranks get disjoint request-id spaces.
_REQ_ID_STRIDE = 1 << 40

# What ``ServeConfig.tail=None`` runs: attempts are still tracked (crash
# replay needs that), but nothing ever sends an extra one.
_NO_TAIL = TailSpec(hedge=False, retry_sheds=False, breaker=False, eject=False)


@dataclass(frozen=True)
class ServeConfig:
    """Static description of one serving deployment on a cluster."""

    clients: tuple
    servers: tuple
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    server: ServerSpec = field(default_factory=ServerSpec)
    policy: str = "round-robin"
    duration_ns: int = 10_000_000
    window_ns: int = 0  # 0 = no windowed attainment tracking
    outbox_cap: int = 0  # 0 = unbounded client outboxes
    slo: Optional[SloSpec] = None
    # Tail-tolerant client machinery (repro.serve.tail); None means a
    # TailSpec with every mechanism off.
    tail: Optional[TailSpec] = None

    def __post_init__(self) -> None:
        if not self.clients or not self.servers:
            raise ValueError("need at least one client and one server")
        if set(self.clients) & set(self.servers):
            raise ValueError("a rank cannot be both client and server")
        if self.duration_ns < 1:
            raise ValueError("duration_ns must be positive")


class _Outbox:
    """Serialized sender for one directed (src -> dst) mp pair."""

    def __init__(self, runtime: "ServeRuntime", src: int, dst: int) -> None:
        self.runtime = runtime
        self.src = src
        self.dst = dst
        self.ep = runtime.world.endpoints[src]
        self.entries: deque = deque()  # (payload, tag, req_or_none)
        self._wake: Optional[Event] = None
        self.sim = runtime.cluster.sim
        self.sim.process(self._drain(), name=f"serve.out{src}->{dst}")

    def push(self, payload: bytes, tag: int, req: Optional[Request]) -> None:
        self.entries.append((payload, tag, req))
        if self._wake is not None and not self._wake.triggered:
            self._wake.trigger()
            self._wake = None

    def purge_requests(self) -> list[Request]:
        """Drop queued *request* entries (crash replay); keep responses."""
        kept, dropped = deque(), []
        for payload, tag, req in self.entries:
            if tag == TAG_REQ and req is not None:
                dropped.append(req)
            else:
                kept.append((payload, tag, req))
        self.entries = kept
        return dropped

    def _drain(self) -> Generator:
        while True:
            if not self.entries:
                self._wake = Event(self.sim)
                yield self._wake
                continue
            payload, tag, req = self.entries.popleft()
            if req is not None:
                req.dispatch_ns[self.dst] = self.sim.now
            try:
                yield from self.ep.send(self.dst, payload, tag=tag)
            except MultiEdgeError:
                # Typed peer-crash (or closed-connection) failure; a response
                # to a dead client is dropped.
                if tag == TAG_REQ and req is not None:
                    self.runtime._on_request_send_failed(req, self.dst)


class ServeRuntime(Layer):
    """Everything :mod:`repro.serve` hangs off one cluster (see module
    docstring); a layer of the cluster from construction on."""

    def __init__(self, cluster, world, config: ServeConfig) -> None:
        if cluster.config.protocol.synthetic_payloads:
            raise ValueError(
                "the serving layer reads request headers out of payload "
                "bytes; build the cluster with synthetic_payloads=False"
            )
        for rank in (*config.clients, *config.servers):
            if not 0 <= rank < cluster.config.nodes:
                raise ValueError(f"rank {rank} outside the cluster")
        super().__init__(cluster)
        self.world = world
        self.config = config
        seed = cluster.config.seed
        self.balancer = make_balancer(
            config.policy, config.servers, cluster=cluster
        )
        self.sources: dict[int, ArrivalSource] = {}
        for client in config.clients:
            rng = cluster.rng.stream(f"serve:{seed}:arrivals:{client}")
            self.sources[client] = ArrivalSource(
                self.sim,
                rng,
                config.arrival,
                client,
                deliver=self._on_arrival,
                req_id_base=client * _REQ_ID_STRIDE,
            )
        self.servers: dict[int, ServerLoop] = {}
        for rank in config.servers:
            rng = cluster.rng.stream(f"serve:{seed}:svc:{rank}")
            self.servers[rank] = ServerLoop(
                self, world.endpoints[rank], config.server, rng
            )
        self.outboxes: dict[tuple[int, int], _Outbox] = {}
        # Which servers each client can currently reach (recovery windows
        # shrink this; reconnects grow it back).
        self.reachable: dict[int, set] = {
            c: set(config.servers) for c in config.clients
        }
        # Client-side journal: every dispatched-but-unanswered request.
        self.outstanding: dict[int, Request] = {}
        # Requests with no eligible server right now (crash windows).
        self.holding: deque = deque()
        # Losing attempts of already-answered requests: req_id -> the
        # servers whose (duplicate) responses are still expected.  Keeps
        # the balancer's outstanding counts honest under hedging.
        self._absorbing: dict[int, set] = {}
        # Tail tolerance: hedging, retry budget, breakers, ejection.
        self.tail = TailController(config.tail or _NO_TAIL, config.servers)
        # -- conservation counters (client-side view) ----------------------
        self.generated = 0
        self.completed = 0  # served responses seen by clients
        self.shed = 0  # server-shed responses seen by clients
        self.shed_client = 0  # dropped at a full client outbox
        self.failed = 0  # typed-failed, never answered
        self.replayed = 0  # re-dispatches after a server crash
        self.duplicate_responses = 0  # replay raced a late response
        # -- measurement plane --------------------------------------------
        self.hist_by_server: dict[int, LatencyHistogram] = {
            s: LatencyHistogram() for s in config.servers
        }
        self.hist_queueing = LatencyHistogram()
        self.hist_service = LatencyHistogram()
        self.hist_network = LatencyHistogram()
        self.windows: dict[int, dict] = {}
        self._started = False
        self._start_ns = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Arm every source and spawn the fixed process set."""
        if self._started:
            raise RuntimeError("serving runtime already started")
        self._started = True
        self._start_ns = self.sim.now
        stop_at = self._start_ns + self.config.duration_ns
        for loop in self.servers.values():
            loop.start()
        for source in self.sources.values():
            source.stop_at_ns = stop_at
            source.start()
        for client in self.config.clients:
            self.sim.process(
                self._collector(client), name=f"serve.col{client}"
            )

    # -- fastpath / checkpoint visibility ---------------------------------

    @property
    def arrivals_armed(self) -> bool:
        """An open-loop source holds an armed future arrival event."""
        return any(s.armed for s in self.sources.values())

    @property
    def active(self) -> bool:
        """Serving traffic exists now or is guaranteed to appear."""
        return (
            self.arrivals_armed
            or bool(self.outstanding)
            or bool(self.holding)
            or any(o.entries for o in self.outboxes.values())
            or any(s.queue for s in self.servers.values())
        )

    # -- request path ------------------------------------------------------

    def _on_arrival(self, req: Request) -> None:
        self.generated += 1
        self.tail.on_fresh()
        self._tally(req.t_arrival, "generated")
        self._dispatch(req)

    def _dispatch(self, req: Request) -> None:
        candidates = self.tail.filter_candidates(
            self.reachable[req.client], self.sim.now
        )
        server = self.balancer.choose(req, candidates=candidates)
        if server is None:
            self.holding.append(req)
            return
        outbox = self._outbox(req.client, server)
        if self.config.outbox_cap and len(outbox.entries) >= self.config.outbox_cap:
            self.shed_client += 1
            self._tally(self.sim.now, "shed")
            return
        self._send_attempt(req, server, outbox)
        self._arm_hedge(req)

    def _send_attempt(self, req: Request, server: int,
                      outbox: Optional[_Outbox] = None) -> None:
        """Put one attempt for ``req`` on the wire toward ``server``."""
        req.attempts += 1
        req.pending_servers.add(server)
        # Placeholder keeps dispatch order (first key = primary attempt);
        # the outbox overwrites the value with the real drain time.
        req.dispatch_ns.setdefault(server, self.sim.now)
        self.balancer.note_dispatch(server)
        self.tail.on_dispatch(server, self.sim.now)
        self.outstanding[req.req_id] = req
        payload = pack_request(req.req_id, req.client, 0, req.resp_bytes,
                               req.req_bytes)
        (outbox or self._outbox(req.client, server)).push(payload, TAG_REQ, req)

    # -- hedging (repro.serve.tail) ---------------------------------------

    def _arm_hedge(self, req: Request) -> None:
        tail = self.tail
        if (req.hedges >= MAX_HEDGES
                or req.attempts >= MAX_ATTEMPTS):
            return
        delay = tail.hedge_delay_ns()
        if delay is None:
            return  # hedging disabled or quantile not warmed up yet
        self.sim.timer(delay, self._maybe_hedge, req.req_id, req.attempts)

    def _maybe_hedge(self, req_id: int, attempts_snapshot: int) -> None:
        tail = self.tail
        req = self.outstanding.get(req_id)
        if req is None:
            return  # answered (or failed) before the hedge delay elapsed
        if req.attempts != attempts_snapshot:
            return  # a replay or retry superseded this timer
        if (req.hedges >= MAX_HEDGES
                or req.attempts >= MAX_ATTEMPTS):
            return
        now = self.sim.now
        candidates = {
            s for s in self.reachable[req.client]
            if s not in req.pending_servers
        }
        if not candidates:
            return  # nowhere different to hedge to
        server = self.balancer.choose(
            req, candidates=tail.filter_candidates(candidates, now)
        )
        if server is None:
            return
        outbox = self._outbox(req.client, server)
        if self.config.outbox_cap and len(outbox.entries) >= self.config.outbox_cap:
            return  # the client itself is backlogged; don't add load
        if not tail.budget.try_spend():
            return  # budget exhausted: the bound beats the tail
        req.hedges += 1
        tail.hedges_sent += 1
        self._send_attempt(req, server, outbox)

    def _outbox(self, src: int, dst: int) -> _Outbox:
        key = (src, dst)
        if key not in self.outboxes:
            self.outboxes[key] = _Outbox(self, src, dst)
        return self.outboxes[key]

    def enqueue_response(self, server: int, client: int, req_id: int,
                         flags: int, t_rx: int, t_start: int, t_end: int,
                         resp_bytes: int) -> None:
        payload = pack_response(req_id, server, flags, t_rx, t_start, t_end,
                                resp_bytes)
        self._outbox(server, client).push(payload, TAG_RESP, None)

    def _collector(self, client: int) -> Generator:
        ep = self.world.endpoints[client]
        while True:
            try:
                msg = yield from ep.recv(tag=TAG_RESP)
            except PeerCrashed:
                continue  # a rendezvous died with this node: receive afresh
            req_id, server, flags, t_rx, t_start, t_end = unpack_response(
                msg.data
            )
            now = self.sim.now
            req = self.outstanding.get(req_id)
            if req is None:
                # The request was answered once already: this is a losing
                # hedge attempt's response, or a crash replay raced a
                # response that was already on the wire.
                self._absorb_duplicate(req_id, server)
                continue
            if flags & FLAG_SHED:
                self._on_shed_response(req, server, now)
                continue
            self._complete(req, server, flags, t_rx, t_start, t_end, now)

    def _complete(self, req: Request, server: int, flags: int, t_rx: int,
                  t_start: int, t_end: int, now: int) -> None:
        self.outstanding.pop(req.req_id)
        if server in req.pending_servers:
            req.pending_servers.discard(server)
            self.balancer.note_done(server)
        # Attempts still racing (hedge losers, or the replay of a request
        # a stale pre-crash response just answered) stay tracked until
        # their responses arrive or their server dies.
        if req.pending_servers:
            self._absorbing[req.req_id] = set(req.pending_servers)
            req.pending_servers.clear()
        total = now - req.t_arrival
        queueing = (req.dispatch_ns[server] - req.t_arrival) + (t_start - t_rx)
        service = t_end - t_start
        network = max(0, total - queueing - service)
        self.completed += 1
        self.hist_by_server[server].record(total)
        self.hist_queueing.record(queueing)
        self.hist_service.record(service)
        self.hist_network.record(network)
        self._tally(now, "completed", total)
        self.tail.on_success(server, total, now)
        if req.hedges and server != next(iter(req.dispatch_ns), server):
            # Answered by other than the primary attempt's server.
            self.tail.hedges_won += 1
        # A parked request may now have an eligible server again.
        if self.holding and self.balancer.alive:
            self._drain_holding()

    def _on_shed_response(self, req: Request, server: int, now: int) -> None:
        tail = self.tail
        if server in req.pending_servers:
            req.pending_servers.discard(server)
            self.balancer.note_done(server)
        tail.on_shed(server, now)
        if req.pending_servers:
            return  # a hedge attempt is still racing; let it decide
        if tail.spec.retry_sheds and req.attempts < MAX_ATTEMPTS:
            candidates = {
                s for s in self.reachable[req.client] if s != server
            }
            retry_server = self.balancer.choose(
                req,
                candidates=tail.filter_candidates(candidates, now)
                if candidates else candidates,
            )
            if retry_server is not None and tail.budget.try_spend():
                tail.retries_sent += 1
                self._send_attempt(req, retry_server)
                self._arm_hedge(req)
                return
        self.outstanding.pop(req.req_id, None)
        self.shed += 1
        self._tally(now, "shed")

    def _absorb_duplicate(self, req_id: int, server: int) -> None:
        self.duplicate_responses += 1
        losers = self._absorbing.get(req_id)
        if losers is not None and server in losers:
            losers.discard(server)
            self.balancer.note_done(server)
            if not losers:
                del self._absorbing[req_id]

    def _drain_holding(self) -> None:
        pending, self.holding = self.holding, deque()
        for req in pending:
            self._dispatch(req)

    # -- crash / recovery hooks (called by repro.recovery) -----------------

    def on_node_crashed(self, node_id: int) -> None:
        if node_id not in self.servers:
            return
        self.balancer.mark_down(node_id)
        self.servers[node_id].on_crash()
        for client in self.config.clients:
            self.reachable[client].discard(node_id)
        # Requests parked in outboxes toward the dead server never left
        # the client; abandon those attempts with everything in flight.
        for (src, dst), outbox in self.outboxes.items():
            if dst == node_id:
                for req in outbox.purge_requests():
                    self._abandon_attempt(req, node_id)
            if src == node_id:
                outbox.entries.clear()  # dead server's unsent responses
        for req in list(self.outstanding.values()):
            if node_id in req.pending_servers:
                self._abandon_attempt(req, node_id)
        # Losing hedge attempts at the dead server will never answer.
        for req_id, losers in list(self._absorbing.items()):
            if node_id in losers:
                losers.discard(node_id)
                self.balancer.note_done(node_id)
                if not losers:
                    del self._absorbing[req_id]

    def _on_request_send_failed(self, req: Request, failed_dst: int) -> None:
        """The outbox hit a typed failure mid-send for this request.

        The crash notification usually replays the request before the
        failed sender process resumes; only act here if the request is
        still journaled *and* still has an attempt toward the dead leg.
        """
        if (self.outstanding.get(req.req_id) is req
                and failed_dst in req.pending_servers):
            self._abandon_attempt(req, failed_dst)

    def _abandon_attempt(self, req: Request, server: int) -> None:
        """One attempt died with its server; replay when none survive."""
        if server in req.pending_servers:
            req.pending_servers.discard(server)
            self.balancer.note_done(server)
        if req.pending_servers:
            return  # another attempt (a hedge) is still live
        if self.outstanding.get(req.req_id) is not req:
            return  # already answered or already failed
        self.outstanding.pop(req.req_id)
        self.replayed += 1
        self._dispatch(req)

    def on_pair_reconnected(self, node_id: int, peer: int) -> None:
        """The server is reachable again.  ``self.world`` was built before
        this runtime, so its hook has already rebuilt the pair's rings."""
        client, server = (
            (node_id, peer) if peer in self.servers else (peer, node_id)
        )
        if server not in self.servers or client not in self.reachable:
            return
        self.reachable[client].add(server)
        self.balancer.mark_up(server)
        self._drain_holding()

    # -- measurement -------------------------------------------------------

    def _tally(self, t_ns: int, key: str, latency_ns: Optional[int] = None) -> None:
        """Count one event (and a completion's latency) in the attainment
        window holding ``t_ns``; nothing at all when ``window_ns`` is 0."""
        window_ns = self.config.window_ns
        if not window_ns:
            return
        idx = (t_ns - self._start_ns) // window_ns
        win = self.windows.get(idx)
        if win is None:
            win = self.windows[idx] = {
                "generated": 0,
                "completed": 0,
                "shed": 0,
                "hist": LatencyHistogram(),
            }
        win[key] += 1
        if latency_ns is not None:
            win["hist"].record(latency_ns)

    def merged_histogram(self) -> LatencyHistogram:
        """Cluster-wide latency tail: per-server histograms merged."""
        return LatencyHistogram.merged(self.hist_by_server.values())

    @property
    def shed_fraction(self) -> float:
        total = self.completed + self.shed + self.shed_client
        return (self.shed + self.shed_client) / total if total else 0.0

    def slo_report(self, hist: Optional[LatencyHistogram] = None):
        if self.config.slo is None:
            return None
        return self.config.slo.evaluate(
            hist if hist is not None else self.merged_histogram(),
            shed_fraction=self.shed_fraction,
        )

    def window_reports(self) -> list[dict]:
        """Per-window attainment, in time order (needs ``window_ns``)."""
        out = []
        for idx in sorted(self.windows):
            win = self.windows[idx]
            hist = win["hist"]
            answered = win["completed"] + win["shed"]
            shed_frac = win["shed"] / answered if answered else 0.0
            row = {
                "window": idx,
                "t0_ms": round(
                    (self._start_ns + idx * self.config.window_ns) / 1e6, 3
                ),
                "generated": win["generated"],
                "completed": win["completed"],
                "shed": win["shed"],
                "p50_ms": round(hist.p50 / 1e6, 4),
                "p99_ms": round(hist.p99 / 1e6, 4),
                "p999_ms": round(hist.p999 / 1e6, 4),
            }
            if self.config.slo is not None:
                row["attained"] = self.config.slo.evaluate(
                    hist, shed_fraction=shed_frac
                ).attained
            out.append(row)
        return out

    # -- end-of-run accounting --------------------------------------------

    def fail_pending(self) -> int:
        """Classify still-unanswered requests to dead servers as failed.

        Called by scenario runners at the end of a run whose fault
        profile leaves a server down; requests that can never be
        answered become typed failures instead of dangling pending.
        """
        failed = 0
        for req in list(self.outstanding.values()):
            dead = [s for s in req.pending_servers
                    if s not in self.balancer.alive]
            for s in dead:
                req.pending_servers.discard(s)
                self.balancer.note_done(s)
            if not req.pending_servers:
                self.outstanding.pop(req.req_id, None)
                failed += 1
        still_holding = deque()
        for req in self.holding:
            if self.balancer.choose(req, self.reachable[req.client]) is None:
                failed += 1
            else:
                still_holding.append(req)
        self.holding = still_holding
        self.failed += failed
        return failed

    @property
    def pending(self) -> int:
        return len(self.outstanding) + len(self.holding)

    def disqualify(self, conn, peer) -> Optional[str]:
        """Open-loop serving traffic refuses fast-forward: an armed arrival
        source guarantees future requests at times the analytic model
        cannot see, and request/response traffic is bidirectional by
        construction, so the reverse leg would be jumped over."""
        if self.arrivals_armed:
            return "serve-arrivals-armed"
        if self.active:
            return "serve-traffic-active"
        return None

    def check_invariants(self) -> list[tuple[str, str, str]]:
        """Request-conservation checks; empty list = all hold."""
        problems = []
        accounted = (
            self.completed
            + self.shed
            + self.shed_client
            + self.failed
            + self.pending
        )
        if self.generated != accounted:
            problems.append(
                f"request-conservation: generated {self.generated} != "
                f"completed {self.completed} + shed {self.shed} + "
                f"shed_client {self.shed_client} + failed {self.failed} + "
                f"pending {self.pending}"
            )
        merged = self.merged_histogram()
        if merged.total != self.completed:
            problems.append(
                f"histogram-conservation: merged histogram holds "
                f"{merged.total} samples but {self.completed} requests "
                "completed"
            )
        for name, hist in (
            ("queueing", self.hist_queueing),
            ("service", self.hist_service),
            ("network", self.hist_network),
        ):
            if hist.total != self.completed:
                problems.append(
                    f"histogram-conservation: {name} phase histogram holds "
                    f"{hist.total} samples for {self.completed} completions"
                )
        tracked = sum(self.balancer.outstanding.values())
        absorbing = sum(len(s) for s in self._absorbing.values())
        attempts = absorbing + sum(
            len(r.pending_servers) for r in self.outstanding.values()
        )
        if tracked != attempts:
            problems.append(
                f"balancer-accounting: balancer tracks {tracked} "
                f"outstanding but {attempts} attempts are in flight "
                f"({len(self.outstanding)} journaled, {absorbing} absorbing)"
            )
        src_generated = sum(s.generated for s in self.sources.values())
        if src_generated != self.generated:
            problems.append(
                f"arrival-accounting: sources emitted {src_generated}, "
                f"runtime recorded {self.generated}"
            )
        # -- tail-tolerance invariants ------------------------------------
        tail = self.tail
        if self.duplicate_responses > tail.hedges_sent + self.replayed:
            problems.append(
                "hedge-duplicate-conservation: "
                f"{self.duplicate_responses} duplicate responses exceed "
                f"{tail.hedges_sent} hedges + {self.replayed} replays"
            )
        budget = tail.budget
        cap = budget.burst + budget.ratio * budget.earned
        if budget.spent > cap + 1e-9:
            problems.append(
                f"retry-budget-bound: {budget.spent} extra attempts "
                f"exceed the budget cap {cap:.1f} "
                f"({budget.burst} burst + {budget.ratio} x "
                f"{budget.earned} fresh)"
            )
        if tail.hedges_sent + tail.retries_sent != budget.spent:
            problems.append(
                f"retry-budget-accounting: {tail.hedges_sent} hedges + "
                f"{tail.retries_sent} retries != {budget.spent} tokens "
                "spent"
            )
        for issue in tail.illegal_breaker_transitions():
            problems.append(f"breaker-state-machine: {issue}")
        return [("serve-invariant", p, "serve runtime") for p in problems]

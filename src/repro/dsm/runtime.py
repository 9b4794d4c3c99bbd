"""GeNIMA-style DSM runtime over MultiEdge.

One :class:`DsmNode` runs on each cluster node; together they provide a
page-based shared address space with home-based release consistency:

* **page fetch** — an RDMA read from the home node's authoritative copy;
  no code runs at the home (GeNIMA's "avoid asynchronous protocol
  processing" design, enabled by MultiEdge's RDMA semantics),
* **diff flush** — at every release point (unlock, barrier arrival) the
  writer diffs dirty pages against their twins and RDMA-writes the changed
  byte runs straight into the home copy,
* **write notices** — page invalidations propagate through lock grants and
  barrier releases; notice arrays are bulk-written to a staging ring and
  the control message carries only a count,
* **control messages** — 128-byte records deposited in per-pair inbox
  rings (:class:`repro.core.SlotRing`) with ``NOTIFY | FENCE_BACKWARD``,
  so a message is only acted on after every earlier operation from that
  sender (diffs, staged notices) has been applied.  In the 2Lu
  configuration this is the *only* ordering the DSM requests — data frames
  flow freely out of order, which is exactly the experiment of the paper's
  Figure 6.

The application-facing API is deliberately explicit (software DSM on a
simulator has no MMU to trap accesses): programs call
:meth:`DsmNode.access` to fault ranges in, then operate on real numpy
views of the local backing store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

import numpy as np

from ..bench.cluster import Cluster
from ..core import ConnectionHandle, ConnectionStats, Layer, SlotRing, merge_stats
from ..host.params import memcpy_ns
from ..sim import Event, Store
from .messages import MSG_SLOT_BYTES, Message, MsgType, decode_notices, encode_notices
from .region import PAGE_SIZE, HomePolicy, PageState, PageTable, SharedRegion
from .stats import Breakdown, DsmNodeStats
from .sync import BarrierManagerState, LockManagerState

__all__ = ["DsmRuntime", "DsmNode", "DsmRunResult"]

INBOX_SLOTS = 64
NOTICE_SEG_BYTES = 8192  # 1024 notices per chunk
NOTICES_PER_CHUNK = NOTICE_SEG_BYTES // 8
CREDIT_EVERY = 16
SEND_WINDOW = INBOX_SLOTS - 8

# Modelled CPU costs of DSM bookkeeping (charged to the app CPU, tag "dsm").
MSG_HANDLE_NS = 600
NOTICE_APPLY_NS = 40

# Maximum concurrently outstanding page fetches per node.  Page faults in a
# software DSM are mostly synchronous; a small pipeline models modest
# fault-ahead without generating the 16-way fetch incast a real
# fault-driven system never produces.
FETCH_PIPELINE = 4


@dataclass
class DsmRunResult:
    """Outcome of one DSM application run."""

    nodes: int
    elapsed_ns: int
    per_node: list[DsmNodeStats]
    breakdowns: list[Breakdown]
    network: ConnectionStats
    frames_dropped: int
    irqs: int
    protocol_cpu_fraction: float  # mean over nodes, 0..2
    returns: list[Any] = field(default_factory=list)

    @property
    def interrupt_fraction(self) -> float:
        frames = self.network.data_frames_sent + self.network.extra_frames_sent
        return self.irqs / frames if frames else 0.0


class DsmRuntime(Layer):
    """Cluster-wide DSM: regions, nodes, and the run harness; a layer.  It
    has no reconnect hook: its rings stay on the dead incarnation (DESIGN.md,
    "Message rings above RDMA")."""

    def __init__(self, cluster: Cluster) -> None:
        super().__init__(cluster)
        self.n = cluster.config.nodes
        self.regions: dict[int, SharedRegion] = {}
        self._next_region_id = 1
        self.nodes = [DsmNode(self, rank) for rank in range(self.n)]
        for i in range(self.n):
            for j in range(i + 1, self.n):
                self._wire_pair(i, j)
        for node in self.nodes:
            node._start_services()
        # Measurement window.
        self._measure_votes = 0
        self._node_end: list[int] = [0] * self.n

    def _wire_pair(self, i: int, j: int) -> None:
        """Connect ``i`` and ``j``: a control-message ring each way, plus a
        write-notice staging segment per ring slot."""
        a, b = self.nodes[i], self.nodes[j]
        here, there = self.cluster.connect(i, j)
        a._open_mail(j, here)
        b._open_mail(i, there)
        SlotRing.link(a._mail[j], b._mail[i])
        a._peer_staging[j], b._peer_staging[i] = b._staging[i], a._staging[j]

    def on_node_crashed(self, node_id: int) -> None:
        """Crash hook (repro.recovery): page-cache recovery.

        The crashed node's own page cache (twins, dirty set, cached
        copies) is volatile and dropped; every survivor invalidates its
        cached copies of pages *homed* at the crashed node, so the next
        access refetches instead of trusting a copy that may predate
        diffs lost in the crash.
        """
        for node in self.nodes:
            if node.rank == node_id:
                node.on_self_crashed()
            else:
                node.on_peer_crashed(node_id)

    # -- region management -------------------------------------------------

    def alloc_region(
        self, name: str, size: int, home="block"
    ) -> SharedRegion:
        """Collectively allocate a shared region on every node.

        ``home`` selects the page→home mapping: ``"block"``,
        ``"round_robin"``, ``"fixed:<node>"``, or a callable
        ``page_index -> node`` for application-specific placement.
        """
        if size <= 0:
            raise ValueError("region size must be positive")
        n_pages = (size + PAGE_SIZE - 1) // PAGE_SIZE
        if callable(home):
            home_of = home
        elif home == "block":
            home_of = HomePolicy.block(n_pages, self.n)
        elif home == "round_robin":
            home_of = HomePolicy.round_robin(n_pages, self.n)
        elif home.startswith("fixed:"):
            home_of = HomePolicy.fixed(int(home.split(":", 1)[1]))
        else:
            raise ValueError(f"unknown home policy {home!r}")
        base = [
            node.stack.node.memory.alloc(n_pages * PAGE_SIZE)
            for node in self.nodes
        ]
        region = SharedRegion(
            region_id=self._next_region_id,
            name=name,
            size=size,
            n_pages=n_pages,
            home_of=home_of,
            base=base,
        )
        self._next_region_id += 1
        self.regions[region.region_id] = region
        for node in self.nodes:
            node.page_tables[region.region_id] = PageTable(region, node.rank)
        return region

    # -- measurement --------------------------------------------------------

    def _vote_start(self) -> None:
        self._measure_votes += 1
        if self._measure_votes == self.n:
            self.cluster.reset_measurement()
            for node in self.nodes:
                node.stats = DsmNodeStats()

    # -- run harness ---------------------------------------------------------

    def run(
        self,
        program: Callable[["DsmNode"], Generator],
        limit_ms: int = 600_000,
    ) -> DsmRunResult:
        """Run ``program(node)`` on every node to completion."""
        procs = []
        for node in self.nodes:
            procs.append(
                self.sim.process(
                    self._wrap(node, program(node)), name=f"dsm.app{node.rank}"
                )
            )
        returns = []
        for proc in procs:
            returns.append(
                self.sim.run_until_done(proc, limit=limit_ms * 1_000_000)
            )
        elapsed = max(self._node_end) - self.cluster.measured_since
        per_node = [node.stats for node in self.nodes]
        breakdowns = [
            Breakdown.from_stats(
                elapsed,
                node.stats,
                node.stack.node.protocol_cpu_time(),
            )
            for node in self.nodes
        ]
        network = merge_stats(
            [s.protocol.total_stats() for s in self.cluster.stacks]
        )
        from ..analysis.summary import summarize_cluster

        summary = summarize_cluster(self.cluster, elapsed)
        # Device counters run from t=0; count them from the measured start.
        base = self.cluster.reset_summary
        drops, irqs = (base.frames_dropped, base.irqs) if base else (0, 0)
        return DsmRunResult(
            nodes=self.n,
            elapsed_ns=elapsed,
            per_node=per_node,
            breakdowns=breakdowns,
            network=network,
            frames_dropped=summary.frames_dropped - drops,
            irqs=summary.irqs - irqs,
            protocol_cpu_fraction=summary.protocol_cpu_fraction_mean,
            returns=returns,
        )

    def _wrap(self, node: "DsmNode", gen: Generator) -> Generator:
        result = yield from gen
        self._node_end[node.rank] = self.sim.now
        return result


class DsmNode:
    """Per-node DSM runtime and the application-facing API."""

    def __init__(self, runtime: DsmRuntime, rank: int) -> None:
        self.runtime = runtime
        self.rank = rank
        self.size = runtime.n
        self.sim = runtime.sim
        self.stack = runtime.cluster.stacks[rank]
        # DSM protocol services (message listeners, the sender) run on the
        # dedicated protocol CPU, like GeNIMA's handler thread: a node busy
        # computing must not delay lock grants or barrier releases it
        # manages for others.
        self.service_cpu = self.stack.node.protocol_cpu
        self.stats = DsmNodeStats()
        self.page_tables: dict[int, PageTable] = {}

        self.conns: dict[int, ConnectionHandle] = {}
        self._mail: dict[int, SlotRing] = {}
        # Write-notice staging, one segment per ring slot: where the peer
        # stages for us, and where we stage for the peer.
        self._staging: dict[int, int] = {}
        self._peer_staging: dict[int, int] = {}
        self._out: Store = Store(self.sim)

        # Client-side sync state.
        self._lock_grant_ev: dict[int, Event] = {}
        self._barrier_ev: dict[tuple[int, int], Event] = {}
        self._barrier_epoch: dict[int, int] = {}

        # Manager-side sync state (for objects this node manages).
        self._locks: dict[int, LockManagerState] = {}
        self._barriers: dict[int, BarrierManagerState] = {}
        # Every notice this node generated since its last barrier.  Lock
        # releases propagate notices only to the next acquirer; a barrier
        # must establish coherence for *everyone*, so each node relays all
        # notices from its completed lock intervals with its arrival.
        self._since_barrier: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # Services (wired by DsmRuntime._wire_pair)
    # ------------------------------------------------------------------

    def _open_mail(self, peer: int, conn: ConnectionHandle) -> None:
        """This node's end of its channel to ``peer``."""
        self.conns[peer] = conn
        self._mail[peer] = SlotRing(
            conn, INBOX_SLOTS, MSG_SLOT_BYTES, SEND_WINDOW, CREDIT_EVERY
        )
        self._staging[peer] = conn.node.memory.alloc(
            INBOX_SLOTS * NOTICE_SEG_BYTES
        )

    def _start_services(self) -> None:
        if self.size > 1:
            self.sim.process(self._sender(), name=f"dsm.sender{self.rank}")
            for peer in self.conns:
                self.sim.process(
                    self._listener(peer), name=f"dsm.listen{self.rank}-{peer}"
                )

    # ------------------------------------------------------------------
    # Crash recovery hooks (repro.recovery)
    # ------------------------------------------------------------------

    def on_peer_crashed(self, peer: int) -> int:
        """Survivor-side hook: refetch rather than trust crash-era copies.

        Cached (non-home, non-dirty) copies of pages homed at ``peer``
        are invalidated; the next access fetches from the home's restored
        authoritative copy.  Returns the number of pages dropped.
        """
        dropped = 0
        for pt in self.page_tables.values():
            region = pt.region
            for page in range(region.n_pages):
                if (
                    region.home_of(page) == peer
                    and not pt.is_home(page)
                    and pt.state[page] is PageState.VALID
                ):
                    pt.state[page] = PageState.INVALID
                    dropped += 1
        return dropped

    def on_self_crashed(self) -> None:
        """The node's page cache is volatile: drop everything non-home."""
        for pt in self.page_tables.values():
            pt.twins.clear()
            pt.dirty.clear()
            for page in range(pt.region.n_pages):
                pt.state[page] = (
                    PageState.VALID if pt.is_home(page) else PageState.INVALID
                )

    # ------------------------------------------------------------------
    # Messaging substrate
    # ------------------------------------------------------------------

    def _enqueue(self, peer: int, msg: Message, notices: Optional[list] = None) -> None:
        """Queue a control message (with optional notice payload) for sending.

        Chunks notice lists larger than one staging segment into multiple
        messages; only the final chunk has ``d == 0``.
        """
        notices = notices or []
        chunks = [
            notices[i : i + NOTICES_PER_CHUNK]
            for i in range(0, len(notices), NOTICES_PER_CHUNK)
        ] or [[]]
        for i, chunk in enumerate(chunks):
            m = Message(
                msg.msg_type,
                msg.src,
                a=msg.a,
                b=len(chunk),
                c=msg.c,
                d=0 if i == len(chunks) - 1 else 1,
            )
            self._out.put((peer, m, chunk))

    def _sender(self) -> Generator:
        memory = self.stack.node.memory
        # One notice segment serves every send: this is the node's only
        # sender, and Connection.submit_write copies the source bytes out
        # when each write is submitted.
        scratch_notices = memory.alloc(NOTICE_SEG_BYTES)

        def stage(slot: int) -> Generator:
            # Bulk-write the notices of the message being sent (``peer``
            # and ``notices`` below) to the slot's segment, ahead of the
            # fence the slot write carries.
            blob = encode_notices(notices)
            memory.write(scratch_notices, blob)
            yield from self.conns[peer].rdma_write(
                scratch_notices,
                self._peer_staging[peer] + slot * NOTICE_SEG_BYTES,
                len(blob),
                cpu=self.service_cpu,
            )

        while True:
            peer, msg, notices = yield self._out
            yield from self._mail[peer].send(
                msg.encode(), cpu=self.service_cpu,
                stage=stage if notices else None,
            )
            self.stats.messages_sent += 1

    def _listener(self, peer: int) -> Generator:
        conn = self.conns[peer]
        memory = self.stack.node.memory
        ring = self._mail[peer]
        cpu = self.service_cpu
        while True:
            note = yield from conn.wait_notification(cpu=cpu)
            if ring.absorb_credit(note.address):
                continue
            slot = ring.consume(note.address)
            if slot is None:
                raise RuntimeError(
                    f"dsm node {self.rank}: write from {peer} landed at "
                    f"{note.address:#x}, not the next inbox slot"
                )
            msg = Message.decode(memory.read(note.address, MSG_SLOT_BYTES))
            self.stats.messages_received += 1
            yield cpu.hold(MSG_HANDLE_NS, "dsm")
            notices = []
            if msg.b:
                blob = memory.read(
                    self._staging[peer] + slot * NOTICE_SEG_BYTES, msg.b * 8
                )
                notices = decode_notices(blob, msg.b)
                yield cpu.hold(NOTICE_APPLY_NS * msg.b, "dsm")
            if ring.credit_due():
                yield from ring.return_credit()
            self._dispatch(peer, msg, notices)

    # ------------------------------------------------------------------
    # Message dispatch (manager + client state machines)
    # ------------------------------------------------------------------

    def _lock_mgr(self, lock_id: int) -> int:
        return lock_id % self.size

    def _barrier_mgr(self, barrier_id: int) -> int:
        return barrier_id % self.size

    def _dispatch(self, peer: int, msg: Message, notices: list) -> None:
        t = msg.msg_type
        if t == MsgType.LOCK_REQ:
            state = self._locks.setdefault(msg.a, LockManagerState(msg.a))
            grantee = state.request(msg.src)
            if grantee is not None:
                self._grant_lock(msg.a, grantee, state)
        elif t == MsgType.LOCK_GRANT:
            self._apply_notices(notices)
            if msg.d == 0:
                ev = self._lock_grant_ev.pop(msg.a, None)
                if ev is not None:
                    ev.trigger()
        elif t == MsgType.LOCK_REL:
            state = self._locks.setdefault(msg.a, LockManagerState(msg.a))
            if msg.d == 1:
                state.add_partial(notices)
            else:
                grantee = state.release(msg.src, notices, self.size)
                if grantee is not None:
                    self._grant_lock(msg.a, grantee, state)
        elif t == MsgType.BARRIER_ARRIVE:
            state = self._barriers.setdefault(
                msg.a, BarrierManagerState(msg.a)
            )
            if msg.d == 1:
                state.add_partial(msg.src, notices)
            else:
                releases = state.arrive(msg.src, notices, self.size)
                if releases is not None:
                    self._release_barrier(msg.a, state.epoch - 1, releases)
        elif t == MsgType.BARRIER_RELEASE:
            self._apply_notices(notices)
            if msg.d == 0:
                ev = self._barrier_ev.pop((msg.a, msg.c), None)
                if ev is not None:
                    ev.trigger()
        else:
            raise RuntimeError(f"unhandled DSM message type {t}")

    def _grant_lock(self, lock_id: int, grantee: int, state: LockManagerState) -> None:
        pending = state.take_pending(grantee)
        if grantee == self.rank:
            self._apply_notices(pending)
            ev = self._lock_grant_ev.pop(lock_id, None)
            if ev is not None:
                ev.trigger()
        else:
            self._enqueue(
                grantee,
                Message(MsgType.LOCK_GRANT, self.rank, a=lock_id),
                pending,
            )

    def _release_barrier(
        self, barrier_id: int, epoch: int, releases: dict[int, list]
    ) -> None:
        for target, notices in releases.items():
            if target == self.rank:
                self._apply_notices(notices)
                ev = self._barrier_ev.pop((barrier_id, epoch), None)
                if ev is not None:
                    ev.trigger()
            else:
                self._enqueue(
                    target,
                    Message(
                        MsgType.BARRIER_RELEASE, self.rank, a=barrier_id, c=epoch
                    ),
                    notices,
                )

    def _apply_notices(self, notices: list) -> None:
        for region_id, page in notices:
            pt = self.page_tables.get(region_id)
            if pt is not None:
                pt.invalidate(page)
                self.stats.invalidations_applied += 1

    # ------------------------------------------------------------------
    # Application API: memory access
    # ------------------------------------------------------------------

    def access(
        self,
        region: SharedRegion,
        offset: int,
        nbytes: int,
        mode: str = "r",
    ) -> Generator[Any, Any, np.ndarray]:
        """Fault in ``[offset, offset+nbytes)`` and return a local view.

        ``mode`` is ``"r"`` for read-only access or ``"rw"``/``"w"`` for
        write access (pages become dirty and are diffed at the next
        release).  Time spent fetching pages is accounted as data wait.
        """
        pt = self.page_tables[region.region_id]
        memory = self.stack.node.memory
        pages = region.page_range(offset, nbytes)
        to_fetch = [p for p in pages if pt.state[p] == PageState.INVALID]
        yield from self._fetch_pages(region, pt, to_fetch)
        if mode in ("w", "rw"):
            cpu = self.stack.node.app_cpu
            for page in pages:
                if pt.state[page] == PageState.DIRTY:
                    continue
                if not pt.is_home(page):
                    t1 = self.sim.now
                    yield cpu.hold(memcpy_ns(PAGE_SIZE), "dsm")
                    self.stats.dsm_overhead_ns += self.sim.now - t1
                    pt.twins[page] = memory.view(
                        region.page_addr(self.rank, page), PAGE_SIZE
                    ).copy()
                pt.state[page] = PageState.DIRTY
                pt.dirty.add(page)
        elif mode != "r":
            raise ValueError(f"invalid access mode {mode!r}")
        return memory.view(region.base[self.rank] + offset, nbytes)

    def prefetch(
        self, region: SharedRegion, ranges: list[tuple[int, int]]
    ) -> Generator:
        """Fault in several (offset, nbytes) ranges with one parallel wait.

        Issues every needed page fetch before waiting, so a compute phase
        that needs scattered blocks pays one fetch round-trip instead of
        one per block.
        """
        pt = self.page_tables[region.region_id]
        seen: set[int] = set()
        to_fetch = []
        for offset, nbytes in ranges:
            for page in region.page_range(offset, nbytes):
                if page not in seen and pt.state[page] == PageState.INVALID:
                    seen.add(page)
                    to_fetch.append(page)
        yield from self._fetch_pages(region, pt, to_fetch)

    def _fetch_pages(
        self, region: SharedRegion, pt: PageTable, pages: list[int]
    ) -> Generator:
        """Fetch pages from their homes, at most FETCH_PIPELINE in flight."""
        if not pages:
            return
        t0 = self.sim.now
        pending = []
        for page in pages:
            if len(pending) >= FETCH_PIPELINE:
                h, p = pending.pop(0)
                yield from h.wait()
                pt.state[p] = PageState.VALID
            home = region.home_of(page)
            h = yield from self.conns[home].rdma_read(
                region.page_addr(self.rank, page),
                region.page_addr(home, page),
                PAGE_SIZE,
            )
            pending.append((h, page))
        for h, p in pending:
            yield from h.wait()
            pt.state[p] = PageState.VALID
        self.stats.page_fetches += len(pages)
        self.stats.page_fetch_bytes += len(pages) * PAGE_SIZE
        self.stats.data_wait_ns += self.sim.now - t0

    def compute(self, duration_ns: int) -> Generator:
        """Charge modelled application computation time."""
        if duration_ns > 0:
            yield self.stack.node.app_cpu.hold(int(duration_ns), "app.compute")
            self.stats.compute_ns += int(duration_ns)

    # ------------------------------------------------------------------
    # Application API: release consistency
    # ------------------------------------------------------------------

    def _flush(self) -> Generator[Any, Any, list]:
        """Diff and write back all dirty pages; returns write notices.

        Blocks until every diff has been acknowledged (and therefore
        applied at the home — see connection ack semantics), which is the
        flush a releaser must perform before making its writes visible.
        """
        memory = self.stack.node.memory
        cpu = self.stack.node.app_cpu
        notices: list[tuple[int, int]] = []
        # home node -> list of (home_address, data) diff segments.
        segments: dict[int, list[tuple[int, bytes]]] = {}
        for region_id, pt in self.page_tables.items():
            if not pt.dirty:
                continue
            region = pt.region
            for page in sorted(pt.dirty):
                if pt.is_home(page):
                    notices.append((region_id, page))
                    pt.state[page] = PageState.VALID
                    continue
                twin = pt.twins.pop(page)
                current = memory.view(
                    region.page_addr(self.rank, page), PAGE_SIZE
                )
                t1 = self.sim.now
                yield cpu.hold(memcpy_ns(PAGE_SIZE), "dsm")
                self.stats.dsm_overhead_ns += self.sim.now - t1
                runs = _diff_runs(twin, current)
                pt.state[page] = PageState.VALID
                if not runs:
                    continue
                notices.append((region_id, page))
                home = region.home_of(page)
                home_base = region.page_addr(home, page)
                segs = segments.setdefault(home, [])
                for start, length in runs:
                    segs.append(
                        (
                            home_base + start,
                            current[start : start + length].tobytes(),
                        )
                    )
                    self.stats.diff_bytes += length
                    self.stats.diff_runs += 1
                self.stats.diffs_flushed += 1
            pt.dirty.clear()
        # One scatter operation per home carries the whole diff set, the
        # way real SVM systems ship one diff message per flush target.
        handles = []
        for home, segs in segments.items():
            h = yield from self.conns[home].rdma_write_scatter(segs)
            handles.append(h)
        for h in handles:
            yield from h.wait()
        self.stats.write_notices_sent += len(notices)
        self._since_barrier.update(notices)
        return notices

    def lock(self, lock_id: int) -> Generator:
        """Acquire a global lock (release-consistency acquire point)."""
        t0 = self.sim.now
        mgr = self._lock_mgr(lock_id)
        ev = Event(self.sim)
        self._lock_grant_ev[lock_id] = ev
        if mgr == self.rank:
            state = self._locks.setdefault(lock_id, LockManagerState(lock_id))
            grantee = state.request(self.rank)
            if grantee == self.rank:
                self._grant_lock(lock_id, self.rank, state)
        else:
            self._enqueue(mgr, Message(MsgType.LOCK_REQ, self.rank, a=lock_id))
        if not ev.triggered:
            yield ev
        self.stats.lock_wait_ns += self.sim.now - t0
        self.stats.lock_acquires += 1

    def unlock(self, lock_id: int) -> Generator:
        """Release a global lock (flushes dirty pages first)."""
        notices = yield from self._flush()
        mgr = self._lock_mgr(lock_id)
        if mgr == self.rank:
            state = self._locks.setdefault(lock_id, LockManagerState(lock_id))
            grantee = state.release(self.rank, notices, self.size)
            if grantee is not None:
                self._grant_lock(lock_id, grantee, state)
        else:
            self._enqueue(
                mgr, Message(MsgType.LOCK_REL, self.rank, a=lock_id), notices
            )

    def barrier(self, barrier_id: int = 0) -> Generator:
        """Global barrier (flush + release + acquire semantics)."""
        t0 = self.sim.now
        yield from self._flush()
        notices = sorted(self._since_barrier)
        self._since_barrier.clear()
        mgr = self._barrier_mgr(barrier_id)
        epoch = self._barrier_epoch.get(barrier_id, 0)
        self._barrier_epoch[barrier_id] = epoch + 1
        ev = Event(self.sim)
        self._barrier_ev[(barrier_id, epoch)] = ev
        if mgr == self.rank:
            state = self._barriers.setdefault(
                barrier_id, BarrierManagerState(barrier_id)
            )
            releases = state.arrive(self.rank, notices, self.size)
            if releases is not None:
                self._release_barrier(barrier_id, state.epoch - 1, releases)
        else:
            self._enqueue(
                mgr,
                Message(MsgType.BARRIER_ARRIVE, self.rank, a=barrier_id, c=epoch),
                notices,
            )
        if not ev.triggered:
            yield ev
        self.stats.barrier_wait_ns += self.sim.now - t0
        self.stats.barriers += 1

    def start_measurement(self) -> None:
        """Mark the start of the timed section (call on every node)."""
        self.runtime._vote_start()


def _diff_runs(twin: np.ndarray, current: np.ndarray) -> list[tuple[int, int]]:
    """Exact changed-byte runs between twin and current page.

    Runs must be *byte-exact*: merging across unchanged gaps would write
    stale twin bytes back to the home, silently clobbering a concurrent
    false-sharing writer of the same page (page-based DSMs rely on the
    home merging disjoint byte diffs).  Densely modified pages collapse to
    few runs naturally; fine-grained scatter (e.g. Radix's permutation)
    genuinely costs many small writes — that is the real behaviour of
    page-based software DSM under false sharing.
    """
    changed = twin != current
    if not changed.any():
        return []
    idx = np.flatnonzero(changed)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(idx) - 1]))
    return [
        (int(idx[s]), int(idx[e] - idx[s] + 1)) for s, e in zip(starts, ends)
    ]

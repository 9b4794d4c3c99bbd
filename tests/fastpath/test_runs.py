"""Per-run planning: closed-form advance, exact rewind of planned runs."""

from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.cluster import make_cluster, named_config
from repro.ethernet import OpFlags, max_payload_per_frame
from repro.ethernet.frame import frame_sizes
from repro.fastpath.forwarder import FlowForwarder
from repro.host.params import PER_FRAME_RECV_NS, memcpy_ns

MTU = max_payload_per_frame()


# ---------------------------------------------------------------------------
# (a) closed form == the per-frame recurrence
# ---------------------------------------------------------------------------

def _reference_frame(state, m, rail, tx_cost, wt, rx_cost):
    """One frame through the four stages, as the frame-by-frame planner
    computed it."""
    state.tx_cpu_free += tx_cost
    depart = max(
        state.tx_cpu_free + m.tx_dma_ns + m.jitter_mean_ns, state.rail_free[rail]
    ) + wt
    state.rail_free[rail] = depart
    out = max(depart + m.prop_ns + m.fwd_ns, state.sw_free[rail]) + wt
    state.sw_free[rail] = out
    visible = out + m.prop_ns + m.rx_dma_ns
    state.rx_cpu_free = max(visible + m.irq_latency_ns, state.rx_cpu_free) + rx_cost


def _timeline(fwd):
    return (fwd._tx_cpu_free, fwd._rail_free, fwd._sw_free, fwd._rx_cpu_free)


ns = st.integers(0, 200_000)


@settings(max_examples=300, deadline=None)
@given(
    model=st.builds(
        SimpleNamespace,
        tx_dma_ns=ns, jitter_mean_ns=ns, prop_ns=ns, fwd_ns=ns, rx_dma_ns=ns,
        irq_latency_ns=st.integers(0, 2_000_000),
    ),
    start=st.tuples(*[st.integers(0, 10_000_000)] * 4),
    n=st.integers(1, 2000),
    tx_cost=st.integers(0, 50_000),
    wt=st.integers(1, 50_000),
    rx_cost=st.integers(0, 50_000),
)
def test_closed_form_advance_equals_per_frame_loop(
    model, start, n, tx_cost, wt, rx_cost
):
    fwd = FlowForwarder.__new__(FlowForwarder)
    fwd.model = model
    fwd._tx_cpu_free, rail, sw, fwd._rx_cpu_free = start
    fwd._rail_free, fwd._sw_free = [rail], [sw]
    ref = SimpleNamespace(
        tx_cpu_free=start[0], rail_free=[rail], sw_free=[sw], rx_cpu_free=start[3]
    )
    fwd._advance(0, n, tx_cost, wt, rx_cost)
    for _ in range(n):
        _reference_frame(ref, model, 0, tx_cost, wt, rx_cost)
    assert _timeline(fwd) == (
        ref.tx_cpu_free, ref.rail_free, ref.sw_free, ref.rx_cpu_free
    )


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    config=st.sampled_from(["1L-1G", "1L-10G"]),
    policy=st.sampled_from(["round_robin", "adaptive"]),
    lengths=st.lists(st.integers(1, 600 * MTU), min_size=1, max_size=3),
    busy=st.tuples(*[st.integers(0, 3_000_000)] * 4),
)
def test_planned_ops_equal_per_frame_plan(config, policy, lengths, busy):
    """``_plan_new`` over real runs — including the split where the free
    TX-completion interrupts run out (1L-10G: 256 frames into the jump) —
    lands every op event where planning frame by frame does, under either
    byte-deficit policy (one rail: both take the run-length branch)."""
    cluster = make_cluster(
        config, fastpath=True, synthetic_payloads=True,
        protocol=replace(named_config(config).protocol, striping=policy),
    )
    a, _ = cluster.connect(0, 1)
    conn, fwd = a.conn, a.conn.fastpath
    m = fwd.model
    fwd._arm()
    fwd._tx_cpu_free, fwd._rail_free[0], fwd._sw_free[0], fwd._rx_cpu_free = busy
    ref = SimpleNamespace(
        tx_cpu_free=busy[0], rail_free=[busy[1]], sw_free=[busy[2]],
        rx_cpu_free=busy[3],
    )
    for length in lengths:
        conn.submit_write(0, 0, length)
    assert fwd._plan_new()

    free = conn.window.limit
    assert len(fwd._pending) == len(lengths)
    for rec, length in zip(fwd._pending, lengths):
        wire_total = copy_total = 0
        offset = 0
        while offset < length:
            plen = min(MTU, length - offset)
            wire = frame_sizes(plen)[1]
            tx_cost = m.tx_busy_ns
            if free > 0:
                tx_cost -= m.tx_irq_amortized_ns
                free -= 1
            copy_ns = memcpy_ns(plen)
            _reference_frame(
                ref, m, 0, tx_cost, m.wire_ns(wire),
                PER_FRAME_RECV_NS + copy_ns + m.irq_amortized_ns,
            )
            wire_total += wire
            copy_total += copy_ns
            offset += plen
        assert rec.t_event == max(ref.rx_cpu_free, 1)
        assert rec.n_frames == rec.op.frames_total
        assert rec.payload_bytes == length
        assert rec.memcpy_total == copy_total
        assert rec.rail_tx == {0: [rec.n_frames, wire_total]}
    assert _timeline(fwd) == (
        ref.tx_cpu_free, ref.rail_free, ref.sw_free, ref.rx_cpu_free
    )
    assert fwd._tx_irq_free_frames == free


# ---------------------------------------------------------------------------
# (b) a guard bump rewinds planned runs exactly
# ---------------------------------------------------------------------------

SIZE = 256 * 1024 + 77
NOPS = 4

# ConnectionStats fields that count what was moved, not when or how often
# it was acknowledged: equal between any two complete, loss-free runs.
TIMELESS = (
    "ops_submitted", "ops_completed", "data_frames_sent", "data_bytes_sent",
    "retransmitted_frames", "nacks_sent", "timeout_retransmits",
    "nack_retransmits", "pump_charged_ns", "data_frames_received",
    "data_bytes_received", "duplicate_frames", "notifications_delivered",
)


def _pattern():
    return bytes((i * 31 + 7) % 251 for i in range(SIZE * NOPS))


def _setup(config, fastpath):
    cluster = make_cluster(config, fastpath=fastpath)
    a, b = cluster.connect(0, 1)
    src = a.node.memory.alloc(SIZE * NOPS)
    dst = b.node.memory.alloc(SIZE * NOPS)
    a.node.memory.write(src, _pattern())
    return cluster, a, b, src, dst


def _queue_state(conn):
    return (
        conn.unsent_frames,
        [
            (r.op.op_id, r.remote_address, r.payload_len, r.count, r.offset)
            for r in conn.unsent
        ],
    )


def _striping_state(striping):
    return striping._cursor, list(striping._charged)


def _striping_after_ops(conn, n_ops):
    """Round-robin state after striping ``n_ops`` whole operations from
    scratch: what an abort must leave once that many were synthesized."""
    fresh = type(conn.striping)(conn.nics)
    for _ in range(n_ops):
        for _ in range(SIZE // MTU):
            fresh.next_rail(MTU)
        fresh.next_rail(SIZE % MTU)
    return _striping_state(fresh)


def _timeless(cluster):
    out = []
    for stack in cluster.stacks:
        for conn in stack.protocol.connections.values():
            out.append([getattr(conn.stats, name) for name in TIMELESS])
            out.append((conn.window.next_seq, conn.tracker.expected))
    return out


def _start(cluster, a, b, src, dst):
    """NOPS back-to-back writes, the last with NOTIFY."""
    handles = []

    def sender():
        for i in range(NOPS):
            flags = OpFlags.NOTIFY if i == NOPS - 1 else 0
            h = yield from a.rdma_write(
                src + i * SIZE, dst + i * SIZE, SIZE, flags=flags
            )
            handles.append(h)
        for h in handles:
            yield from h.wait()

    def receiver():
        yield from b.wait_notification()

    return handles, [cluster.sim.process(receiver()), cluster.sim.process(sender())]


def _run_until(sim, pred):
    """Advance one timestamp at a time until ``pred()`` holds."""
    while not pred():
        sim.run_until_time(sim.next_event_time())


def _finish(cluster, procs):
    for proc in procs:
        cluster.sim.run_until_done(proc, limit=10**12)


def _bump_and_check_rewind(cluster, conn):
    """A 1 ns outage loses nothing at frame level but bumps the guard."""
    fwd = conn.fastpath
    assert fwd.active and len(fwd._pending) >= 3
    before = _queue_state(conn)
    cluster.cable(0, 0).ab.fail_for(1)
    assert not fwd._pending and fwd._planned_runs == 0
    assert _queue_state(conn) == before
    assert cluster.fastpath.stats.abort_reasons == {"link-outage": 1}


def _check_outcome(cluster, plain_cluster, handles, b, dst):
    assert len(handles) == NOPS and all(h.test() for h in handles)
    assert bytes(b.node.memory.read(dst, SIZE * NOPS)) == _pattern()
    assert _timeless(cluster) == _timeless(plain_cluster)


@pytest.mark.parametrize("config", ["1L-1G", "2L-1G"])
def test_bump_after_multi_op_plan_rewinds_runs_exactly(config):
    plain = _setup(config, fastpath=False)
    _finish(plain[0], _start(*plain)[1])

    cluster, a, b, src, dst = _setup(config, fastpath=True)
    fwd = a.conn.fastpath
    stats = cluster.fastpath.stats
    handles, procs = _start(cluster, a, b, src, dst)
    # Three ops planned, the first already synthesized.
    _run_until(
        cluster.sim,
        lambda: len(fwd._pending) >= 3 and stats.ops_synthesized >= 1,
    )
    _bump_and_check_rewind(cluster, a.conn)
    assert _striping_state(a.conn.striping) == _striping_after_ops(
        a.conn, stats.ops_synthesized
    )
    _finish(cluster, procs)
    _check_outcome(cluster, plain[0], handles, b, dst)


@pytest.mark.parametrize("striping", ["round_robin", "adaptive"])
def test_abort_and_replan_charge_the_policy_once(striping):
    """2Lu-1G, eight 1 MiB writes, a 1 ns blip on an unrelated link at 3 ms.
    The abort rewinds what ``next_rail`` charged for the cancelled plan, so
    after the re-plan the deficits hold each planned byte once.  When the
    forwarder looked the state up by name it missed the adaptive policy's
    ``_charged``, which then held 16.78 MB for 8.39 MB planned."""
    size = 1 << 20
    cluster = make_cluster(
        "2Lu-1G", nodes=4, synthetic_payloads=True, fastpath=True,
        protocol=replace(named_config("2Lu-1G").protocol, striping=striping),
    )
    a, b = cluster.connect(0, 1)
    src, dst = a.node.memory.alloc(size), b.node.memory.alloc(size)

    def sender():
        handles = []
        for _ in range(8):
            handles.append((yield from a.rdma_write(src, dst, size)))
        for h in handles:
            yield from h.wait()

    cluster.sim.at(3_000_000, cluster.cable(3, 0).ab.fail_for, 1)
    cluster.sim.run_until_done(cluster.sim.process(sender()), limit=10**12)
    stats = cluster.fastpath.stats
    assert (stats.jumps, stats.abort_reasons) == (2, {"link-outage": 1})
    _cursor, deficits = a.conn.striping.snapshot()
    assert sum(deficits) == 8 * size


def _stall_mid_run(cluster, a):
    """Mask the only rail while the frame path is inside the first run,
    and wait for what is in flight to be acknowledged."""
    conn = a.conn
    _run_until(cluster.sim, lambda: conn.stats.data_frames_sent >= 100)
    conn.remove_edge(0, migrate=False)
    sent = conn.stats.data_frames_sent
    cluster.sim.run_until_time(cluster.sim.now + 2_000_000)
    head = conn.unsent[0]
    assert not conn.window.inflight
    assert 0 < head.count < SIZE // MTU and head.offset == sent * MTU
    return sent


def test_bump_after_frame_path_sent_part_of_a_run():
    plain = _setup("1L-1G", fastpath=False)
    _, plain_procs = _start(*plain)
    _stall_mid_run(plain[0], plain[1])
    plain[1].conn.add_edge(0)
    _finish(plain[0], plain_procs)

    cluster, a, b, src, dst = _setup("1L-1G", fastpath=False)
    handles, procs = _start(cluster, a, b, src, dst)
    sent = _stall_mid_run(cluster, a)
    cluster.enable_fastpath()
    conn, fwd = a.conn, a.conn.fastpath
    conn.add_edge(0)
    _run_until(cluster.sim, lambda: fwd.active)
    # The jump planned the rest of the partly sent run, and the ops behind it.
    assert len(fwd._pending) == NOPS
    assert fwd._pending[0].n_frames == handles[0]._op.frames_total - sent
    _bump_and_check_rewind(cluster, conn)
    _finish(cluster, procs)
    _check_outcome(cluster, plain[0], handles, b, dst)

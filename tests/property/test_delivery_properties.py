"""Property-based tests of end-to-end delivery invariants.

These run small randomized workloads through the *full* simulated stack
and check the invariants that must hold regardless of sizes, fault
injection, or configuration:

* every RDMA write eventually lands the exact bytes, even with bit errors,
* delivery order under in-order mode is strict,
* simulations are deterministic functions of their seed.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.cluster import make_cluster
from repro.ethernet import LinkParams


def _transfer(config, sizes, ber=0.0, seed=0):
    link = LinkParams(
        speed_bps=10e9 if config == "1L-10G" else 1e9, bit_error_rate=ber
    )
    cluster = make_cluster(config, nodes=2, seed=seed, link=link)
    a, b = cluster.connect(0, 1)
    payloads = []
    dsts = []
    for i, size in enumerate(sizes):
        src = a.node.memory.alloc(size)
        dst = b.node.memory.alloc(size)
        payload = bytes((i + j) % 256 for j in range(size))
        a.node.memory.write(src, payload)
        payloads.append((src, dst, payload))
        dsts.append(dst)

    def app():
        handles = []
        for src, dst, payload in payloads:
            h = yield from a.rdma_write(src, dst, len(payload))
            handles.append(h)
        for h in handles:
            yield from h.wait()

    proc = cluster.sim.process(app())
    cluster.sim.run_until_done(proc, limit=60_000_000_000)
    return cluster, b, payloads


transfer_sizes = st.lists(
    st.integers(1, 20_000), min_size=1, max_size=6
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(transfer_sizes, st.sampled_from(["1L-1G", "2L-1G", "2Lu-1G"]))
def test_all_writes_land_exact_bytes(sizes, config):
    _, b, payloads = _transfer(config, sizes)
    for _, dst, payload in payloads:
        assert b.node.memory.read(dst, len(payload)) == payload


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    transfer_sizes,
    st.floats(min_value=1e-8, max_value=2e-6),
    st.integers(0, 2**16),
)
def test_delivery_survives_bit_errors(sizes, ber, seed):
    _, b, payloads = _transfer("1L-1G", sizes, ber=ber, seed=seed)
    for _, dst, payload in payloads:
        assert b.node.memory.read(dst, len(payload)) == payload


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(transfer_sizes, st.integers(0, 2**16))
def test_simulation_deterministic_per_seed(sizes, seed):
    c1, _, _ = _transfer("2Lu-1G", sizes, seed=seed)
    c2, _, _ = _transfer("2Lu-1G", sizes, seed=seed)
    assert c1.sim.now == c2.sim.now
    assert c1.sim.events_processed == c2.sim.events_processed


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(st.integers(100, 8_000), min_size=2, max_size=5))
def test_in_order_mode_applies_sequentially(sizes):
    """In 2L-1G mode the receiver's apply order must equal seq order."""
    cluster = make_cluster("2L-1G", nodes=2)
    a, b = cluster.connect(0, 1)
    applied_seqs = []
    original = b.conn._apply_frame

    def spy(frame):
        applied_seqs.append(frame.header.seq)
        return original(frame)

    b.conn._apply_frame = spy
    srcs = []
    for i, size in enumerate(sizes):
        src = a.node.memory.alloc(size)
        dst = b.node.memory.alloc(size)
        a.node.memory.write(src, bytes(i % 256 for _ in range(size)))
        srcs.append((src, dst, size))

    def app():
        handles = []
        for src, dst, size in srcs:
            h = yield from a.rdma_write(src, dst, size)
            handles.append(h)
        for h in handles:
            yield from h.wait()

    proc = cluster.sim.process(app())
    cluster.sim.run_until_done(proc, limit=60_000_000_000)
    assert applied_seqs == sorted(applied_seqs)

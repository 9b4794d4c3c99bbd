"""Property-based tests on striping fairness and ordering managers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FenceDelivery, InOrderDelivery, RoundRobinStriping
from repro.ethernet import Frame, FrameType, MultiEdgeHeader, Nic, NicParams, OpFlags
from repro.sim import Simulator


def make_nics(count, ring=10_000):
    sim = Simulator()
    return [
        Nic(sim, NicParams(tx_ring_frames=ring, tx_jitter_ns=0), mac=i)
        for i in range(count)
    ]


@given(
    st.integers(2, 4),
    st.lists(st.integers(64, 1538), min_size=10, max_size=300),
)
def test_round_robin_byte_balance(rails, frame_sizes):
    """Cumulative byte skew between rails stays bounded by one max frame."""
    policy = RoundRobinStriping(make_nics(rails))
    assigned = [0] * rails
    for size in frame_sizes:
        rail = policy.next_rail(size)
        assigned[rail] += size
    skew = max(assigned) - min(assigned)
    assert skew <= max(frame_sizes) + 1538


@given(st.lists(st.just(1538), min_size=6, max_size=60))
def test_round_robin_equal_frames_pure_rotation(frames):
    """With equal-size frames the policy degenerates to plain round-robin."""
    policy = RoundRobinStriping(make_nics(3))
    rails = [policy.next_rail(s) for s in frames]
    assert rails == [i % 3 for i in range(len(frames))]


def _frame(seq, op_seq, op_len, payload_len, fenced=False):
    return Frame(
        src_mac=1,
        dst_mac=2,
        header=MultiEdgeHeader(
            frame_type=FrameType.DATA,
            flags=OpFlags.FENCE_BACKWARD if fenced else 0,
            seq=seq,
            op_id=op_seq + 100,
            op_seq=op_seq,
            op_length=op_len,
            payload_length=payload_len,
        ),
        payload=bytes(payload_len),
    )


@settings(deadline=None)
@given(st.permutations(list(range(12))))
def test_in_order_delivery_applies_in_seq_order(order):
    """Any arrival permutation applies frames in strict sequence order."""
    d = InOrderDelivery()
    applied = []
    for seq in order:
        batch, _ = d.on_frame(_frame(seq, op_seq=seq, op_len=100, payload_len=100))
        applied.extend(f.header.seq for f in batch)
    assert applied == list(range(12))
    assert d.buffered == 0


@settings(deadline=None)
@given(
    st.permutations(list(range(10))),
    st.sets(st.integers(0, 9)),
)
def test_fence_delivery_applies_everything_eventually(order, fenced_ops):
    """Every frame applies exactly once regardless of fences and order,
    and a fenced op is never applied before all its predecessors."""
    d = FenceDelivery()
    applied: list[int] = []
    for seq in order:
        batch, _ = d.on_frame(
            _frame(
                seq,
                op_seq=seq,
                op_len=100,
                payload_len=100,
                fenced=seq in fenced_ops,
            )
        )
        for f in batch:
            op_seq = f.header.op_seq
            if f.header.flags & OpFlags.FENCE_BACKWARD:
                assert all(p in applied for p in range(op_seq)), (
                    f"fenced op {op_seq} applied before predecessors"
                )
            applied.append(op_seq)
    assert sorted(applied) == list(range(10))
    assert d.buffered == 0


class _Ring:
    """A rail as a striping policy sees it: only its TX ring space."""

    def __init__(self, free):
        self.tx_ring_free = free


@settings(deadline=None)
@given(
    st.sampled_from(["round_robin", "shortest_queue", "single_rail", "adaptive"]),
    st.integers(1, 4),
    st.data(),
)
def test_control_rails_equals_successive_control_rail_calls(name, rails, data):
    """One control_rails(n) gives the per-rail counts and leaves the cursor
    that n back-to-back control_rail() calls would, rings held fixed."""
    import repro.control  # noqa: F401  (registers "adaptive")
    from repro.core.striping import make_striping_policy

    free = data.draw(st.lists(st.sampled_from([0, 1, 8]), min_size=rails,
                              max_size=rails))
    masked = data.draw(st.sets(st.integers(0, rails - 1)))
    cursor = data.draw(st.integers(0, rails - 1))
    count = data.draw(st.integers(0, 200))

    def policy():
        p = make_striping_policy(name, [_Ring(f) for f in free])
        for rail in masked:
            p.disable_rail(rail)
        p._control_cursor = cursor
        return p

    one_by_one, batched = policy(), policy()
    expected: dict[int, int] = {}
    for _ in range(count):
        rail = one_by_one.control_rail()
        if rail is not None:
            expected[rail] = expected.get(rail, 0) + 1
    assert batched.control_rails(count) == expected
    assert batched._control_cursor == one_by_one._control_cursor

"""Property-based tests on striping fairness and ordering managers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AdaptiveStriping,
    FenceDelivery,
    InOrderDelivery,
    RoundRobinStriping,
    StripingPolicy,
    make_striping_policy,
)
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


# ---------------------------------------------------------------------------
# One byte-deficit walk == the two walks it replaced
# ---------------------------------------------------------------------------


class _RefRoundRobin(StripingPolicy):
    """Round-robin as it was kept before the merge: integer byte counters."""

    def __init__(self, nics):
        super().__init__(nics)
        self._cursor = 0
        self._assigned = [0] * len(nics)

    def enable_rail(self, rail):
        super().enable_rail(rail)
        others = [
            b for r, b in enumerate(self._assigned)
            if r != rail and r not in self.masked
        ]
        if others:
            self._assigned[rail] = max(self._assigned[rail], min(others))

    def snapshot(self):
        return self._cursor, list(self._assigned)

    def restore(self, saved):
        self._cursor, self._assigned = saved[0], list(saved[1])

    def next_rail(self, wire_bytes=0):
        nics, masked, n = self.nics, self.masked, len(self.nics)
        if n == 1 and not masked:
            return 0 if nics[0].tx_ring_free > 0 else None
        best = best_key = None
        for probe in range(n):
            rail = (self._cursor + probe) % n
            if rail in masked or nics[rail].tx_ring_free <= 0:
                continue
            key = (self._assigned[rail], probe)
            if best_key is None or key < best_key:
                best, best_key = rail, key
        if best is None:
            return None
        self._assigned[best] += wire_bytes
        self._cursor = (best + 1) % n
        low = min(self._assigned)
        if low > 1 << 30:
            self._assigned = [b - low for b in self._assigned]
        return best


class _RefAdaptive(_RefRoundRobin):
    """The health-weighted copy of the walk as it was kept before the
    merge: float charges, a score list, and no one-rail shortcut."""

    def __init__(self, nics):
        super().__init__(nics)
        self._assigned = [0.0] * len(nics)
        self._scores = [1.0] * len(nics)

    def set_score(self, rail, score):
        self._scores[rail] = max(0.0, min(1.0, score))

    def next_rail(self, wire_bytes=0):
        nics, masked, n = self.nics, self.masked, len(self.nics)
        best = best_key = None
        for probe in range(n):
            rail = (self._cursor + probe) % n
            if rail in masked or nics[rail].tx_ring_free <= 0:
                continue
            if self._scores[rail] < 0.05:
                continue
            key = (self._assigned[rail], probe)
            if best_key is None or key < best_key:
                best, best_key = rail, key
        if best is None:
            return None
        self._assigned[best] += wire_bytes / max(self._scores[best], 0.05)
        self._cursor = (best + 1) % n
        low = min(self._assigned)
        if low > float(1 << 30):
            self._assigned = [b - low for b in self._assigned]
        return best


_STEP = st.one_of(
    st.tuples(st.just("send"), st.integers(64, 1538)),
    st.tuples(st.just("ring"), st.integers(0, 3), st.sampled_from([0, 1, 8])),
    st.tuples(st.just("disable"), st.integers(0, 3)),
    st.tuples(st.just("enable"), st.integers(0, 3)),
    st.tuples(
        st.just("score"), st.integers(0, 3),
        st.one_of(
            st.floats(-0.5, 1.5, allow_nan=False),
            st.sampled_from([0.0, 0.049, 0.05, 0.3, 1.0]),
        ),
    ),
)


@settings(deadline=None, max_examples=300)
@given(
    st.sampled_from([(RoundRobinStriping, _RefRoundRobin),
                     (AdaptiveStriping, _RefAdaptive)]),
    st.integers(1, 4),
    st.sampled_from([0, (1 << 30) - 3_000]),
    st.lists(_STEP, min_size=30, max_size=200),
)
def test_merged_walk_equals_the_walks_it_replaced(classes, rails, base, steps):
    """Same rail choices and same deficits after every step, from zero and
    from just below the renormalisation threshold.  (One-rail adaptive
    used to advance a counter nothing compared against; its choices are
    compared, its deficits are not.)"""
    merged_cls, ref_cls = classes
    rings = [_Ring(8) for _ in range(rails)]
    merged, ref = merged_cls(rings), ref_cls(rings)
    merged.restore((0, [float(base)] * rails))
    ref.restore((0, [base] * rails))
    deficits_observable = rails > 1 or merged_cls is RoundRobinStriping
    for step in steps:
        kind, arg, *value = step
        if kind == "send":
            assert merged.next_rail(arg) == ref.next_rail(arg)
            continue
        rail = arg % rails
        if kind == "ring":
            rings[rail].tx_ring_free = value[0]
        elif kind == "disable":
            merged.disable_rail(rail)
            ref.disable_rail(rail)
        elif kind == "enable":
            merged.enable_rail(rail)
            ref.enable_rail(rail)
        else:
            merged.set_score(rail, value[0])
            ref.set_score(rail, value[0])
        if deficits_observable:
            assert merged.snapshot() == ref.snapshot()


def test_one_rail_adaptive_follows_its_score():
    policy = make_striping_policy("adaptive", [_Ring(8)])
    policy.set_score(0, 0.01)
    assert policy.next_rail(1500) is None
    policy.set_score(0, 1.0)
    assert policy.next_rail(1500) == 0

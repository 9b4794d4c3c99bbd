"""Property-based tests on protocol data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ReceiveTracker, SendWindow
from repro.core.messages import (
    decode_scatter_records,
    encode_scatter_records,
)
from repro.dsm.runtime import _diff_runs
from repro.ethernet import MULTIEDGE_HEADER_BYTES, FrameType, MultiEdgeHeader

PAGE = 4096


# ---------------------------------------------------------------------------
# Header codec
# ---------------------------------------------------------------------------

header_strategy = st.builds(
    MultiEdgeHeader,
    frame_type=st.sampled_from(list(FrameType)),
    flags=st.integers(0, 255),
    connection_id=st.integers(0, 2**16 - 1),
    seq=st.integers(0, 2**32 - 1),
    ack=st.integers(0, 2**32 - 1),
    op_id=st.integers(0, 2**32 - 1),
    op_seq=st.integers(0, 2**32 - 1),
    remote_address=st.integers(0, 2**64 - 1),
    op_length=st.integers(0, 2**32 - 1),
    payload_length=st.integers(0, 1464),
)


@given(header_strategy)
def test_header_roundtrip_property(header):
    wire = header.encode()
    assert len(wire) == MULTIEDGE_HEADER_BYTES
    assert MultiEdgeHeader.decode(wire) == header


# ---------------------------------------------------------------------------
# Receive tracker: arbitrary arrival orders
# ---------------------------------------------------------------------------

@given(st.permutations(list(range(40))))
def test_tracker_absorbs_any_permutation(order):
    t = ReceiveTracker()
    for seq in order:
        is_new, _ = t.on_frame(seq)
        assert is_new
    assert t.cum_ack == 40
    assert not t.has_gap()
    assert t.missing() == []


@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=120),
)
def test_tracker_duplicates_never_advance_past_max(seqs):
    t = ReceiveTracker()
    seen = set()
    for seq in seqs:
        is_new, _ = t.on_frame(seq)
        assert is_new == (seq not in seen)
        seen.add(seq)
        # cum_ack is exactly the length of the contiguous prefix received.
        expected = 0
        while expected in seen:
            expected += 1
        assert t.cum_ack == expected


@given(st.sets(st.integers(0, 60), min_size=1, max_size=40))
def test_tracker_missing_is_exact_complement(seqs):
    t = ReceiveTracker()
    for seq in sorted(seqs):
        t.on_frame(seq)
    top = max(seqs)
    expected_missing = [
        s for s in range(t.expected, top) if s not in seqs
    ]
    assert t.missing(limit=1000) == expected_missing


# ---------------------------------------------------------------------------
# Send window: conservation of frames
# ---------------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(0, 64)),
        min_size=1,
        max_size=200,
    )
)
def test_window_conservation(ops):
    """Frames are either in flight or freed, never both, never lost."""
    from repro.ethernet import Frame

    w = SendWindow(32)
    freed_total = 0
    sent_total = 0
    for is_send, ack_to in ops:
        if is_send and w.can_send:
            seq = w.allocate_seq()
            frame = Frame(
                src_mac=0, dst_mac=1, header=MultiEdgeHeader(seq=seq)
            )
            w.register(frame, op=None, now=0)
            sent_total += 1
        else:
            freed = w.on_ack(ack_to)
            freed_total += len(freed)
            # Every freed frame has seq < ack value.
            assert all(r.frame.header.seq < ack_to for r in freed)
        assert w.in_flight_count + freed_total == sent_total
        assert 0 <= w.in_flight_count <= 32


# ---------------------------------------------------------------------------
# Diff runs: exactness on random pages
# ---------------------------------------------------------------------------

@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, PAGE),
)
def test_diff_runs_exact_cover(seed, nflips):
    rng = np.random.default_rng(seed)
    twin = rng.integers(0, 256, PAGE, dtype=np.uint8)
    cur = twin.copy()
    if nflips:
        idx = rng.choice(PAGE, size=min(nflips, PAGE), replace=False)
        cur[idx] ^= np.uint8(0xFF)
    runs = _diff_runs(twin, cur)
    covered = np.zeros(PAGE, dtype=bool)
    for start, length in runs:
        assert length > 0
        assert 0 <= start and start + length <= PAGE
        assert not covered[start : start + length].any(), "overlapping runs"
        covered[start : start + length] = True
    # Exactness both ways: every changed byte covered, no unchanged byte.
    assert np.array_equal(covered, twin != cur)


# ---------------------------------------------------------------------------
# Scatter record codec
# ---------------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(
            st.integers(0, 2**48),
            st.binary(min_size=1, max_size=200),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_scatter_records_roundtrip(segments):
    wire = encode_scatter_records(segments)
    assert decode_scatter_records(wire) == segments

"""Unit tests for delivery ordering and fence semantics."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FenceDelivery, InOrderDelivery
from repro.ethernet import Frame, FrameType, MultiEdgeHeader, OpFlags


def frame(seq, op_id=1, op_seq=0, flags=0, length=100, op_length=100,
          ftype=FrameType.DATA):
    header = MultiEdgeHeader(
        frame_type=ftype,
        flags=flags,
        seq=seq,
        op_id=op_id,
        op_seq=op_seq,
        op_length=op_length,
        payload_length=length,
    )
    return Frame(src_mac=1, dst_mac=2, header=header,
                 payload=bytes(length) if ftype == FrameType.DATA else None)


class TestInOrderDelivery:
    def test_in_order_applies_immediately(self):
        d = InOrderDelivery()
        apply_now, done = d.on_frame(frame(0))
        assert [f.header.seq for f in apply_now] == [0]
        assert len(done) == 1  # single-frame op completes

    def test_out_of_order_buffers_until_gap_fills(self):
        d = InOrderDelivery()
        a1, _ = d.on_frame(frame(1, op_length=200))
        assert a1 == [] and d.buffered == 1
        a0, done = d.on_frame(frame(0, op_length=200))
        assert [f.header.seq for f in a0] == [0, 1]
        assert d.buffered == 0
        assert len(done) == 1

    def test_long_reorder_chain(self):
        d = InOrderDelivery()
        applied = []
        for seq in [4, 3, 2, 1, 0]:
            batch, _ = d.on_frame(frame(seq, op_length=500))
            applied.extend(f.header.seq for f in batch)
        assert applied == [0, 1, 2, 3, 4]

    def test_multi_op_completion_order(self):
        d = InOrderDelivery()
        # op 0: seqs 0-1; op 1: seqs 2-3.  Deliver op 1 frames first.
        d.on_frame(frame(2, op_id=10, op_seq=1, op_length=200))
        d.on_frame(frame(3, op_id=10, op_seq=1, op_length=200))
        assert d.watermark == 0
        _, done0 = d.on_frame(frame(0, op_id=9, op_seq=0, op_length=200))
        batch, done1 = d.on_frame(frame(1, op_id=9, op_seq=0, op_length=200))
        done_ids = [op.op_id for op in done0 + done1]
        assert done_ids == [9, 10]
        assert d.watermark == 2


class TestFenceDelivery:
    def test_unfenced_applies_on_arrival(self):
        d = FenceDelivery()
        batch, done = d.on_frame(frame(5, op_seq=3))
        assert [f.header.seq for f in batch] == [5]
        assert len(done) == 1

    def test_backward_fence_blocks_until_predecessors_done(self):
        d = FenceDelivery()
        # Op 1 carries a backward fence; op 0 hasn't arrived yet.
        fenced = frame(1, op_id=11, op_seq=1, flags=OpFlags.FENCE_BACKWARD)
        batch, _ = d.on_frame(fenced)
        assert batch == [] and d.buffered == 1
        # Op 0 arrives and completes -> fence lifts, both apply.
        batch, done = d.on_frame(frame(0, op_id=10, op_seq=0))
        assert [f.header.op_seq for f in batch] == [0, 1]
        assert [op.op_id for op in done] == [10, 11]
        assert d.buffered == 0

    def test_backward_fence_with_multiframe_predecessor(self):
        d = FenceDelivery()
        fenced = frame(9, op_id=11, op_seq=1, flags=OpFlags.FENCE_BACKWARD)
        assert d.on_frame(fenced)[0] == []
        # First half of op 0: fence must still hold.
        batch, _ = d.on_frame(frame(0, op_id=10, op_seq=0, op_length=200))
        assert [f.header.op_seq for f in batch] == [0]
        assert d.buffered == 1
        # Second half completes op 0 -> fenced frame applies.
        batch, done = d.on_frame(frame(1, op_id=10, op_seq=0, op_length=200))
        assert [f.header.op_seq for f in batch] == [0, 1]
        assert len(done) == 2

    def test_fence_chain(self):
        d = FenceDelivery()
        f1 = frame(1, op_id=11, op_seq=1, flags=OpFlags.FENCE_BACKWARD)
        f2 = frame(2, op_id=12, op_seq=2, flags=OpFlags.FENCE_BACKWARD)
        assert d.on_frame(f2)[0] == []
        assert d.on_frame(f1)[0] == []
        batch, done = d.on_frame(frame(0, op_id=10, op_seq=0))
        assert [f.header.op_seq for f in batch] == [0, 1, 2]
        assert [op.op_seq for op in done] == [0, 1, 2]

    def test_unfenced_overtakes_unfinished_earlier_op(self):
        """Default behaviour: no ordering unless requested (paper §2.5)."""
        d = FenceDelivery()
        batch, done = d.on_frame(frame(7, op_id=20, op_seq=5))
        assert len(batch) == 1 and len(done) == 1
        assert d.watermark == 0  # earlier ops unseen; that's fine

    def test_read_request_completes_on_apply(self):
        d = FenceDelivery()
        req = frame(0, op_id=30, op_seq=0, length=0, op_length=4096,
                    ftype=FrameType.READ_REQ)
        batch, done = d.on_frame(req)
        assert len(batch) == 1
        assert len(done) == 1 and done[0].is_read_request


class TestRetirement:
    """Receive-op state is dropped as the watermark passes it."""

    @pytest.mark.parametrize("cls", [InOrderDelivery, FenceDelivery])
    def test_completed_op_at_the_watermark_is_retired(self, cls):
        d = cls()
        _, done = d.on_frame(frame(0, op_id=7, op_seq=0))
        assert [op.op_id for op in done] == [7] and done[0].complete
        assert d.ops == {} and d.watermark == 1
        assert d.bytes_applied == 100 and d.retired_overrun == 0

    def test_partial_op_stays_until_its_last_frame(self):
        d = InOrderDelivery()
        d.on_frame(frame(0, op_length=200))
        assert list(d.ops) == [0] and d.bytes_applied == 100
        d.on_frame(frame(1, op_length=200))
        assert d.ops == {} and d.bytes_applied == 200

    def test_out_of_order_completion_is_kept_until_the_gap_closes(self):
        d = FenceDelivery()
        _, done = d.on_frame(frame(2, op_id=12, op_seq=2))
        assert len(done) == 1
        d.on_frame(frame(1, op_id=11, op_seq=1))
        assert sorted(d.ops) == [1, 2] and d.watermark == 0
        d.on_frame(frame(0, op_id=10, op_seq=0))
        assert d.ops == {} and d.watermark == 3

    def test_read_request_is_retired_without_counting_as_overrun(self):
        d = FenceDelivery()
        req = frame(0, op_id=30, op_seq=0, length=0, op_length=4096,
                    ftype=FrameType.READ_REQ)
        _, done = d.on_frame(req)
        assert done[0].is_read_request
        assert d.ops == {} and d.watermark == 1 and d.retired_overrun == 0

    def test_overrun_of_a_retired_op_is_still_visible(self):
        d = FenceDelivery()
        d.on_frame(frame(0, length=150, op_length=100))
        assert d.ops == {} and d.retired_overrun == 50


def _write(op_id, op_seq, flags, length):
    """What ``OrderingManager.apply_run`` reads of a sender-side operation."""
    return SimpleNamespace(op_id=op_id, op_seq=op_seq, flags=flags, length=length)


class TestApplyRun:
    """The fast-forward path's entry: whole runs instead of frames."""

    def test_runs_complete_and_retire_the_op(self):
        d = FenceDelivery()
        w = _write(op_id=5, op_seq=0, flags=int(OpFlags.NOTIFY), length=3000)
        assert d.apply_run(w, 0x2000, 1, 1000) is None
        assert list(d.ops) == [0]
        rx = d.apply_run(w, 0x1000, 2, 2000)
        assert rx.complete and rx.base_address == 0x1000
        assert rx.op_id == 5 and rx.length == 3000 and rx.wants_notification()
        assert d.ops == {} and d.watermark == 1 and d.bytes_applied == 3000

    def test_in_order_mode_also_advances_its_apply_cursor(self):
        d = InOrderDelivery()
        assert d.apply_run(_write(5, 0, 0, 300), 0, 3, 300) is not None
        # Frame-level delivery resumes at seq 3, not 0.
        batch, done = d.on_frame(frame(3, op_id=6, op_seq=1))
        assert [f.header.seq for f in batch] == [3] and len(done) == 1
        assert d.watermark == 2


# -- pruned manager == the manager that keeps every op ----------------------


def _keep_everything(cls):
    class Unpruned(cls):
        def _advance_watermark(self):
            while True:
                op = self.ops.get(self.watermark)
                if op is None or not op.complete:
                    return
                self.watermark += 1

    return Unpruned


@st.composite
def _frame_orders(draw):
    """Frames of a few operations, each seq once, in an arbitrary order."""
    frames = []
    seq = 0
    for op_seq in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 5)) == 0:
            frames.append(dict(seq=seq, op_id=op_seq + 50, op_seq=op_seq, length=0,
                               op_length=512, ftype=FrameType.READ_REQ))
            seq += 1
            continue
        flags = draw(st.sampled_from([0, int(OpFlags.FENCE_BACKWARD)]))
        sizes = draw(st.lists(st.integers(1, 1400), min_size=1, max_size=4))
        for size in sizes:
            frames.append(dict(seq=seq, op_id=op_seq + 50, op_seq=op_seq,
                               flags=flags, length=size, op_length=sum(sizes)))
            seq += 1
    return [frame(**kw) for kw in draw(st.permutations(frames))]


@settings(max_examples=200, deadline=None)
@given(_frame_orders(), st.sampled_from([InOrderDelivery, FenceDelivery]))
def test_retiring_ops_changes_nothing_the_caller_sees(frames, cls):
    pruned, reference = cls(), _keep_everything(cls)()
    for f in frames:
        apply_p, done_p = pruned.on_frame(f)
        apply_r, done_r = reference.on_frame(f)
        assert [x.header.seq for x in apply_p] == [x.header.seq for x in apply_r]
        assert [
            (op.op_seq, op.op_id, op.bytes_applied, op.base_address, op.complete)
            for op in done_p
        ] == [
            (op.op_seq, op.op_id, op.bytes_applied, op.base_address, op.complete)
            for op in done_r
        ]
        assert pruned.watermark == reference.watermark
        assert pruned.buffered == reference.buffered
        # Exactly the ops at or beyond the watermark are still held ...
        assert sorted(pruned.ops) == sorted(
            k for k in reference.ops if k >= reference.watermark
        )
        # ... and the running total is what summing every op used to give.
        assert pruned.bytes_applied == sum(
            op.bytes_applied for op in reference.ops.values()
        )
    assert pruned.ops == {} and pruned.retired_overrun == 0
    assert pruned.watermark == len(reference.ops)

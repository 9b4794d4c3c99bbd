"""Unit tests for DSM message encoding and sync state machines."""

import pytest

from repro.dsm import (
    BarrierManagerState,
    LockManagerState,
    Message,
    MsgType,
    decode_notices,
    encode_notices,
)
from repro.dsm.messages import MSG_SLOT_BYTES


def test_message_roundtrip():
    m = Message(MsgType.LOCK_GRANT, src=3, a=17, b=5, c=99, d=1)
    out = Message.decode(m.encode())
    assert out == m


def test_message_is_slot_sized():
    assert len(Message(MsgType.LOCK_REQ, 0).encode()) == MSG_SLOT_BYTES


def test_all_message_types_roundtrip():
    for t in MsgType:
        assert Message.decode(Message(t, 1).encode()).msg_type == t


def test_notices_roundtrip():
    notices = [(1, 5), (2, 100), (1, 0)]
    blob = encode_notices(notices)
    assert len(blob) == 24
    assert decode_notices(blob, 3) == notices


def test_notices_empty():
    assert encode_notices([]) == b""
    assert decode_notices(b"", 0) == []


class TestLockManager:
    def test_grant_when_free(self):
        s = LockManagerState(0)
        assert s.request(2) == 2
        assert s.holder == 2

    def test_queue_when_held(self):
        s = LockManagerState(0)
        s.request(1)
        assert s.request(2) is None
        assert s.request(3) is None
        assert list(s.waiting) == [2, 3]

    def test_release_grants_fifo(self):
        s = LockManagerState(0)
        s.request(1)
        s.request(2)
        s.request(3)
        assert s.release(1, [], 4) == 2
        assert s.release(2, [], 4) == 3
        assert s.release(3, [], 4) is None
        assert s.holder is None

    def test_release_by_non_holder_raises(self):
        s = LockManagerState(0)
        s.request(1)
        with pytest.raises(RuntimeError):
            s.release(2, [], 4)

    def test_notices_propagate_to_others_not_writer(self):
        s = LockManagerState(0)
        s.request(1)
        s.release(1, [(1, 7)], 3)
        assert s.take_pending(0) == [(1, 7)]
        assert s.take_pending(2) == [(1, 7)]
        assert s.take_pending(1) == []

    def test_pending_accumulates_and_clears(self):
        s = LockManagerState(0)
        s.request(1)
        s.release(1, [(1, 7)], 3)
        s.request(1)
        s.release(1, [(1, 8)], 3)
        assert s.take_pending(2) == [(1, 7), (1, 8)]
        assert s.take_pending(2) == []

    def test_partial_chunks_merge(self):
        s = LockManagerState(0)
        s.request(1)
        s.add_partial([(1, 1)])
        s.add_partial([(1, 2)])
        s.release(1, [(1, 3)], 2)
        assert s.take_pending(0) == [(1, 1), (1, 2), (1, 3)]


class TestBarrierManager:
    def test_waits_for_all(self):
        s = BarrierManagerState(0)
        assert s.arrive(0, [], 3) is None
        assert s.arrive(1, [], 3) is None
        releases = s.arrive(2, [], 3)
        assert set(releases) == {0, 1, 2}
        assert s.epoch == 1

    def test_notices_exclude_own(self):
        s = BarrierManagerState(0)
        s.arrive(0, [(1, 10)], 2)
        releases = s.arrive(1, [(1, 20)], 2)
        assert releases[0] == [(1, 20)]
        assert releases[1] == [(1, 10)]

    def test_double_arrival_raises(self):
        s = BarrierManagerState(0)
        s.arrive(0, [], 3)
        with pytest.raises(RuntimeError):
            s.arrive(0, [], 3)

    def test_reusable_across_epochs(self):
        s = BarrierManagerState(0)
        for epoch in range(3):
            for node in range(2):
                res = s.arrive(node, [], 2)
            assert res is not None
            assert s.epoch == epoch + 1

    def test_partial_chunks(self):
        s = BarrierManagerState(0)
        s.add_partial(0, [(1, 1)])
        s.arrive(0, [(1, 2)], 2)
        releases = s.arrive(1, [], 2)
        assert releases[1] == [(1, 1), (1, 2)]

"""Unit tests for the virtual memory model."""

import os

import numpy as np
import pytest

from repro.host import MemoryFault, VirtualMemory


def test_alloc_returns_distinct_addresses():
    vm = VirtualMemory()
    a = vm.alloc(100)
    b = vm.alloc(100)
    assert a != b
    assert b >= a + 100


def test_write_read_roundtrip():
    vm = VirtualMemory()
    addr = vm.alloc(64)
    vm.write(addr, b"hello world")
    assert vm.read(addr, 11) == b"hello world"


def test_write_read_at_offset():
    vm = VirtualMemory()
    addr = vm.alloc(1000)
    vm.write(addr + 500, b"xyz")
    assert vm.read(addr + 500, 3) == b"xyz"
    assert vm.read(addr, 3) == b"\x00\x00\x00"


def test_alloc_zero_rejected():
    vm = VirtualMemory()
    with pytest.raises(ValueError):
        vm.alloc(0)


def test_read_unmapped_faults():
    vm = VirtualMemory()
    vm.alloc(10)
    with pytest.raises(MemoryFault):
        vm.read(0x10, 4)


def test_access_past_end_faults():
    vm = VirtualMemory()
    addr = vm.alloc(10)
    with pytest.raises(MemoryFault):
        vm.read(addr + 8, 4)
    with pytest.raises(MemoryFault):
        vm.write(addr + 8, b"abcd")


def test_guard_gap_between_allocations():
    vm = VirtualMemory()
    a = vm.alloc(10)
    vm.alloc(10)
    # One byte past allocation `a` must fault, not hit the next buffer.
    with pytest.raises(MemoryFault):
        vm.read(a + 10, 1)


def test_view_is_zero_copy():
    vm = VirtualMemory()
    addr = vm.alloc(16)
    view = vm.view(addr, 16)
    view[0] = 0xAB
    assert vm.read(addr, 1) == b"\xab"


def test_ndarray_typed_view():
    vm = VirtualMemory()
    addr = vm.alloc(8 * 10)
    arr = vm.ndarray(addr, (10,), np.float64)
    arr[:] = np.arange(10.0)
    again = vm.ndarray(addr, (10,), np.float64)
    assert np.array_equal(again, np.arange(10.0))


def test_write_accepts_numpy_array():
    vm = VirtualMemory()
    addr = vm.alloc(4)
    vm.write(addr, np.array([1, 2, 3, 4], dtype=np.uint8))
    assert vm.read(addr, 4) == b"\x01\x02\x03\x04"


def test_allocated_bytes():
    vm = VirtualMemory()
    vm.alloc(100)
    vm.alloc(50)
    assert vm.allocated_bytes == 150


def test_many_allocations_lookup():
    vm = VirtualMemory()
    addrs = [vm.alloc(32) for _ in range(200)]
    for i, addr in enumerate(addrs):
        vm.write(addr, bytes([i % 256] * 4))
    for i, addr in enumerate(addrs):
        assert vm.read(addr, 4) == bytes([i % 256] * 4)


# -- demand-zero backing ---------------------------------------------------


def test_alloc_reserves_without_backing():
    vm = VirtualMemory()
    vm.alloc(1 << 20)
    vm.alloc(100)
    assert vm.allocated_bytes == (1 << 20) + 100
    assert vm.resident_bytes == 0
    assert vm.region_count == 2


def test_unbacked_read_is_zeros_and_backs_nothing():
    vm = VirtualMemory()
    addr = vm.alloc(4096)
    assert vm.read(addr, 4096) == bytes(4096)
    assert vm.read(addr + 100, 8) == bytes(8)
    assert vm.resident_bytes == 0


@pytest.mark.parametrize(
    "touch",
    [
        lambda vm, a: vm.write(a + 10, b"x"),
        lambda vm, a: vm.view(a, 4),
        lambda vm, a: vm.ndarray(a, (2,), np.float64),
    ],
    ids=["write", "view", "ndarray"],
)
def test_touch_backs_exactly_that_allocation(touch):
    vm = VirtualMemory()
    before = vm.alloc(1000)
    addr = vm.alloc(300)
    after = vm.alloc(2000)
    touch(vm, addr)
    assert vm.resident_bytes == 300
    assert vm.allocated_bytes == 3300
    # The neighbours still read as zeros and stay unbacked.
    assert vm.read(before, 1000) == bytes(1000)
    assert vm.read(after, 2000) == bytes(2000)
    assert vm.resident_bytes == 300


def test_views_of_one_allocation_share_its_buffer():
    vm = VirtualMemory()
    addr = vm.alloc(64)
    first = vm.view(addr, 64)
    vm.write(addr + 8, b"\x07")
    second = vm.view(addr + 8, 8)
    assert first[8] == 7
    second[0] = 9
    assert first[8] == 9 and vm.read(addr + 8, 1) == b"\x09"
    assert vm.resident_bytes == 64


@pytest.mark.parametrize("backed", [False, True], ids=["unbacked", "backed"])
def test_faults_and_guard_gap_do_not_depend_on_backing(backed):
    vm = VirtualMemory()
    a = vm.alloc(10)
    b = vm.alloc(10)
    if backed:
        vm.write(a, b"\x01")
        vm.write(b, b"\x01")
    for access in (
        lambda: vm.read(a + 10, 1),  # first guard byte
        lambda: vm.read(b - 1, 1),  # last guard byte
        lambda: vm.read(a + 8, 4),  # runs off the end
        lambda: vm.write(a + 8, b"abcd"),
        lambda: vm.view(a + 8, 4),
        lambda: vm.read(a - 1, 1),  # below the first allocation
        lambda: vm.read(b + 10 + 4096, 1),  # beyond the last one
        lambda: vm.read(a, -1),
    ):
        with pytest.raises(MemoryFault):
            access()
    assert vm.resident_bytes == (20 if backed else 0)


@pytest.mark.parametrize("size", [-1, -4096])
def test_alloc_rejects_non_positive_size_at_alloc(size):
    vm = VirtualMemory()
    with pytest.raises(ValueError):
        vm.alloc(size)
    assert vm.region_count == 0


@pytest.mark.parametrize("size", [2.5, 8.0, "8", None])
def test_alloc_rejects_non_int_size_at_alloc(size):
    vm = VirtualMemory()
    with pytest.raises(TypeError):
        vm.alloc(size)
    assert vm.region_count == 0


def test_alloc_accepts_numpy_integer_size():
    vm = VirtualMemory()
    addr = vm.alloc(np.int64(16))
    vm.write(addr + 15, b"\x01")
    assert vm.allocated_bytes == 16 and isinstance(vm.allocated_bytes, int)


def test_write_stores_the_bytes_of_a_non_uint8_array():
    vm = VirtualMemory()
    values = np.array([1.5, 2.5])
    addr = vm.alloc(values.nbytes)
    vm.write(addr, values)
    assert vm.read(addr, values.nbytes) == values.tobytes()
    assert np.array_equal(vm.ndarray(addr, (2,), np.float64), values)


def test_write_of_a_wide_array_is_bounds_checked_in_bytes():
    vm = VirtualMemory()
    addr = vm.alloc(8)
    with pytest.raises(MemoryFault):
        vm.write(addr, np.arange(2, dtype=np.int64))  # 16 bytes into 8


def test_write_flattens_non_contiguous_arrays():
    vm = VirtualMemory()
    grid = np.arange(16, dtype=np.uint16).reshape(4, 4)[:, ::2]
    addr = vm.alloc(grid.nbytes)
    vm.write(addr, grid)
    assert vm.read(addr, grid.nbytes) == np.ascontiguousarray(grid).tobytes()


def _resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="reads the process's resident size from /proc")
def test_sparse_touch_of_a_large_allocation_stays_sparse_on_a_used_heap():
    # What a second run in one process sees: glibc has learnt to keep
    # chunks of this size on its heap and has a freed, never-written one to
    # recycle, which calloc would zero-fill byte by byte.
    size = 8 << 20
    np.ones(2 * size, dtype=np.uint8)  # freed at once: raises the mmap threshold
    hole = np.zeros(size, dtype=np.uint8)
    pin = np.ones(1 << 20, dtype=np.uint8)  # keeps the hole off the heap top
    del hole
    vm = VirtualMemory()
    addr = vm.alloc(size)
    before = _resident_bytes()
    vm.write(addr + 12345, b"x")
    assert _resident_bytes() - before < size // 8
    assert vm.read(addr + 12344, 3) == b"\x00x\x00" and pin[0] == 1


def test_large_allocation_is_private_to_a_forked_child():
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    vm = VirtualMemory()
    addr = vm.alloc(VirtualMemory._MAP_MIN)
    vm.write(addr, b"\x07")
    pid = os.fork()
    if pid == 0:
        vm.write(addr, b"\x09")
        os._exit(0)
    os.waitpid(pid, 0)
    assert vm.read(addr, 1) == b"\x07"

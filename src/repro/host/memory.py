"""Per-node virtual memory.

RDMA operations in MultiEdge address the *virtual address space* of the
remote process (paper §2.2: receive buffers need not be pre-registered; data
is copied directly into the receiver's address space).  This module gives
each node a real byte-addressable store so the reproduction moves actual
data: the DSM and the applications depend on RDMA writes landing the right
bytes at the right addresses.

Allocations come from a bump allocator; reads and writes may span any range
inside a single allocation (cross-allocation accesses are a programming
error and raise).

Backing is **demand-zero**: ``alloc`` only reserves an address range, and
an allocation gets its zero-filled numpy buffer — whole, so views stay
contiguous — the first time it is written or viewed.  Reading a range
that was never backed returns zeros without backing it, so the host
memory a simulation holds follows what it touched, not what it reserved.

Large allocations are backed by an anonymous private map, not ``np.zeros``:
``calloc`` is demand-zero only for a fresh chunk and zero-fills a recycled
one whole, and whether glibc recycles depends on what else is on the heap —
one run's peak RSS moved 10 MB between processes (DESIGN.md, "Node memory").
"""

from __future__ import annotations

import bisect
import mmap
import operator
from typing import Optional

import numpy as np

__all__ = ["VirtualMemory", "MemoryFault"]


class MemoryFault(Exception):
    """Access outside any allocation (the simulated SIGSEGV)."""


class VirtualMemory:
    """A sparse virtual address space backed by numpy byte buffers."""

    # Leave a guard gap between allocations so off-by-one bugs fault
    # instead of silently touching a neighbouring buffer.
    _GUARD = 4096
    # Allocations this large get a map of their own; below it a recycled,
    # zero-filled chunk costs less than rounding up to pages would.
    _MAP_MIN = 64 * 1024

    def __init__(self, base: int = 0x1000_0000) -> None:
        self._next = base
        # Parallel per-allocation lists, ascending by address.
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._bufs: list[Optional[np.ndarray]] = []  # None until first touched
        self._reserved = 0
        self._resident = 0

    def alloc(self, size: int) -> int:
        """Reserve ``size`` bytes; returns the virtual base address."""
        size = operator.index(size)  # TypeError for a float, str, None
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        addr = self._next
        self._starts.append(addr)
        self._ends.append(addr + size)
        self._bufs.append(None)
        self._reserved += size
        self._next = addr + size + self._GUARD
        return addr

    def _find(self, addr: int, size: int) -> int:
        """Index of the allocation containing ``[addr, addr + size)``."""
        i = bisect.bisect_right(self._starts, addr) - 1
        if i >= 0 and 0 <= size and addr + size <= self._ends[i]:
            return i
        raise MemoryFault(
            f"access [{addr:#x}, {addr + size:#x}) outside any allocation"
        )

    def _back(self, i: int) -> np.ndarray:
        """First touch of allocation ``i``: give it its zero-filled buffer."""
        size = self._ends[i] - self._starts[i]
        if size >= self._MAP_MIN:
            # ACCESS_COPY of no file: MAP_PRIVATE | MAP_ANONYMOUS, so a
            # process forked from this one writes to its own copy.
            pages = mmap.mmap(-1, size, access=mmap.ACCESS_COPY)
            buf = np.frombuffer(pages, dtype=np.uint8)
        else:
            buf = np.zeros(size, dtype=np.uint8)
        self._bufs[i] = buf
        self._resident += buf.size
        return buf

    def write(self, addr: int, data: bytes | np.ndarray) -> None:
        """Store the bytes of ``data`` at virtual address ``addr``.

        An array of any dtype is stored as its in-memory bytes, never
        cast element by element.
        """
        if isinstance(data, (bytes, bytearray, memoryview)):
            view = np.frombuffer(data, dtype=np.uint8)
        else:
            view = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        n = len(view)
        i = self._find(addr, n)
        buf = self._bufs[i]
        if buf is None:
            buf = self._back(i)
        off = addr - self._starts[i]
        buf[off : off + n] = view

    def read(self, addr: int, size: int) -> bytes:
        """Load ``size`` bytes from virtual address ``addr``.

        A never-touched allocation reads as zeros and stays unbacked:
        polling a credit cell or an inbox slot materialises nothing.
        """
        i = self._find(addr, size)
        buf = self._bufs[i]
        if buf is None:
            return bytes(size)
        off = addr - self._starts[i]
        return buf[off : off + size].tobytes()

    def view(self, addr: int, size: int) -> np.ndarray:
        """Zero-copy uint8 view of an allocated range (for applications)."""
        i = self._find(addr, size)
        buf = self._bufs[i]
        if buf is None:
            buf = self._back(i)
        off = addr - self._starts[i]
        return buf[off : off + size]

    def ndarray(self, addr: int, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Typed zero-copy view of an allocated range."""
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        return self.view(addr, nbytes).view(dtype).reshape(shape)

    @property
    def allocated_bytes(self) -> int:
        """Bytes reserved by :meth:`alloc` (guard gaps excluded)."""
        return self._reserved

    @property
    def resident_bytes(self) -> int:
        """Bytes of the allocations that have been backed by a buffer."""
        return self._resident

    @property
    def region_count(self) -> int:
        """Number of allocations made so far."""
        return len(self._starts)

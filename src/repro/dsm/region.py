"""Shared regions and per-node page tables.

A :class:`SharedRegion` is a global allocation visible to every node.  Each
node backs the whole region in its own virtual memory; page ownership
("home") is distributed across nodes.  The home's copy of a page is
authoritative: writers flush byte diffs to the home, readers fetch pages
from the home.  This is the home-based lazy-release-consistency layout
GeNIMA uses, and it maps perfectly onto MultiEdge RDMA — a page fetch is a
remote read from the home's copy, a diff flush is a remote write into the
home's copy, and the home does no protocol processing at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

__all__ = ["PAGE_SIZE", "PageState", "SharedRegion", "PageTable", "HomePolicy"]

PAGE_SIZE = 4096


class PageState(Enum):
    INVALID = "invalid"  # local copy stale; fetch from home before reading
    VALID = "valid"  # clean local copy
    DIRTY = "dirty"  # locally written this interval; twin held for diffing


class HomePolicy:
    """Built-in page→home assignment policies."""

    @staticmethod
    def block(n_pages: int, n_nodes: int) -> Callable[[int], int]:
        """Contiguous blocks of pages per node (matches SPLASH partitioning)."""
        per = max(1, (n_pages + n_nodes - 1) // n_nodes)

        def home(page: int) -> int:
            return min(page // per, n_nodes - 1)

        return home

    @staticmethod
    def round_robin(n_pages: int, n_nodes: int) -> Callable[[int], int]:
        def home(page: int) -> int:
            return page % n_nodes

        return home

    @staticmethod
    def fixed(owner: int) -> Callable[[int], int]:
        def home(page: int) -> int:
            return owner

        return home


@dataclass
class SharedRegion:
    """Global descriptor of one shared allocation."""

    region_id: int
    name: str
    size: int
    n_pages: int
    home_of: Callable[[int], int]
    # Per-node base virtual address of the region's local backing.
    base: list[int]

    def page_range(self, offset: int, nbytes: int) -> range:
        if nbytes <= 0:
            raise ValueError("access size must be positive")
        if offset < 0 or offset + nbytes > self.size:
            raise ValueError(
                f"access [{offset}, {offset + nbytes}) outside region "
                f"{self.name!r} of size {self.size}"
            )
        return range(offset // PAGE_SIZE, (offset + nbytes - 1) // PAGE_SIZE + 1)

    def page_addr(self, node: int, page: int) -> int:
        return self.base[node] + page * PAGE_SIZE


class PageTable:
    """One node's view of one region: page states, twins, dirty set."""

    def __init__(self, region: SharedRegion, node_id: int) -> None:
        self.region = region
        self.node_id = node_id
        self.state = [PageState.INVALID] * region.n_pages
        self.twins: dict[int, np.ndarray] = {}
        self.dirty: set[int] = set()
        # Home pages are always valid locally.
        for page in range(region.n_pages):
            if region.home_of(page) == node_id:
                self.state[page] = PageState.VALID

    def is_home(self, page: int) -> bool:
        return self.region.home_of(page) == self.node_id

    def invalidate(self, page: int) -> None:
        """Apply a write notice: drop the cached copy unless we are home.

        Dirty pages are not invalidated mid-interval — by release
        consistency, a data-race-free application never has a page dirty
        here while a notice for a *conflicting* write arrives; concurrent
        false-sharing writers are merged byte-wise at the home.
        """
        if self.is_home(page) or self.state[page] == PageState.DIRTY:
            return
        self.state[page] = PageState.INVALID

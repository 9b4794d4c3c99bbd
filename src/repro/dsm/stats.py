"""Execution-time breakdowns for DSM runs (paper Figures 3–6, panel b).

Each node accounts its wall time into the same buckets the paper plots:

* **compute** — application computation,
* **data wait** — blocked fetching pages (remote memory fetches),
* **sync** — blocked in locks and barriers,
* **dsm overhead** — diff creation, message handling, bookkeeping (runs on
  the application CPU),
* the **protocol** time comes from the node's CPU accounting and is
  reported separately (Figures 3c/5c).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DsmNodeStats", "Breakdown"]


@dataclass
class DsmNodeStats:
    """Per-node DSM counters."""

    compute_ns: int = 0
    data_wait_ns: int = 0
    lock_wait_ns: int = 0
    barrier_wait_ns: int = 0
    dsm_overhead_ns: int = 0

    page_fetches: int = 0
    page_fetch_bytes: int = 0
    diffs_flushed: int = 0
    diff_bytes: int = 0
    diff_runs: int = 0
    write_notices_sent: int = 0
    invalidations_applied: int = 0
    lock_acquires: int = 0
    barriers: int = 0
    messages_sent: int = 0
    messages_received: int = 0

    @property
    def sync_wait_ns(self) -> int:
        return self.lock_wait_ns + self.barrier_wait_ns


@dataclass
class Breakdown:
    """Normalized execution-time breakdown for one run."""

    elapsed_ns: int
    compute: float
    data_wait: float
    sync: float
    dsm_overhead: float
    protocol: float
    other: float

    @classmethod
    def from_stats(
        cls, elapsed_ns: int, stats: DsmNodeStats, protocol_ns: int
    ) -> "Breakdown":
        if elapsed_ns <= 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        compute = stats.compute_ns / elapsed_ns
        data_wait = stats.data_wait_ns / elapsed_ns
        sync = stats.sync_wait_ns / elapsed_ns
        overhead = stats.dsm_overhead_ns / elapsed_ns
        protocol = protocol_ns / elapsed_ns
        other = max(0.0, 1.0 - compute - data_wait - sync - overhead)
        return cls(
            elapsed_ns=elapsed_ns,
            compute=compute,
            data_wait=data_wait,
            sync=sync,
            dsm_overhead=overhead,
            protocol=protocol,
            other=other,
        )

"""Fast-forward coverage and arming statistics.

One :class:`FastpathStats` per :class:`~repro.fastpath.FastpathManager`.
Counters are plain attributes (never fuzz-fingerprinted) so enabling the
subsystem cannot perturb pinned fingerprints.  The coverage figures —
what fraction of virtual time and of transferred bytes was simulated
analytically instead of frame by frame — feed the analysis probe and the
``BENCH_fastpath.json`` records.
"""

from __future__ import annotations

__all__ = ["FastpathStats"]


class FastpathStats:
    """Arming outcomes plus analytic-coverage accumulators."""

    def __init__(self) -> None:
        self.jumps = 0  # times a flow armed and fast-forwarded
        self.aborts = 0  # jumps cut short by a discontinuity
        self.ops_synthesized = 0  # operations completed analytically
        self.guard_bumps = 0  # discontinuity signals received
        # Virtual nanoseconds covered by closed-form jumps (only windows
        # that actually synthesized; aborted windows are not credited).
        self.ff_virtual_ns = 0
        self.ff_bytes = 0  # payload bytes moved analytically
        self.ff_frames = 0  # data frames synthesized (never built)
        self.ff_acks = 0  # explicit acks synthesized
        # Why the detector refused to arm / why jumps aborted.
        self.denials: dict[str, int] = {}
        self.abort_reasons: dict[str, int] = {}

    def reset(self) -> None:
        """Zero every counter (``Cluster.reset_measurement()``) — in place,
        because forwarders alias the manager's stats object."""
        self.__init__()

    def deny(self, reason: str) -> None:
        self.denials[reason] = self.denials.get(reason, 0) + 1

    def note_abort(self, reason: str) -> None:
        self.aborts += 1
        self.abort_reasons[reason] = self.abort_reasons.get(reason, 0) + 1

    # -- reporting ---------------------------------------------------------

    def coverage(self, elapsed_ns: int, total_bytes: int) -> dict:
        """Coverage fractions against a run's elapsed time / moved bytes."""
        time_pct = (
            100.0 * self.ff_virtual_ns / elapsed_ns if elapsed_ns > 0 else 0.0
        )
        byte_pct = (
            100.0 * self.ff_bytes / total_bytes if total_bytes > 0 else 0.0
        )
        return {
            "virtual_time_pct": time_pct,
            "bytes_pct": byte_pct,
            "jumps": self.jumps,
            "aborts": self.aborts,
            "ops_synthesized": self.ops_synthesized,
            "ff_virtual_ns": self.ff_virtual_ns,
            "ff_bytes": self.ff_bytes,
            "ff_frames": self.ff_frames,
            "ff_acks": self.ff_acks,
        }

    def to_dict(self) -> dict:
        return {
            "jumps": self.jumps,
            "aborts": self.aborts,
            "ops_synthesized": self.ops_synthesized,
            "guard_bumps": self.guard_bumps,
            "ff_virtual_ns": self.ff_virtual_ns,
            "ff_bytes": self.ff_bytes,
            "ff_frames": self.ff_frames,
            "ff_acks": self.ff_acks,
            "denials": dict(self.denials),
            "abort_reasons": dict(self.abort_reasons),
        }

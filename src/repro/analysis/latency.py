"""Tail-latency accounting: HDR-style histograms and SLO objects.

Serving systems live and die by their tails: a mean latency says nothing
about the p99 a user actually experiences under open-loop load (the
serving layer, :mod:`repro.serve`, never slows its arrival process down
just because the system is struggling — that is what makes the tail
honest).  This module provides the two measurement primitives the layer
reports through:

* :class:`LatencyHistogram` — a log-bucketed (HDR-style) histogram over
  non-negative integer nanoseconds.  Values below 2**7 are recorded
  exactly; above that, each power of two is split into 128 linear
  sub-buckets, bounding the relative quantization error of any recorded
  value by 1/128 (< 0.8%).  Histograms are sparse dicts, cheap to merge
  (counts add), and merging is associative and commutative — so
  per-node histograms can be combined in any order into one cluster-wide
  tail without shipping raw samples.
* :class:`SloSpec` / :class:`SloReport` — declarative service-level
  objectives (``p99 < X ms``, max shed fraction) evaluated against a
  histogram + counters into an attainment report.

Percentiles use the nearest-rank definition: ``percentile(99)`` is the
smallest recorded bucket such that at least 99% of all recorded values
are at or below it.  The returned value is the bucket midpoint, so the
oracle error is at most half a sub-bucket (1/256 relative).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = ["LatencyHistogram", "SloSpec", "SloReport"]

_SUB_BITS = 7  # 128 linear sub-buckets per power of two
_SUB = 1 << _SUB_BITS


def _index_of(value: int) -> int:
    """Bucket index for a non-negative integer value.

    ``value < 256`` maps to itself (shift 0: exact below 128, and the
    first power-of-two region is already at full sub-bucket resolution);
    above that, the top 8 bits select the bucket.
    """
    if value < 2 * _SUB:
        return value
    shift = value.bit_length() - 1 - _SUB_BITS
    return (shift << _SUB_BITS) + (value >> shift)


def _bucket_bounds(index: int) -> tuple[int, int]:
    """Inclusive [lo, hi] value range covered by bucket ``index``."""
    if index < 2 * _SUB:
        return index, index
    shift = (index >> _SUB_BITS) - 1
    sub = _SUB + (index & (_SUB - 1))
    lo = sub << shift
    return lo, lo + (1 << shift) - 1


class LatencyHistogram:
    """Sparse log-bucketed latency histogram (values in integer ns)."""

    __slots__ = ("counts", "total", "min_value", "max_value", "sum_value")

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.total = 0
        self.min_value: Optional[int] = None
        self.max_value: Optional[int] = None
        self.sum_value = 0

    # -- recording ---------------------------------------------------------

    def record(self, value: int, count: int = 1) -> None:
        if value < 0:
            raise ValueError("latency values must be non-negative")
        if count < 1:
            raise ValueError("count must be positive")
        value = int(value)
        idx = _index_of(value)
        self.counts[idx] = self.counts.get(idx, 0) + count
        self.total += count
        self.sum_value += value * count
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    def record_many(self, values: Iterable[int]) -> None:
        for v in values:
            self.record(v)

    # -- merging -----------------------------------------------------------

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into this histogram in place; returns self."""
        for idx, count in other.counts.items():
            self.counts[idx] = self.counts.get(idx, 0) + count
        self.total += other.total
        self.sum_value += other.sum_value
        for bound in (other.min_value,):
            if bound is not None and (
                self.min_value is None or bound < self.min_value
            ):
                self.min_value = bound
        for bound in (other.max_value,):
            if bound is not None and (
                self.max_value is None or bound > self.max_value
            ):
                self.max_value = bound
        return self

    @classmethod
    def merged(cls, parts: Iterable["LatencyHistogram"]) -> "LatencyHistogram":
        out = cls()
        for part in parts:
            out.merge(part)
        return out

    # -- queries -----------------------------------------------------------

    def percentile(self, pct: float) -> int:
        """Nearest-rank percentile (bucket midpoint); 0 when empty."""
        if not 0 < pct <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if self.total == 0:
            return 0
        rank = max(1, -(-int(pct * self.total) // 100))  # ceil(pct% * n)
        seen = 0
        for idx in sorted(self.counts):
            seen += self.counts[idx]
            if seen >= rank:
                lo, hi = _bucket_bounds(idx)
                return (lo + hi) // 2
        lo, hi = _bucket_bounds(max(self.counts))
        return (lo + hi) // 2

    @property
    def p50(self) -> int:
        return self.percentile(50)

    @property
    def p99(self) -> int:
        return self.percentile(99)

    @property
    def p999(self) -> int:
        return self.percentile(99.9)

    @property
    def mean(self) -> float:
        return self.sum_value / self.total if self.total else 0.0

    # -- serialization (benchmark JSON) -------------------------------------

    def to_dict(self) -> dict:
        return {
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "total": self.total,
            "min": self.min_value,
            "max": self.max_value,
            "sum": self.sum_value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyHistogram":
        out = cls()
        out.counts = {int(k): int(v) for k, v in data["counts"].items()}
        out.total = int(data["total"])
        out.min_value = data["min"]
        out.max_value = data["max"]
        out.sum_value = int(data["sum"])
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return (
            self.counts == other.counts
            and self.total == other.total
            and self.min_value == other.min_value
            and self.max_value == other.max_value
            and self.sum_value == other.sum_value
        )

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram(n={self.total}, p50={self.p50}, "
            f"p99={self.p99}, p999={self.p999})"
        )


@dataclass(frozen=True)
class SloSpec:
    """A service-level objective over one latency distribution.

    Latency bounds are in milliseconds (``None`` disables that clause);
    fractions are in [0, 1].  All configured clauses must hold for the
    SLO to be attained.
    """

    p50_ms: Optional[float] = None
    p99_ms: Optional[float] = None
    p999_ms: Optional[float] = None
    max_shed_fraction: Optional[float] = None

    def evaluate(
        self,
        hist: LatencyHistogram,
        shed_fraction: float = 0.0,
    ) -> "SloReport":
        clauses: dict[str, bool] = {}
        for name, bound_ms, pct in (
            ("p50", self.p50_ms, 50),
            ("p99", self.p99_ms, 99),
            ("p999", self.p999_ms, 99.9),
        ):
            if bound_ms is not None:
                clauses[name] = hist.percentile(pct) < bound_ms * 1e6
        if self.max_shed_fraction is not None:
            clauses["shed"] = shed_fraction <= self.max_shed_fraction
        return SloReport(
            spec=self,
            attained=all(clauses.values()),
            clauses=clauses,
            p50_ns=hist.p50,
            p99_ns=hist.p99,
            p999_ns=hist.p999,
            shed_fraction=shed_fraction,
        )


@dataclass
class SloReport:
    """Attainment of one :class:`SloSpec` against measured data."""

    spec: SloSpec
    attained: bool
    clauses: dict = field(default_factory=dict)
    p50_ns: int = 0
    p99_ns: int = 0
    p999_ns: int = 0
    shed_fraction: float = 0.0

    def to_dict(self) -> dict:
        return {
            "attained": self.attained,
            "clauses": dict(self.clauses),
            "p50_ms": round(self.p50_ns / 1e6, 4),
            "p99_ms": round(self.p99_ns / 1e6, 4),
            "p999_ms": round(self.p999_ns / 1e6, 4),
            "shed_fraction": round(self.shed_fraction, 6),
        }

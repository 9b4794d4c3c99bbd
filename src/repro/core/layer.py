"""The one contract between a cluster and its opt-in subsystems: each is
a :class:`Layer` in ``cluster.layers``, and every hook is called on every
layer in that (construction) order (DESIGN.md, "Layers")."""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["Layer"]


class Layer:
    """An opt-in subsystem of one cluster."""

    def __init__(self, cluster: Any) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        cluster.layers.append(self)

    def on_connection(self, conn: Any) -> None:
        """``Cluster.connect`` made this endpoint."""

    def on_node_crashed(self, node_id: int) -> None:
        """The node crashed: drop what its memory held."""

    def on_pair_reconnected(self, node_id: int, peer: int) -> None:
        """The pair has fresh endpoints: rebuild its per-pair state."""

    def disqualify(self, conn: Any, peer: Any) -> Optional[str]:
        """Why the fast path must not jump this flow now, else None."""
        return None

    def on_reset(self) -> None:
        """``Cluster.reset_measurement`` starts a measured interval."""

    def stop(self) -> None:
        """``Cluster.stop_periodic``: stop what re-arms itself forever."""

    def check_invariants(self) -> list[tuple[str, str, str]]:
        """End-of-run ``(invariant, detail, where)`` violations."""
        return []

    def summarize(self, fields: dict) -> None:
        """Add this layer's :class:`~repro.analysis.ClusterSummary` fields."""

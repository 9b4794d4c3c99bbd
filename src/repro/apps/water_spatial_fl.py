"""Water-SpatialFL: spatial water with symmetric pair forces and locks.

The paper's third Water variant.  Like Water-Spatial it uses a cell grid
with cutoff interactions, but pair forces are computed *symmetrically*
(each pair once, Newton's third law) so a node produces force
contributions for molecules owned by neighbouring nodes; those are
accumulated into a shared force region under per-owner locks.  Half the
pair arithmetic of Water-Spatial, more synchronization — the same
*medium* speedup band, with a visibly different lock/traffic mix.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from ..dsm import DsmNode, DsmRuntime, SharedRegion
from .base import init_region_data
from .water_spatial import WaterSpatialApp, _contiguous_runs

__all__ = ["WaterSpatialFlApp"]

MOL_BYTES = 4 * 8
FL_LOCK_BASE = 300


class WaterSpatialFlApp(WaterSpatialApp):
    """Spatial water with symmetric forces + per-owner accumulation locks."""

    name = "water-spatial-fl"

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("pair_ns", 350)
        super().__init__(**kwargs)
        self.forces: SharedRegion | None = None

    def setup(self, runtime: DsmRuntime) -> None:
        super().setup(runtime)
        self.forces = runtime.alloc_region(
            "wspfl.force", self.n * MOL_BYTES, home="block"
        )
        init_region_data(runtime, self.forces, np.zeros((self.n, 4)))
        self._mol_owner = self._compute_mol_owner(runtime.n)

    def _compute_mol_owner(self, size: int) -> np.ndarray:
        owner = np.zeros(self.n, dtype=np.int64)
        for rank in range(size):
            cell_lo, cell_count = self._cells_of(rank, size)
            m_lo, m_hi = self._mol_range(cell_lo, cell_lo + cell_count)
            owner[m_lo:m_hi] = rank
        return owner

    def _symmetric_forces(
        self, pos: np.ndarray, my_lo: int, my_hi: int, valid: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Each pair (i, j) with i owned and j > i computed once, against
        fetched halo molecules only."""
        g = self.grid
        cutoff2 = (1.5 / g) ** 2
        cand = np.flatnonzero(valid)
        cpos = pos[cand, :3]
        forces = np.zeros((self.n, 3))
        interactions = 0
        for i in range(my_lo, my_hi):
            sel = cand > i
            delta = cpos[sel] - pos[i, :3]
            dist2 = (delta**2).sum(axis=1)
            mask = dist2 < cutoff2
            if not mask.any():
                continue
            idx = cand[sel][mask]
            d = delta[mask]
            r2 = dist2[mask] + 1e-6
            f = d / r2[:, None] ** 1.5
            forces[i] += f.sum(axis=0)
            np.add.at(forces, idx, -f)
            interactions += len(idx)
        return forces, interactions

    def program(self, node: DsmNode) -> Generator:
        rank, size = node.rank, node.size
        cell_lo, cell_count = self._cells_of(rank, size)
        my_lo, my_hi = self._mol_range(cell_lo, cell_lo + cell_count)
        halo_cells = self._neighbour_cells(range(cell_lo, cell_lo + cell_count))
        owner = self._mol_owner

        yield from node.barrier(0)
        node.start_measurement()

        for _ in range(self.iterations):
            runs = _contiguous_runs(halo_cells)
            halo_pos = np.zeros((self.n, 4))
            valid = np.zeros(self.n, dtype=bool)
            for c_lo, c_hi in runs:
                m_lo, m_hi = self._mol_range(c_lo, c_hi)
                if m_hi <= m_lo:
                    continue
                view = yield from node.access(
                    self.positions,
                    m_lo * MOL_BYTES,
                    (m_hi - m_lo) * MOL_BYTES,
                    "r",
                )
                halo_pos[m_lo:m_hi] = view.view(np.float64).reshape(-1, 4)
                valid[m_lo:m_hi] = True

            if my_hi > my_lo:
                forces, interactions = self._symmetric_forces(
                    halo_pos, my_lo, my_hi, valid
                )
                # Half the pair count of Water-Spatial (each pair once).
                yield from node.compute(interactions * self.pair_ns)

                # Scatter contributions to each owner's force block.
                touched = np.flatnonzero(np.abs(forces).sum(axis=1) > 0)
                for step in range(size):
                    target = (rank + step) % size
                    mols = touched[owner[touched] == target]
                    if len(mols) == 0:
                        continue
                    lo, hi = int(mols.min()), int(mols.max()) + 1
                    yield from node.lock(FL_LOCK_BASE + target)
                    fview = yield from node.access(
                        self.forces,
                        lo * MOL_BYTES,
                        (hi - lo) * MOL_BYTES,
                        "rw",
                    )
                    fmat = fview.view(np.float64).reshape(-1, 4)
                    fmat[mols - lo, :3] += forces[mols]
                    yield from node.unlock(FL_LOCK_BASE + target)
            yield from node.barrier(0)

            # Integrate own molecules and clear their accumulators.
            if my_hi > my_lo:
                own = yield from node.access(
                    self.positions,
                    my_lo * MOL_BYTES,
                    (my_hi - my_lo) * MOL_BYTES,
                    "rw",
                )
                pmat = own.view(np.float64).reshape(-1, 4)
                facc = yield from node.access(
                    self.forces,
                    my_lo * MOL_BYTES,
                    (my_hi - my_lo) * MOL_BYTES,
                    "rw",
                )
                fmat = facc.view(np.float64).reshape(-1, 4)
                pmat[:, :3] = np.clip(
                    pmat[:, :3] + self.dt * fmat[:, :3], 0.0, 0.999999
                )
                fmat[:, :3] = 0.0
                yield from node.compute((my_hi - my_lo) * 30)
            yield from node.barrier(0)
